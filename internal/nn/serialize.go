package nn

import (
	"encoding/gob"
	"fmt"
	"io"
	"math"
)

// layerSpec is the gob wire form of one layer: its kind, geometry and
// parameter payloads. Keeping the wire type private and flat avoids
// exposing layer internals to the encoding.
type layerSpec struct {
	Kind    string
	Name    string
	Ints    []int       // kind-specific geometry, in a fixed order
	Floats  []float64   // kind-specific real-valued settings
	Weights [][]float64 // parameter payloads in Params() order
}

// netSpec is the gob wire form of a whole network.
type netSpec struct {
	Version int
	Layers  []layerSpec
}

const wireVersion = 1

// Encode writes the network (architecture and weights) to w in gob form.
func (n *Network) Encode(w io.Writer) error {
	spec := netSpec{Version: wireVersion}
	for _, l := range n.LayerStack {
		ls := layerSpec{Name: l.Name()}
		switch t := l.(type) {
		case *Conv2D:
			ls.Kind = "conv"
			ls.Ints = []int{t.InC, t.InH, t.InW, t.OutC, t.K, t.Stride, t.Pad}
		case *Dense:
			ls.Kind = "dense"
			ls.Ints = []int{t.In, t.Out}
		case *MaxPool2D:
			ls.Kind = "maxpool"
			ls.Ints = []int{t.C, t.H, t.W, t.K, t.Stride}
		case *Activate:
			ls.Kind = "act"
			ls.Ints = []int{int(t.Fn)}
		case *Flatten:
			ls.Kind = "flatten"
		case *ScaleShift:
			ls.Kind = "scaleshift"
			ls.Floats = []float64{t.A, t.B}
		default:
			return fmt.Errorf("nn: cannot encode layer type %T", l)
		}
		for _, p := range l.Params() {
			vals := make([]float64, p.W.Size())
			copy(vals, p.W.Data())
			ls.Weights = append(ls.Weights, vals)
		}
		spec.Layers = append(spec.Layers, ls)
	}
	return gob.NewEncoder(w).Encode(spec)
}

// Decode reads a network written by Encode.
func Decode(r io.Reader) (*Network, error) {
	var spec netSpec
	if err := gob.NewDecoder(r).Decode(&spec); err != nil {
		return nil, fmt.Errorf("nn: decode network: %w", err)
	}
	if spec.Version != wireVersion {
		return nil, fmt.Errorf("nn: unsupported network wire version %d", spec.Version)
	}
	layers := make([]Layer, 0, len(spec.Layers))
	for i, ls := range spec.Layers {
		l, err := buildLayer(ls)
		if err != nil {
			return nil, fmt.Errorf("nn: decode layer %d (%s): %w", i, ls.Name, err)
		}
		layers = append(layers, l)
	}
	return NewNetwork(layers...), nil
}

// buildLayer checks a decoded layer spec and builds the layer. Every
// geometry and payload length is checked before anything is allocated,
// so a hostile file cannot make a constructor panic or size its
// buffers: a model file reaches this from any -model flag.
func buildLayer(ls layerSpec) (Layer, error) {
	need := func(n int) error {
		if len(ls.Ints) != n {
			return fmt.Errorf("kind %s needs %d ints, got %d", ls.Kind, n, len(ls.Ints))
		}
		for _, v := range ls.Ints {
			if v < 0 {
				return fmt.Errorf("kind %s has negative geometry %v", ls.Kind, ls.Ints)
			}
		}
		return nil
	}
	var build func() Layer
	var sizes []int // parameter payload lengths, in Params() order
	switch ls.Kind {
	case "conv":
		if err := need(7); err != nil {
			return nil, err
		}
		g := ls.Ints
		inC, inH, inW, outC, k, stride, pad := g[0], g[1], g[2], g[3], g[4], g[5], g[6]
		if err := checkWindow(inC, inH, inW, k, stride, pad); err != nil {
			return nil, err
		}
		w, ok := checkedProduct(outC, inC, k, k)
		if !ok || outC < 1 {
			return nil, fmt.Errorf("conv weights %d×%d×%d×%d must be non-empty and fit an int", outC, inC, k, k)
		}
		build = func() Layer { return NewConv2D(ls.Name, inC, inH, inW, outC, k, stride, pad) }
		sizes = []int{w, outC}
	case "dense":
		if err := need(2); err != nil {
			return nil, err
		}
		in, out := ls.Ints[0], ls.Ints[1]
		w, ok := checkedProduct(out, in)
		if !ok || w < 1 {
			return nil, fmt.Errorf("dense weights %d×%d must be non-empty and fit an int", out, in)
		}
		build = func() Layer { return NewDense(ls.Name, in, out) }
		sizes = []int{w, out}
	case "maxpool":
		if err := need(5); err != nil {
			return nil, err
		}
		g := ls.Ints
		if err := checkWindow(g[0], g[1], g[2], g[3], g[4], 0); err != nil {
			return nil, err
		}
		build = func() Layer { return NewMaxPool2D(ls.Name, g[0], g[1], g[2], g[3], g[4]) }
	case "act":
		if err := need(1); err != nil {
			return nil, err
		}
		fn := Activation(ls.Ints[0])
		if fn > LeakyReLU {
			return nil, fmt.Errorf("unknown activation %d", ls.Ints[0])
		}
		build = func() Layer { return NewActivate(ls.Name, fn) }
	case "flatten":
		build = func() Layer { return NewFlatten(ls.Name) }
	case "scaleshift":
		if len(ls.Floats) != 2 {
			return nil, fmt.Errorf("kind scaleshift needs 2 floats, got %d", len(ls.Floats))
		}
		build = func() Layer { return NewScaleShift(ls.Name, ls.Floats[0], ls.Floats[1]) }
	default:
		return nil, fmt.Errorf("unknown layer kind %q", ls.Kind)
	}
	if len(sizes) != len(ls.Weights) {
		return nil, fmt.Errorf("kind %s has %d params, payload has %d", ls.Kind, len(sizes), len(ls.Weights))
	}
	for i, n := range sizes {
		if n != len(ls.Weights[i]) {
			return nil, fmt.Errorf("param %d of kind %s expects %d values, payload has %d", i, ls.Kind, n, len(ls.Weights[i]))
		}
	}
	l := build()
	for i, p := range l.Params() {
		copy(p.W.Data(), ls.Weights[i])
	}
	return l, nil
}

// checkWindow checks a [c, h, w] input and a k×k window at stride over
// padding pad: positive sizes, stride ≥ 1, padding below the window (a
// wider border only adds outputs that see nothing but padding, and
// would let a tiny input size a huge lowering), a window that fits the
// padded input, and input and lowered volumes that fit an int.
func checkWindow(c, h, w, k, stride, pad int) error {
	if c < 1 || h < 1 || w < 1 || k < 1 || stride < 1 || pad >= k {
		return fmt.Errorf("window geometry c=%d h=%d w=%d k=%d stride=%d pad=%d needs positive sizes and pad < k", c, h, w, k, stride, pad)
	}
	ph, okH := checkedSum(h, pad, pad)
	pw, okW := checkedSum(w, pad, pad)
	if !okH || !okW || k > ph || k > pw {
		return fmt.Errorf("window k=%d stride=%d pad=%d does not fit input %dx%d", k, stride, pad, h, w)
	}
	if _, ok := checkedProduct(c, h, w); !ok {
		return fmt.Errorf("input volume %d×%d×%d overflows", c, h, w)
	}
	if _, ok := checkedProduct(c, k, k, (ph-k)/stride+1, (pw-k)/stride+1); !ok {
		return fmt.Errorf("window lowering of %d×%d×%d by k=%d overflows", c, h, w, k)
	}
	return nil
}

// checkedProduct multiplies non-negative ints, reporting whether the
// product fits an int.
func checkedProduct(vs ...int) (int, bool) {
	p := 1
	for _, v := range vs {
		if v != 0 && p > math.MaxInt/v {
			return 0, false
		}
		p *= v
	}
	return p, true
}

// checkedSum adds non-negative ints, reporting whether the sum fits an
// int.
func checkedSum(vs ...int) (int, bool) {
	s := 0
	for _, v := range vs {
		if s > math.MaxInt-v {
			return 0, false
		}
		s += v
	}
	return s, true
}
