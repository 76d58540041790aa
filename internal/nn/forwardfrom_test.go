package nn_test

import (
	"math"
	"slices"
	"testing"

	"repro/internal/data"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// suffixNet is a stack the suffix-replay tests run on, with inputs.
type suffixNet struct {
	name   string
	net    *nn.Network
	inputs *data.Dataset
}

// suffixNets are the tiny one-conv-block net and both Table I
// architectures at test size.
func suffixNets(t *testing.T) []suffixNet {
	t.Helper()
	mnist, err := models.MNIST(16, 16, 0.25).Build(62)
	if err != nil {
		t.Fatal(err)
	}
	cifar, err := models.CIFAR(16, 16, 0.25).Build(62)
	if err != nil {
		t.Fatal(err)
	}
	digits, objects := data.Digits(3, 16, 16, 63), data.Objects(3, 16, 16, 63)
	return []suffixNet{
		{"tiny", models.Tiny(nn.ReLU, 1, 16, 16, 4, 10, 61), digits},
		{"mnist", mnist, digits},
		{"cifar", cifar, objects},
	}
}

func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// TestForwardFromRecordedInputs: re-running the stack from any
// recorded layer input gives Forward's logits bit for bit, also after
// an edit in that layer, and ForwardRecord records exactly the
// parameter-owning layers' inputs. A float64 snapshot of the stack
// (nn.Freeze) gives ForwardBatch's logits bit for bit.
func TestForwardFromRecordedInputs(t *testing.T) {
	for _, sn := range suffixNets(t) {
		name, net := sn.name, sn.net
		xs := make([]*tensor.Tensor, sn.inputs.Len())
		for i, s := range sn.inputs.Samples {
			xs[i] = s.X
		}
		batch := tensor.Stack(xs)
		if !sameBits(nn.Freeze[float64](net).ForwardBatch(batch).Data(), net.ForwardBatch(batch).Data()) {
			t.Fatalf("%s: Freeze[float64] logits differ from ForwardBatch", name)
		}
		for i, s := range sn.inputs.Samples {
			x := s.X
			rec := net.ForwardRecord(x)
			want := net.Forward(x).Data()
			if len(rec) != len(net.LayerStack)+1 {
				t.Fatalf("%s: %d recorded entries for %d layers", name, len(rec), len(net.LayerStack))
			}
			for l, h := range rec {
				owns := l < len(net.LayerStack) && len(net.LayerStack[l].Params()) > 0
				if l < len(net.LayerStack) && (h != nil) != owns {
					t.Fatalf("%s: layer %d (%s) recorded %v, owns parameters %v", name, l, net.LayerStack[l].Name(), h != nil, owns)
				}
				if h == nil {
					continue
				}
				if got := net.ForwardFrom(l, h).Data(); !sameBits(got, want) {
					t.Fatalf("%s input %d: ForwardFrom(%d) differs from Forward", name, i, l)
				}
				if l == len(net.LayerStack) {
					continue
				}
				// An edit in layer l leaves the recorded input valid.
				w := net.LayerStack[l].Params()[0].W.Data()
				old := w[0]
				w[0] += 0.25
				edited := net.Forward(x).Data()
				got := net.ForwardFrom(l, h).Data()
				w[0] = old
				if !sameBits(got, edited) {
					t.Fatalf("%s input %d: ForwardFrom(%d) after an edit in that layer differs from Forward", name, i, l)
				}
			}
		}
	}
}

// TestLayerOfNamesOwningLayer: every flat parameter index maps to the
// layer whose Params hold it.
func TestLayerOfNamesOwningLayer(t *testing.T) {
	for _, sn := range suffixNets(t) {
		name, net := sn.name, sn.net
		off := 0
		for _, p := range net.Params() {
			for j := 0; j < p.W.Size(); j++ {
				l := net.LayerOf(off + j)
				if !slices.Contains(net.LayerStack[l].Params(), p) {
					t.Fatalf("%s: LayerOf(%d) = %d (%s), which does not hold %s", name, off+j, l, net.LayerStack[l].Name(), p.Name)
				}
			}
			off += p.W.Size()
		}
		if off != net.NumParams() {
			t.Fatalf("%s: walked %d parameters of %d", name, off, net.NumParams())
		}
	}
}
