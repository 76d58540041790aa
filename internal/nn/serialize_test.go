package nn

import (
	"bytes"
	"encoding/gob"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/tensor"
)

func buildTestNet(seed int64) *Network {
	rng := rand.New(rand.NewSource(seed))
	c := NewConv2D("conv1", 1, 6, 6, 2, 3, 1, 1)
	c.Init(rng)
	p := NewMaxPool2D("pool1", 2, 6, 6, 2, 2)
	fc := NewDense("fc", 2*3*3, 4)
	fc.Init(rng)
	return NewNetwork(c, NewActivate("relu1", ReLU), p, NewFlatten("flat"), fc)
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	net := buildTestNet(41)
	var buf bytes.Buffer
	if err := net.Encode(&buf); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got.NumParams() != net.NumParams() {
		t.Fatalf("param count %d, want %d", got.NumParams(), net.NumParams())
	}
	for i := 0; i < net.NumParams(); i++ {
		if got.ParamAt(i) != net.ParamAt(i) {
			t.Fatalf("param %d differs after round trip", i)
		}
	}
	// Same predictions.
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 5; trial++ {
		x := tensor.New(1, 6, 6)
		x.FillNormal(rng, 0, 1)
		a, b := net.Forward(x.Clone()), got.Forward(x.Clone())
		for j := range a.Data() {
			if a.Data()[j] != b.Data()[j] {
				t.Fatalf("logits differ after round trip (trial %d)", trial)
			}
		}
	}
}

func TestDecodeGarbageFails(t *testing.T) {
	if _, err := Decode(strings.NewReader("not a gob stream")); err == nil {
		t.Fatal("Decode of garbage should fail")
	}
}

func TestDecodeTruncatedFails(t *testing.T) {
	net := buildTestNet(43)
	var buf bytes.Buffer
	if err := net.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()/2]
	if _, err := Decode(bytes.NewReader(trunc)); err == nil {
		t.Fatal("Decode of truncated stream should fail")
	}
}

func TestDecodeEmptyFails(t *testing.T) {
	if _, err := Decode(bytes.NewReader(nil)); err == nil {
		t.Fatal("Decode of empty stream should fail")
	}
}

func TestEncodePreservesActivationKind(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	fc := NewDense("fc", 2, 2)
	fc.InitGlorot(rng)
	net := NewNetwork(fc, NewActivate("act", Tanh), func() Layer {
		d := NewDense("fc2", 2, 2)
		d.InitGlorot(rng)
		return d
	}())
	var buf bytes.Buffer
	if err := net.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	act, ok := got.LayerStack[1].(*Activate)
	if !ok || act.Fn != Tanh {
		t.Fatalf("activation kind lost: %#v", got.LayerStack[1])
	}
}

// encodeSpec gob-encodes a hand-built network spec, the way a hostile
// model file would arrive.
func encodeSpec(t testing.TB, layers ...layerSpec) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(netSpec{Version: wireVersion, Layers: layers}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestDecodeRejectsBadGeometry: geometry a constructor would panic on,
// or that names no valid layer, is a decode error.
func TestDecodeRejectsBadGeometry(t *testing.T) {
	conv := func(g ...int) layerSpec {
		return layerSpec{Kind: "conv", Name: "c", Ints: g, Weights: [][]float64{make([]float64, 4), {0}}}
	}
	cases := map[string]layerSpec{
		"conv stride 0":        conv(1, 4, 4, 1, 2, 0, 0),
		"conv window too big":  conv(1, 4, 4, 1, 9, 1, 0),
		"conv zero channels":   conv(0, 4, 4, 1, 2, 1, 0),
		"conv pad ≥ window":    conv(1, 4, 4, 1, 2, 1, 2),
		"conv negative pad":    conv(1, 4, 4, 1, 2, 1, -1),
		"conv pad overflow":    conv(1, 4, 4, 1, 2, 1, math.MaxInt/2+1),
		"conv volume overflow": conv(1, math.MaxInt/2, math.MaxInt/2, 1, 2, 1, 0),
		"pool stride 0":        {Kind: "maxpool", Name: "p", Ints: []int{1, 4, 4, 2, 0}},
		"pool window too big":  {Kind: "maxpool", Name: "p", Ints: []int{1, 4, 4, 5, 1}},
		"dense zero":           {Kind: "dense", Name: "d", Ints: []int{0, 3}, Weights: [][]float64{nil, make([]float64, 3)}},
		"dense overflow":       {Kind: "dense", Name: "d", Ints: []int{math.MaxInt / 2, 4}, Weights: [][]float64{nil, make([]float64, 4)}},
		"unknown activation":   {Kind: "act", Name: "a", Ints: []int{int(LeakyReLU) + 1}},
		"negative activation":  {Kind: "act", Name: "a", Ints: []int{-1}},
	}
	for name, ls := range cases {
		if _, err := Decode(bytes.NewReader(encodeSpec(t, ls))); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

// TestDecodeChecksPayloadBeforeAllocating: a small file declaring a huge
// dense layer with no payload is rejected before the layer's weights and
// gradients are allocated — at 1<<20 × 1<<20 an allocation would kill
// the process.
func TestDecodeChecksPayloadBeforeAllocating(t *testing.T) {
	for _, n := range []int{8192, 1 << 20} {
		file := encodeSpec(t, layerSpec{Kind: "dense", Name: "fc", Ints: []int{n, n}})
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Decode(bytes.NewReader(file))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%d×%d dense layer with no payload decoded", n, n)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
			t.Fatalf("rejecting a %d-byte file allocated %d bytes", len(file), got)
		}
	}
}
