package nn

import (
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// These tests pin the convolution layers, which run the direct kernels
// of tensor/conv.go, against the pre-epilogue im2col operation
// sequence: wide GEMM → separate bias pass → [OutC, B*hw] →
// [B, OutC, hw] permute on the forward, and per-sample contiguous
// column-block gathers on the backward. The old sequence is replicated
// verbatim here (it is the reference); the layer must reproduce it bit
// for bit.

func convBeds(t *testing.T) []*Conv2D {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	mk := func(inC, inH, inW, outC, k, stride, pad int) *Conv2D {
		c := NewConv2D("conv", inC, inH, inW, outC, k, stride, pad)
		c.Init(rng)
		return c
	}
	return []*Conv2D{
		mk(2, 5, 5, 3, 3, 1, 1),
		mk(1, 6, 6, 2, 2, 2, 0),
		mk(3, 9, 7, 5, 3, 2, 1),
	}
}

func randIn(rng *rand.Rand, shape ...int) *tensor.Tensor {
	x := tensor.New(shape...)
	for i := range x.Data() {
		x.Data()[i] = rng.NormFloat64()
	}
	return x
}

// oldConvForwardBatch is the pre-epilogue batched forward: one wide
// MatMul, a separate bias pass over each [B*hw] weight row, then the
// permute into sample-contiguous layout.
func oldConvForwardBatch(c *Conv2D, x *tensor.Tensor) *tensor.Tensor {
	b := x.Dim(0)
	wide := tensor.MatMul(c.Weight.W, tensor.Im2ColBatch(x, c.geom)) // [OutC, B*hw]
	hw := c.geom.OutH * c.geom.OutW
	wd := wide.Data()
	for o := 0; o < c.OutC; o++ {
		bias := c.Bias.W.Data()[o]
		row := wd[o*b*hw : (o+1)*b*hw]
		for i := range row {
			row[i] += bias
		}
	}
	out := tensor.New(b, c.OutC, c.geom.OutH, c.geom.OutW)
	od := out.Data()
	for o := 0; o < c.OutC; o++ {
		for s := 0; s < b; s++ {
			copy(od[(s*c.OutC+o)*hw:(s*c.OutC+o+1)*hw], wd[(o*b+s)*hw:(o*b+s+1)*hw])
		}
	}
	return out
}

// oldConvForward is the pre-epilogue per-sample forward: MatMul then a
// separate bias pass.
func oldConvForward(c *Conv2D, x *tensor.Tensor) *tensor.Tensor {
	out := tensor.MatMul(c.Weight.W, tensor.Im2Col(x, c.geom))
	od := out.Data()
	hw := c.geom.OutH * c.geom.OutW
	for o := 0; o < c.OutC; o++ {
		b := c.Bias.W.Data()[o]
		row := od[o*hw : o*hw+hw]
		for i := range row {
			row[i] += b
		}
	}
	return out.Reshape(c.OutC, c.geom.OutH, c.geom.OutW)
}

func TestConvForwardMatchesPreEpilogueSequence(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, c := range convBeds(t) {
		for _, b := range []int{1, 4} {
			x := randIn(rng, b, c.InC, c.InH, c.InW)
			want := oldConvForwardBatch(c, x)
			got := c.ForwardBatch(x)
			for i := range want.Data() {
				if got.Data()[i] != want.Data()[i] {
					t.Fatalf("B=%d: fused batched forward element %d = %v, want %v (pre-epilogue sequence)",
						b, i, got.Data()[i], want.Data()[i])
				}
			}
		}
		xs := randIn(rng, c.InC, c.InH, c.InW)
		want := oldConvForward(c, xs)
		got := c.Forward(xs)
		for i := range want.Data() {
			if got.Data()[i] != want.Data()[i] {
				t.Fatalf("fused per-sample forward element %d = %v, want %v (pre-epilogue sequence)",
					i, got.Data()[i], want.Data()[i])
			}
		}
	}
}

func TestConvForwardF32MatchesPreEpilogueSequence(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, c := range convBeds(t) {
		net := NewNetwork(c)
		f32 := Freeze[float32](net)
		for _, b := range []int{1, 4} {
			x := randIn(rng, b, c.InC, c.InH, c.InW)
			x32 := x.F32()

			// Pre-epilogue float32 sequence: wide GEMM, bias pass, permute.
			w32, bias32 := c.Weight.W.F32(), c.Bias.W.F32()
			wide := tensor.MatMul(w32, tensor.Im2ColBatch(x32, c.geom))
			hw := c.geom.OutH * c.geom.OutW
			wd, bd := wide.Data(), bias32.Data()
			for o := 0; o < c.OutC; o++ {
				bias := bd[o]
				row := wd[o*b*hw : (o+1)*b*hw]
				for i := range row {
					row[i] += bias
				}
			}
			want := tensor.New32(b, c.OutC, c.geom.OutH, c.geom.OutW)
			od := want.Data()
			for o := 0; o < c.OutC; o++ {
				for s := 0; s < b; s++ {
					copy(od[(s*c.OutC+o)*hw:(s*c.OutC+o+1)*hw], wd[(o*b+s)*hw:(o*b+s+1)*hw])
				}
			}

			got := f32.ForwardBatch(x32)
			for i := range want.Data() {
				if got.Data()[i] != want.Data()[i] {
					t.Fatalf("B=%d: fused f32 batched forward element %d = %v, want %v (pre-epilogue sequence)",
						b, i, got.Data()[i], want.Data()[i])
				}
			}
		}
	}
}

func TestConvBackwardSampleMatchesPreEpilogueSequence(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, c := range convBeds(t) {
		const b = 3
		x := randIn(rng, b, c.InC, c.InH, c.InW)
		c.ForwardBatch(x)
		hw := c.geom.OutH * c.geom.OutW
		colBatch := tensor.Im2ColBatch(x, c.geom)

		for s := 0; s < b; s++ {
			dOut := randIn(rng, c.OutC, c.geom.OutH, c.geom.OutW)
			d2 := dOut.Reshape(c.OutC, hw)

			// Pre-epilogue reference: gather sample s's column block of
			// the batch's Im2ColBatch matrix into a contiguous scratch
			// matrix (the old sampleCol), then run the old gradient
			// products on clones of the running grads.
			rows := c.InC * c.K * c.K
			stride := b * hw
			cb := colBatch.Data()
			scratch := tensor.New(rows, hw)
			for i := 0; i < rows; i++ {
				copy(scratch.Data()[i*hw:(i+1)*hw], cb[i*stride+s*hw:i*stride+(s+1)*hw])
			}
			wantW := c.Weight.Grad.Clone()
			tensor.MatMulTBInto(wantW, d2, scratch, true)
			wantB := c.Bias.Grad.Clone()
			dd := d2.Data()
			for o := 0; o < c.OutC; o++ {
				wantB.Data()[o] += tensor.Sum(dd[o*hw : o*hw+hw])
			}
			wantX := tensor.Col2Im(tensor.MatMulTA(c.Weight.W, d2), c.geom)

			gotX := c.BackwardSample(s, dOut)
			for i := range wantW.Data() {
				if c.Weight.Grad.Data()[i] != wantW.Data()[i] {
					t.Fatalf("sample %d: dW element %d = %v, want %v (direct backward must match the gathered sequence)",
						s, i, c.Weight.Grad.Data()[i], wantW.Data()[i])
				}
			}
			for i := range wantB.Data() {
				if c.Bias.Grad.Data()[i] != wantB.Data()[i] {
					t.Fatalf("sample %d: db element %d mismatch", s, i)
				}
			}
			for i := range wantX.Data() {
				if gotX.Data()[i] != wantX.Data()[i] {
					t.Fatalf("sample %d: dX element %d mismatch", s, i)
				}
			}
		}
	}
}
