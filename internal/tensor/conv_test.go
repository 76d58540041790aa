package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// These tests pin the direct convolution kernels against the im2col
// sequences they replace, bit for bit: the forward against Im2Col, then
// MatMul, then a separate bias pass; the weight gradient against
// MatMulTBInto over Im2Col; the input gradient against
// Col2Im(MatMulTA(…)). Comparisons use the values' bit patterns, so a
// NaN compares equal to a NaN of the same bits and the sign of a zero
// counts.

// bitsOf returns v's IEEE bit pattern.
func bitsOf[E Num](v E) uint64 {
	switch x := any(v).(type) {
	case float32:
		return uint64(math.Float32bits(x))
	case float64:
		return math.Float64bits(x)
	}
	panic("unreachable")
}

func requireSameBits[E Num](t *testing.T, name string, got, want []E) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d elements, want %d", name, len(got), len(want))
	}
	for i := range want {
		if bitsOf(got[i]) != bitsOf(want[i]) {
			t.Fatalf("%s: element %d = %v (%#x), want %v (%#x)", name, i, got[i], bitsOf(got[i]), want[i], bitsOf(want[i]))
		}
	}
}

// specialValues are the non-finite and edge values the tests plant:
// NaN, ±Inf, −0 and subnormals. The NaN is the one the hardware makes
// for an invalid operation, the only kind 0·Inf and Inf−Inf create, so
// every NaN in a computation has the same bits. Which payload survives
// an operation on two different NaNs is decided by the operand order
// the compiler picks for a commutative instruction, not by the source,
// so planting a second payload would test the compiler; the bit
// comparison still catches a NaN, an infinity or a signed zero that
// appears in one sequence and not the other.
func specialValues[E Num]() []E {
	inf := E(math.Inf(1))
	var zero E
	if _, ok := any(zero).(float32); ok {
		return append([]E{inf - inf, inf, -inf}, any([]float32{
			float32(math.Copysign(0, -1)), math.Float32frombits(1), -math.Float32frombits(0x7ffff),
		}).([]E)...)
	}
	return append([]E{inf - inf, inf, -inf}, any([]float64{
		math.Copysign(0, -1), math.Float64frombits(1), -math.Float64frombits(0xfffffffffff),
	}).([]E)...)
}

// fillConv fills data with normal values and, when special is set,
// plants every special value at two random positions.
func fillConv[E Num](rng *rand.Rand, data []E, special bool) {
	for i := range data {
		data[i] = E(rng.NormFloat64())
	}
	if special {
		for _, v := range specialValues[E]() {
			for n := 0; n < 2; n++ {
				data[rng.Intn(len(data))] = v
			}
		}
	}
}

// weightPatterns shape the zeros of an [outC, ckk] weight matrix: none;
// one zero inside each four-channel block on every other column; whole
// zero rows; scattered zeros; all zeros.
var weightPatterns = []string{"dense", "block-zero", "zero-rows", "scattered", "all-zero"}

func patternWeights[E Num](w []E, pattern string, outC, ckk int, rng *rand.Rand) {
	for o := 0; o < outC; o++ {
		for kk := 0; kk < ckk; kk++ {
			var zero bool
			switch pattern {
			case "block-zero":
				zero = kk%2 == 0 && o%4 == (kk/2)%4
			case "zero-rows":
				zero = o%3 == 1
			case "scattered":
				zero = rng.Intn(3) == 0
			case "all-zero":
				zero = true
			}
			if zero {
				w[o*ckk+kk] = 0
			}
		}
	}
}

func garbage[E Num](shape ...int) *Dense[E] {
	t := NewOf[E](shape...)
	t.Fill(E(math.NaN()))
	return t
}

func TestConvKernelsMatchIm2ColF64(t *testing.T) { testConvKernels[float64](t, 101) }
func TestConvKernelsMatchIm2ColF32(t *testing.T) { testConvKernels[float32](t, 102) }

func testConvKernels[E Num](t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	cases := 0
	for _, workers := range []int{1, 4} {
		forceParallel(t, workers)
		for _, c := range []int{1, 3, 5} {
			for _, outC := range []int{1, 3, 4, 5, 8, 9} {
				for _, k := range []int{1, 2, 3, 5} {
					for _, stride := range []int{1, 2, 3} {
						for _, pad := range []int{0, 1, 2} {
							g := Geom(c, k+2, k+4, k, k, stride, pad)
							for i, pattern := range weightPatterns {
								// Special values go to every other case, so each
								// pattern meets them on half the geometries.
								special := (cases+i)%2 == 1
								name := fmt.Sprintf("workers=%d C=%d OutC=%d K=%d S=%d P=%d %s special=%t", workers, c, outC, k, stride, pad, pattern, special)
								checkConvCase[E](t, name, rng, g, outC, pattern, special)
							}
							cases++
						}
					}
				}
			}
		}
	}
	if cases != 2*3*6*4*3*3 {
		t.Fatalf("ran %d geometries", cases)
	}
	// Windows wider than the input, which only the padding lets fit:
	// some kernel rows and columns then never touch the input.
	for _, g := range []ConvGeom{
		Geom(2, 1, 2, 5, 5, 1, 2),
		Geom(1, 2, 1, 3, 3, 2, 1),
		Geom(3, 1, 1, 3, 3, 1, 1),
		Geom(2, 2, 1, 5, 5, 1, 2),
		Geom(2, 3, 1, 5, 5, 3, 2),
	} {
		for i, pattern := range weightPatterns {
			name := fmt.Sprintf("edge %+v %s", g, pattern)
			checkConvCase[E](t, name, rng, g, 5, pattern, i%2 == 1)
		}
	}
}

// checkConvCase runs every kernel on a two-sample batch and on its first
// sample alone, against the im2col reference of each sample.
func checkConvCase[E Num](t *testing.T, name string, rng *rand.Rand, g ConvGeom, outC int, pattern string, special bool) {
	t.Helper()
	const batch = 2
	ckk, hw := g.C*g.KH*g.KW, g.OutH*g.OutW
	x := NewOf[E](batch, g.C, g.H, g.W)
	w := NewOf[E](outC, ckk)
	bias := NewOf[E](outC)
	d := NewOf[E](batch, outC, g.OutH, g.OutW)
	dw0 := NewOf[E](outC, ckk)
	fillConv(rng, x.Data(), special)
	fillConv(rng, w.Data(), special)
	patternWeights(w.Data(), pattern, outC, ckk, rng)
	fillConv(rng, bias.Data(), special)
	fillConv(rng, d.Data(), special)
	fillConv(rng, dw0.Data(), false)

	var wantOut, wantDX [batch]*Dense[E]
	wantDW := dw0.Clone()
	serialOnly(func() {
		for s := 0; s < batch; s++ {
			xs, ds := x.Sample(s), d.Sample(s).Reshape(outC, hw)
			col := Im2Col(xs, g)
			wantOut[s] = MatMul(w, col)
			od := wantOut[s].Data()
			for o := 0; o < outC; o++ {
				for i := o * hw; i < (o+1)*hw; i++ {
					od[i] += bias.Data()[o]
				}
			}
			MatMulTBInto(wantDW, ds, col, true)
			wantDX[s] = Col2Im(MatMulTA(w, ds), g)
		}
	})

	out := garbage[E](batch, outC, g.OutH, g.OutW)
	ConvForward(out, x, w, bias, g)
	out1 := garbage[E](outC, g.OutH, g.OutW)
	ConvForward(out1, x.Sample(0), w, bias, g)
	requireSameBits(t, name+": forward of one sample", out1.Data(), wantOut[0].Data())

	dx := garbage[E](batch, g.C, g.H, g.W)
	ConvInputGrad(dx, d, w, g)
	dx1 := garbage[E](g.C, g.H, g.W)
	ConvInputGrad(dx1, d.Sample(0), w, g)
	requireSameBits(t, name+": input gradient of one sample", dx1.Data(), wantDX[0].Data())

	dw := dw0.Clone()
	for s := 0; s < batch; s++ {
		requireSameBits(t, fmt.Sprintf("%s: forward of sample %d", name, s), out.Sample(s).Data(), wantOut[s].Data())
		requireSameBits(t, fmt.Sprintf("%s: input gradient of sample %d", name, s), dx.Sample(s).Data(), wantDX[s].Data())
		ConvWeightGrad(dw, d.Sample(s), x.Sample(s), g)
	}
	requireSameBits(t, name+": weight gradient", dw.Data(), wantDW.Data())
}

// TestConvKernelsRejectBadShapes: operands that do not fit the geometry
// panic instead of reading out of bounds.
func TestConvKernelsRejectBadShapes(t *testing.T) {
	g := Geom(2, 5, 6, 3, 3, 1, 1)
	x, w, bias := New(2, 5, 6), New(4, 18), New(4)
	out := New(4, 5, 6)
	for name, fn := range map[string]func(){
		"forward input":           func() { ConvForward(out, New(3, 5, 6), w, bias, g) },
		"forward weight":          func() { ConvForward(out, x, New(4, 17), bias, g) },
		"forward bias":            func() { ConvForward(out, x, w, New(3), g) },
		"forward output":          func() { ConvForward(New(2, 4, 5, 6), x, w, bias, g) },
		"weight-gradient batch":   func() { ConvWeightGrad(New(4, 18), out, New(1, 2, 5, 6), g) },
		"weight-gradient output":  func() { ConvWeightGrad(New(4, 18), New(3, 5, 6), x, g) },
		"input-gradient gradient": func() { ConvInputGrad(New(2, 2, 5, 6), out, w, g) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: mismatched shape did not panic", name)
				}
			}()
			fn()
		}()
	}
}
