package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestGeomOutputSizes(t *testing.T) {
	cases := []struct {
		h, w, k, s, p int
		wantH, wantW  int
	}{
		{28, 28, 3, 1, 0, 26, 26},
		{28, 28, 3, 1, 1, 28, 28},
		{32, 32, 2, 2, 0, 16, 16},
		{5, 7, 3, 2, 1, 3, 4},
	}
	for _, c := range cases {
		g := Geom(1, c.h, c.w, c.k, c.k, c.s, c.p)
		if g.OutH != c.wantH || g.OutW != c.wantW {
			t.Errorf("Geom(%dx%d k=%d s=%d p=%d) = %dx%d, want %dx%d",
				c.h, c.w, c.k, c.s, c.p, g.OutH, g.OutW, c.wantH, c.wantW)
		}
	}
}

func TestGeomBadStridePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero stride did not panic")
		}
	}()
	Geom(1, 4, 4, 2, 2, 0, 0)
}

func TestGeomWindowTooBigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("oversized window did not panic")
		}
	}()
	Geom(1, 2, 2, 5, 5, 1, 0)
}

func TestIm2ColHandChecked(t *testing.T) {
	// 1 channel 3x3 input, 2x2 kernel, stride 1, no pad → 4 windows.
	x := FromSlice([]float64{
		1, 2, 3,
		4, 5, 6,
		7, 8, 9,
	}, 1, 3, 3)
	g := Geom(1, 3, 3, 2, 2, 1, 0)
	col := Im2Col(x, g)
	if col.Dim(0) != 4 || col.Dim(1) != 4 {
		t.Fatalf("col shape %v, want [4 4]", col.Shape())
	}
	// Rows are kernel positions (k00,k01,k10,k11); columns are windows in
	// row-major output order: (0,0),(0,1),(1,0),(1,1).
	want := [][]float64{
		{1, 2, 4, 5}, // top-left of each window
		{2, 3, 5, 6},
		{4, 5, 7, 8},
		{5, 6, 8, 9},
	}
	for i := range want {
		for j := range want[i] {
			if got := col.At(i, j); got != want[i][j] {
				t.Fatalf("col[%d,%d] = %v, want %v", i, j, got, want[i][j])
			}
		}
	}
}

func TestIm2ColPaddingZeros(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3, 4}, 1, 2, 2)
	g := Geom(1, 2, 2, 3, 3, 1, 1)
	col := Im2Col(x, g)
	// Window centred at (0,0): kernel position (0,0) maps to x[-1,-1] = 0.
	if col.At(0, 0) != 0 {
		t.Fatal("padding position should be zero")
	}
	// kernel position (1,1) of window (0,0) maps to x[0,0] = 1.
	if col.At(4, 0) != 1 {
		t.Fatalf("centre of first window = %v, want 1", col.At(4, 0))
	}
}

func TestConvViaIm2ColMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const c, h, w, oc, k, stride, pad = 2, 6, 5, 3, 3, 1, 1
	x := New(c, h, w)
	x.FillNormal(rng, 0, 1)
	weight := New(oc, c*k*k)
	weight.FillNormal(rng, 0, 1)
	g := Geom(c, h, w, k, k, stride, pad)

	col := Im2Col(x, g)
	out := MatMul(weight, col) // [oc, OutH*OutW]

	// direct convolution
	for o := 0; o < oc; o++ {
		for oi := 0; oi < g.OutH; oi++ {
			for oj := 0; oj < g.OutW; oj++ {
				s := 0.0
				for cc := 0; cc < c; cc++ {
					for ki := 0; ki < k; ki++ {
						for kj := 0; kj < k; kj++ {
							ii, jj := oi*stride+ki-pad, oj*stride+kj-pad
							if ii < 0 || ii >= h || jj < 0 || jj >= w {
								continue
							}
							s += x.At(cc, ii, jj) * weight.At(o, (cc*k+ki)*k+kj)
						}
					}
				}
				if got := out.At(o, oi*g.OutW+oj); math.Abs(got-s) > 1e-12 {
					t.Fatalf("conv mismatch at (%d,%d,%d): im2col %v, direct %v", o, oi, oj, got, s)
				}
			}
		}
	}
}

func TestCol2ImIsAdjointOfIm2Col(t *testing.T) {
	// <Im2Col(x), y> == <x, Col2Im(y)> for all x, y — the defining property
	// of the adjoint, which is exactly what backprop requires.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := 1 + rng.Intn(3)
		h := 3 + rng.Intn(5)
		w := 3 + rng.Intn(5)
		k := 1 + rng.Intn(3)
		stride := 1 + rng.Intn(2)
		pad := rng.Intn(2)
		if h+2*pad < k || w+2*pad < k {
			return true
		}
		g := Geom(c, h, w, k, k, stride, pad)
		x := New(c, h, w)
		x.FillNormal(rng, 0, 1)
		y := New(c*k*k, g.OutH*g.OutW)
		y.FillNormal(rng, 0, 1)

		colX := Im2Col(x, g)
		imY := Col2Im(y, g)
		var left, right float64
		for i := range colX.Data() {
			left += colX.Data()[i] * y.Data()[i]
		}
		for i := range x.Data() {
			right += x.Data()[i] * imY.Data()[i]
		}
		return math.Abs(left-right) <= 1e-9*(1+math.Abs(left))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestIm2ColShapeMismatchPanics(t *testing.T) {
	g := Geom(2, 4, 4, 2, 2, 1, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("Im2Col shape mismatch did not panic")
		}
	}()
	Im2Col(New(1, 4, 4), g)
}

func TestCol2ImShapeMismatchPanics(t *testing.T) {
	g := Geom(2, 4, 4, 2, 2, 1, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("Col2Im shape mismatch did not panic")
		}
	}()
	Col2Im(New(3, 3), g)
}

func BenchmarkIm2Col28x28(b *testing.B) {
	x := New(1, 28, 28)
	g := Geom(1, 28, 28, 3, 3, 1, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Im2Col(x, g)
	}
}

func BenchmarkMatMul64(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	a, c := New(64, 64), New(64, 64)
	a.FillNormal(rng, 0, 1)
	c.FillNormal(rng, 0, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMul(a, c)
	}
}
