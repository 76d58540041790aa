package data

import (
	"math"
	"math/rand"
	"testing"
)

func TestDigitsBasicProperties(t *testing.T) {
	d := Digits(50, 16, 16, 1)
	if d.Len() != 50 {
		t.Fatalf("Len = %d", d.Len())
	}
	if d.C != 1 || d.H != 16 || d.W != 16 || d.Classes != 10 {
		t.Fatalf("geometry: %+v", d)
	}
	for i, s := range d.Samples {
		if s.Label < 0 || s.Label >= 10 {
			t.Fatalf("sample %d label %d", i, s.Label)
		}
		if s.X.Rank() != 3 || s.X.Dim(0) != 1 || s.X.Dim(1) != 16 || s.X.Dim(2) != 16 {
			t.Fatalf("sample %d shape %v", i, s.X.Shape())
		}
		for _, v := range s.X.Data() {
			if v < 0 || v > 1 {
				t.Fatalf("sample %d pixel %v out of [0,1]", i, v)
			}
		}
	}
}

// classCounts returns a histogram of d's labels.
func classCounts(d *Dataset) []int {
	counts := make([]int, d.Classes)
	for _, s := range d.Samples {
		counts[s.Label]++
	}
	return counts
}

func TestDigitsBalancedClasses(t *testing.T) {
	d := Digits(100, 12, 12, 2)
	for c, n := range classCounts(d) {
		if n != 10 {
			t.Fatalf("class %d count %d, want 10", c, n)
		}
	}
}

func TestDigitsDeterministic(t *testing.T) {
	a := Digits(20, 14, 14, 7)
	b := Digits(20, 14, 14, 7)
	for i := range a.Samples {
		if a.Samples[i].Label != b.Samples[i].Label {
			t.Fatalf("labels differ at %d", i)
		}
		for j := range a.Samples[i].X.Data() {
			if a.Samples[i].X.Data()[j] != b.Samples[i].X.Data()[j] {
				t.Fatalf("pixels differ at sample %d", i)
			}
		}
	}
	c := Digits(20, 14, 14, 8)
	same := true
	for j := range a.Samples[0].X.Data() {
		if a.Samples[0].X.Data()[j] != c.Samples[0].X.Data()[j] {
			same = false
			break
		}
	}
	if same && a.Samples[0].Label == c.Samples[0].Label {
		t.Fatal("different seeds produced identical first sample")
	}
}

func TestDigitsHaveInk(t *testing.T) {
	// Every digit image must contain some bright stroke pixels and some
	// dark background — blank or saturated canvases indicate a renderer
	// bug.
	d := Digits(40, 20, 20, 3)
	for i, s := range d.Samples {
		var bright, dark int
		for _, v := range s.X.Data() {
			if v > 0.5 {
				bright++
			}
			if v < 0.1 {
				dark++
			}
		}
		if bright < 5 {
			t.Fatalf("sample %d (label %d): only %d bright pixels", i, s.Label, bright)
		}
		if dark < 100 {
			t.Fatalf("sample %d: only %d dark pixels", i, dark)
		}
	}
}

func TestDigitClassesAreDistinct(t *testing.T) {
	// Averages of many renders per class should differ between classes:
	// mean inter-class L2 distance well above zero.
	rng := rand.New(rand.NewSource(4))
	const h, w, per = 16, 16, 12
	means := make([][]float64, 10)
	for c := 0; c < 10; c++ {
		m := make([]float64, h*w)
		for k := 0; k < per; k++ {
			img := RenderDigit(c, h, w, rng)
			for j, v := range img.Data() {
				m[j] += v / per
			}
		}
		means[c] = m
	}
	for a := 0; a < 10; a++ {
		for b := a + 1; b < 10; b++ {
			var d2 float64
			for j := range means[a] {
				diff := means[a][j] - means[b][j]
				d2 += diff * diff
			}
			if math.Sqrt(d2) < 0.5 {
				t.Errorf("classes %d and %d have nearly identical means (L2 %.3f)", a, b, math.Sqrt(d2))
			}
		}
	}
}

func TestObjectsBasicProperties(t *testing.T) {
	d := Objects(40, 16, 16, 5)
	if d.C != 3 || d.Classes != 10 || d.Len() != 40 {
		t.Fatalf("geometry: %+v", d)
	}
	for i, s := range d.Samples {
		if s.X.Dim(0) != 3 {
			t.Fatalf("sample %d channels %d", i, s.X.Dim(0))
		}
		for _, v := range s.X.Data() {
			if v < 0 || v > 1 {
				t.Fatalf("sample %d pixel out of range", i)
			}
		}
	}
}

func TestObjectsDeterministic(t *testing.T) {
	a := Objects(10, 12, 12, 9)
	b := Objects(10, 12, 12, 9)
	for i := range a.Samples {
		for j := range a.Samples[i].X.Data() {
			if a.Samples[i].X.Data()[j] != b.Samples[i].X.Data()[j] {
				t.Fatalf("objects not deterministic at sample %d", i)
			}
		}
	}
}

func TestObjectClassesAreDistinct(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	const h, w, per = 16, 16, 10
	// Use the mask structure (channel mean) to compare classes.
	means := make([][]float64, ObjectClasses)
	for c := 0; c < ObjectClasses; c++ {
		m := make([]float64, h*w)
		for k := 0; k < per; k++ {
			img := RenderObject(c, h, w, rng)
			hw := h * w
			for j := 0; j < hw; j++ {
				// grayscale projection
				m[j] += (img.Data()[j] + img.Data()[hw+j] + img.Data()[2*hw+j]) / (3 * per)
			}
		}
		means[c] = m
	}
	distinct := 0
	for a := 0; a < ObjectClasses; a++ {
		for b := a + 1; b < ObjectClasses; b++ {
			var d2 float64
			for j := range means[a] {
				diff := means[a][j] - means[b][j]
				d2 += diff * diff
			}
			if math.Sqrt(d2) > 0.3 {
				distinct++
			}
		}
	}
	// Random colours wash out some pairs, but most should separate.
	if distinct < 25 {
		t.Fatalf("only %d of 45 class pairs distinct", distinct)
	}
}

func TestNoiseProperties(t *testing.T) {
	d := Noise(30, 3, 8, 8, 11)
	if d.Len() != 30 || d.C != 3 {
		t.Fatalf("noise geometry: %+v", d)
	}
	// Mean should be near 0.5.
	var sum, count float64
	for _, s := range d.Samples {
		for _, v := range s.X.Data() {
			if v < 0 || v > 1 {
				t.Fatal("noise pixel out of range")
			}
			sum += v
			count++
		}
	}
	if mean := sum / count; math.Abs(mean-0.5) > 0.05 {
		t.Fatalf("noise mean = %v", mean)
	}
}

func TestNaturalProperties(t *testing.T) {
	d := Natural(20, 3, 12, 12, 13)
	if d.Len() != 20 || d.C != 3 {
		t.Fatalf("natural geometry: %+v", d)
	}
	for i, s := range d.Samples {
		for _, v := range s.X.Data() {
			if v < 0 || v > 1 {
				t.Fatalf("natural sample %d out of range", i)
			}
		}
	}
	// Natural images should be smoother than noise: mean absolute
	// horizontal gradient well below the noise baseline.
	grad := func(ds *Dataset) float64 {
		var g, n float64
		for _, s := range ds.Samples {
			xd := s.X.Data()
			h, w := ds.H, ds.W
			for c := 0; c < ds.C; c++ {
				for i := 0; i < h; i++ {
					for j := 0; j+1 < w; j++ {
						g += math.Abs(xd[(c*h+i)*w+j+1] - xd[(c*h+i)*w+j])
						n++
					}
				}
			}
		}
		return g / n
	}
	noise := Noise(20, 3, 12, 12, 14)
	if gn, gz := grad(d), grad(noise); gn >= gz {
		t.Fatalf("natural images (grad %.3f) should be smoother than noise (grad %.3f)", gn, gz)
	}
}

func TestSplitAndSubset(t *testing.T) {
	d := Digits(30, 8, 8, 15)
	train, test := d.Split(20)
	if train.Len() != 20 || test.Len() != 10 {
		t.Fatalf("split sizes %d/%d", train.Len(), test.Len())
	}
	sub := d.Subset(5)
	if sub.Len() != 5 {
		t.Fatalf("subset size %d", sub.Len())
	}
	if d.Subset(100).Len() != 30 {
		t.Fatal("oversized subset should clamp")
	}
}

func TestSplitOutOfRangePanics(t *testing.T) {
	d := Digits(5, 8, 8, 16)
	defer func() {
		if recover() == nil {
			t.Fatal("bad split did not panic")
		}
	}()
	d.Split(6)
}

func TestShuffleKeepsMultiset(t *testing.T) {
	d := Digits(40, 8, 8, 17)
	before := classCounts(d)
	d.Shuffle(rand.New(rand.NewSource(1)))
	after := classCounts(d)
	for i := range before {
		if before[i] != after[i] {
			t.Fatal("shuffle changed class histogram")
		}
	}
}

func TestAffineInvertRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for trial := 0; trial < 20; trial++ {
		tr := jitterAffine(0.3, 0.7, 1.3, 0.15, 0.1, rng)
		inv := tr.invert()
		x, y := rng.Float64(), rng.Float64()
		fx, fy := tr.apply(x, y)
		bx, by := inv.apply(fx, fy)
		if math.Abs(bx-x) > 1e-9 || math.Abs(by-y) > 1e-9 {
			t.Fatalf("affine round trip failed: (%v,%v) -> (%v,%v)", x, y, bx, by)
		}
	}
}

func TestDistSegment(t *testing.T) {
	s := segment{0, 0, 1, 0}
	cases := []struct{ px, py, want float64 }{
		{0.5, 0.5, 0.5},
		{0, 1, 1},
		{-1, 0, 1},
		{2, 0, 1},
		{0.25, 0, 0},
	}
	for _, c := range cases {
		if got := distSegment(c.px, c.py, s); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("distSegment(%v,%v) = %v, want %v", c.px, c.py, got, c.want)
		}
	}
	// degenerate segment
	p := segment{1, 1, 1, 1}
	if got := distSegment(0, 1, p); math.Abs(got-1) > 1e-12 {
		t.Errorf("point-segment distance = %v, want 1", got)
	}
}

func TestSmoothstep(t *testing.T) {
	if smoothstep(0, 0.1, 0.1) != 1 {
		t.Error("inside should be 1")
	}
	if smoothstep(0.3, 0.1, 0.1) != 0 {
		t.Error("outside should be 0")
	}
	mid := smoothstep(0.15, 0.1, 0.1)
	if mid <= 0 || mid >= 1 {
		t.Errorf("ramp value %v not in (0,1)", mid)
	}
}
