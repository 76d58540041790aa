package coverage

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/bitset"
	"repro/internal/data"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// reluNet builds fc(2→2) → ReLU → fc(2→2) with hand-set weights so the
// activation pattern is fully predictable.
func reluNet(w1, b1, w2, b2 []float64) *nn.Network {
	d1 := nn.NewDense("fc1", 2, 2)
	copy(d1.Weight.W.Data(), w1)
	copy(d1.Bias.W.Data(), b1)
	d2 := nn.NewDense("fc2", 2, 2)
	copy(d2.Weight.W.Data(), w2)
	copy(d2.Bias.W.Data(), b2)
	return nn.NewNetwork(d1, nn.NewActivate("relu", nn.ReLU), d2)
}

func TestParamActivationHandChecked(t *testing.T) {
	// fc1 = identity, fc2 = all-ones. Input (1, -1): hidden pre-act is
	// (1,-1); ReLU kills unit 1. Flat parameter order:
	//   0..3  fc1.W (w00,w01,w10,w11)
	//   4..5  fc1.b
	//   6..9  fc2.W
	//   10..11 fc2.b
	net := reluNet(
		[]float64{1, 0, 0, 1}, []float64{0, 0},
		[]float64{1, 1, 1, 1}, []float64{0, 0},
	)
	x := tensor.FromSlice([]float64{1, -1}, 2)
	set := ParamActivation(net, x, Config{})

	// δ(hidden) = ReLU'(pre) * Wᵀ2 · ones = (2, 0): unit 1 dead.
	// fc1.W grads: row 0 = δ0·x = (2,-2) → activated; row 1 = 0.
	want := map[int]bool{
		0: true, 1: true, // fc1.W row 0
		2: false, 3: false, // fc1.W row 1 (dead unit)
		4: true, 5: false, // fc1.b
		6: true, 7: false, // fc2.W col for dead unit has h=0 → w01 grad = h1 = 0
		8: true, 9: false,
		10: true, 11: true, // output biases always activated
	}
	for i, w := range want {
		if set.Get(i) != w {
			t.Errorf("param %d (%s): activated=%v, want %v", i, net.ParamName(i), set.Get(i), w)
		}
	}
}

func TestParamActivationZeroInput(t *testing.T) {
	// Zero input: first-layer weight gradients are δ·x = 0, so none of
	// fc1.W is activated, but biases still are (if their unit fires).
	net := reluNet(
		[]float64{1, 0, 0, 1}, []float64{1, 1}, // positive biases keep units alive
		[]float64{1, 1, 1, 1}, []float64{0, 0},
	)
	x := tensor.FromSlice([]float64{0, 0}, 2)
	set := ParamActivation(net, x, Config{})
	for i := 0; i < 4; i++ {
		if set.Get(i) {
			t.Errorf("fc1.W[%d] activated by zero input", i)
		}
	}
	if !set.Get(4) || !set.Get(5) {
		t.Error("fc1 biases should be activated (units alive)")
	}
}

func TestParamActivationMatchesNumericPerturbation(t *testing.T) {
	// Ground truth by definition: θ is activated iff perturbing it moves
	// some output. Compare the gradient-based set against central
	// differences on Σ logits for a random tiny ReLU CNN.
	rng := rand.New(rand.NewSource(3))
	net := models.Tiny(nn.ReLU, 1, 6, 6, 2, 3, 31)
	x := tensor.New(1, 6, 6)
	x.FillNormal(rng, 0.5, 0.3)
	x.Clamp(0, 1)

	set := ParamActivation(net, x, Config{})
	const h = 1e-5
	for i := 0; i < net.NumParams(); i++ {
		orig := net.ParamAt(i)
		net.SetParamAt(i, orig+h)
		up := net.Forward(x).Sum()
		net.SetParamAt(i, orig-h)
		down := net.Forward(x).Sum()
		net.SetParamAt(i, orig)
		numGrad := (up - down) / (2 * h)
		wantActive := math.Abs(numGrad) > 1e-7
		if set.Get(i) != wantActive {
			// Tolerate kink-straddling disagreements only when the
			// numeric gradient is tiny.
			if math.Abs(numGrad) > 1e-4 {
				t.Errorf("param %d (%s): set=%v but numeric grad %.3g", i, net.ParamName(i), set.Get(i), numGrad)
			}
		}
	}
}

func TestReLUPartialActivation(t *testing.T) {
	// The phenomenon the paper builds on: a single input activates only
	// part of a trained-size ReLU network's parameters.
	net := models.Small(nn.ReLU, 1, 12, 12, 4, 8, 16, 10, 32)
	ds := data.Digits(5, 12, 12, 33)
	for i, s := range ds.Samples {
		set := ParamActivation(net, s.X, Config{})
		frac := set.Fraction()
		if frac <= 0.05 || frac >= 0.999 {
			t.Errorf("sample %d: activation fraction %.3f, want strictly partial", i, frac)
		}
	}
}

func TestTanhNeedsEpsilon(t *testing.T) {
	net := models.Tiny(nn.Tanh, 1, 8, 8, 3, 10, 34)
	ds := data.Digits(1, 8, 8, 35)
	x := ds.Samples[0].X
	exact := ParamActivation(net, x, Config{})
	// Tanh gradients are almost never exactly zero...
	if exact.Fraction() < 0.99 {
		t.Fatalf("tanh exact-nonzero coverage %.3f, expected ≈1", exact.Fraction())
	}
	// ...so a relative ε must prune the near-saturated ones.
	rel := ParamActivation(net, x, Config{Epsilon: 1e-2, Relative: true})
	if rel.Fraction() >= exact.Fraction() {
		t.Fatalf("relative ε did not reduce coverage: %.3f vs %.3f", rel.Fraction(), exact.Fraction())
	}
}

func TestDefaultConfigPicksByActivation(t *testing.T) {
	relu := models.Tiny(nn.ReLU, 1, 8, 8, 2, 10, 36)
	tanh := models.Tiny(nn.Tanh, 1, 8, 8, 2, 10, 36)
	if cfg := DefaultConfig(relu); cfg.Epsilon != 0 || cfg.Relative {
		t.Fatalf("ReLU default config = %+v", cfg)
	}
	if cfg := DefaultConfig(tanh); cfg.Epsilon == 0 || !cfg.Relative {
		t.Fatalf("Tanh default config = %+v", cfg)
	}
}

func TestAccumulatorGainAndMonotonicity(t *testing.T) {
	net := models.Tiny(nn.ReLU, 1, 8, 8, 2, 10, 37)
	ds := data.Digits(10, 8, 8, 38)
	sets := ParamSets(net, ds, Config{})
	acc := NewAccumulator(net.NumParams())
	prev := 0
	for i, s := range sets {
		gain := acc.Gain(s)
		added := acc.Add(s)
		if gain != added {
			t.Fatalf("sample %d: Gain %d != Add %d", i, gain, added)
		}
		if acc.Covered() < prev {
			t.Fatalf("coverage decreased at %d", i)
		}
		if acc.Covered() != prev+added {
			t.Fatalf("covered count inconsistent at %d", i)
		}
		prev = acc.Covered()
	}
	// Re-adding everything gains nothing.
	for _, s := range sets {
		if acc.Add(s) != 0 {
			t.Fatal("re-adding a set should gain 0")
		}
	}
}

func TestVCUnionBound(t *testing.T) {
	// VC of a set of tests is at least the max individual VC and at most
	// their sum (union bound) — and matches the accumulator.
	net := models.Tiny(nn.ReLU, 1, 8, 8, 3, 10, 39)
	ds := data.Digits(6, 8, 8, 40)
	var tests []*tensor.Tensor
	var maxIndividual, sum float64
	for _, s := range ds.Samples {
		tests = append(tests, s.X)
		f := ParamActivation(net, s.X, Config{}).Fraction()
		if f > maxIndividual {
			maxIndividual = f
		}
		sum += f
	}
	vc := VC(net, tests, Config{})
	if vc < maxIndividual-1e-12 {
		t.Fatalf("VC %.4f below max individual %.4f", vc, maxIndividual)
	}
	if vc > sum+1e-12 {
		t.Fatalf("VC %.4f above union bound %.4f", vc, sum)
	}
}

func TestPerParamSumsToTotal(t *testing.T) {
	net := models.Tiny(nn.ReLU, 1, 8, 8, 2, 10, 41)
	ds := data.Digits(3, 8, 8, 42)
	acc := NewAccumulator(net.NumParams())
	for _, s := range ds.Samples {
		acc.Add(ParamActivation(net, s.X, Config{}))
	}
	per := PerParam(net, acc.Set())
	var covered, total int
	for _, lc := range per {
		covered += lc.Covered
		total += lc.Total
		if lc.Covered > lc.Total {
			t.Fatalf("%s: covered %d > total %d", lc.Name, lc.Covered, lc.Total)
		}
	}
	if covered != acc.Covered() || total != net.NumParams() {
		t.Fatalf("PerParam sums %d/%d, want %d/%d", covered, total, acc.Covered(), net.NumParams())
	}
	if per[0].Name != "conv1.W" {
		t.Fatalf("first param %q", per[0].Name)
	}
}

func TestPerParamLengthMismatchPanics(t *testing.T) {
	net := models.Tiny(nn.ReLU, 1, 8, 8, 2, 10, 43)
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch did not panic")
		}
	}()
	PerParam(net, bitset.New(3))
}

func TestLayerCoverageString(t *testing.T) {
	lc := LayerCoverage{Name: "conv1.W", Covered: 5, Total: 10}
	if lc.Fraction() != 0.5 {
		t.Fatalf("Fraction = %v", lc.Fraction())
	}
	if got := lc.String(); got != "conv1.W: 5/10 (50.0%)" {
		t.Fatalf("String = %q", got)
	}
	if (LayerCoverage{}).Fraction() != 0 {
		t.Fatal("empty layer coverage should be 0")
	}
}

func TestNumNeurons(t *testing.T) {
	// Tiny: conv(2ch, 8×8 pad 1) → ReLU (2*8*8=128 neurons) → pool → fc.
	net := models.Tiny(nn.ReLU, 1, 8, 8, 2, 10, 44)
	if got := NumNeurons(net, []int{1, 8, 8}); got != 128 {
		t.Fatalf("NumNeurons = %d, want 128", got)
	}
	// Small has three activation layers.
	sm := models.Small(nn.ReLU, 1, 8, 8, 2, 3, 4, 10, 45)
	want := 2*8*8 + 3*4*4 + 4
	if got := NumNeurons(sm, []int{1, 8, 8}); got != want {
		t.Fatalf("NumNeurons(small) = %d, want %d", got, want)
	}
}

func TestNeuronActivationThreshold(t *testing.T) {
	net := models.Tiny(nn.ReLU, 1, 8, 8, 2, 10, 46)
	ds := data.Digits(1, 8, 8, 47)
	x := ds.Samples[0].X
	loose := NeuronActivation(net, x, NeuronConfig{Threshold: 0})
	tight := NeuronActivation(net, x, NeuronConfig{Threshold: 0.5})
	if tight.Count() > loose.Count() {
		t.Fatal("higher threshold cannot fire more neurons")
	}
	if loose.Len() != 128 {
		t.Fatalf("neuron set length %d, want 128", loose.Len())
	}
}

func TestNeuronCoverageVsParamCoverage(t *testing.T) {
	// The paper's motivating observation: neuron coverage saturates with
	// far fewer tests than parameter coverage. With a handful of tests,
	// neuron coverage should exceed parameter coverage on a ReLU net.
	net := models.Small(nn.ReLU, 1, 12, 12, 4, 8, 16, 10, 48)
	ds := data.Digits(10, 12, 12, 49)
	var tests []*tensor.Tensor
	for _, s := range ds.Samples {
		tests = append(tests, s.X)
	}
	neurons := NewAccumulator(NumNeurons(net, []int{1, 12, 12}))
	for _, x := range tests {
		neurons.Add(NeuronActivation(net, x, NeuronConfig{}))
	}
	nc := neurons.Coverage()
	pc := VC(net, tests, Config{})
	if nc <= pc {
		t.Fatalf("neuron coverage %.3f should exceed parameter coverage %.3f", nc, pc)
	}
}

func TestNeuronActivationSaturatingUsesAbs(t *testing.T) {
	net := models.Tiny(nn.Tanh, 1, 8, 8, 2, 10, 50)
	ds := data.Digits(1, 8, 8, 51)
	set := NeuronActivation(net, ds.Samples[0].X, NeuronConfig{Threshold: 0.05})
	// Tanh outputs are dense in (-1,1): some neurons must fire through
	// the absolute-value test even with a positive threshold.
	if set.Count() == 0 {
		t.Fatal("no tanh neurons fired; |out| test broken?")
	}
}
