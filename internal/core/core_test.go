package core

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/coverage"
	"repro/internal/data"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/tensor"
	"repro/internal/train"
)

// trainedDigitsNet returns a small CNN trained on procedural digits,
// cached across tests (training dominates this package's test time).
var trainedDigitsNet = sync.OnceValue(func() *nn.Network {
	net := models.Small(nn.ReLU, 1, 12, 12, 6, 12, 24, 10, 101)
	ds := data.Digits(200, 12, 12, 102)
	if _, err := train.Fit(net, ds, train.Config{
		Epochs: 5, BatchSize: 16, Optimizer: train.NewAdam(0.003), Seed: 1,
	}); err != nil {
		panic(err)
	}
	return net
})

func digitsTrainSet() *data.Dataset { return data.Digits(80, 12, 12, 103) }

func TestOptionsValidation(t *testing.T) {
	net := trainedDigitsNet()
	ds := digitsTrainSet()
	if _, err := SelectFromTraining(net, ds, Options{MaxTests: 0}); err == nil {
		t.Error("MaxTests=0 accepted by SelectFromTraining")
	}
	if _, err := GradientGenerate(net, []int{1, 12, 12}, 0, DefaultOptions(5)); err == nil {
		t.Error("classes=0 accepted by GradientGenerate")
	}
	if _, err := Combined(net, &data.Dataset{Classes: 10}, DefaultOptions(5)); err == nil {
		t.Error("empty training set accepted by Combined")
	}
	if _, err := RandomSelect(net, &data.Dataset{}, DefaultOptions(5)); err == nil {
		t.Error("empty training set accepted by RandomSelect")
	}
	if _, err := NeuronFuzz(net, &data.Dataset{}, coverage.NeuronConfig{}, DefaultMutationConfig(), DefaultOptions(5)); err == nil {
		t.Error("empty training set accepted by NeuronFuzz")
	}
}

// TestGeneratorsRejectShapeMismatch: every generator answers a pool or
// synthesis shape the network does not take with an error, before any
// worker runs: a layer's shape panic inside a worker goroutine would
// end the process, past any recover of the caller's.
func TestGeneratorsRejectShapeMismatch(t *testing.T) {
	net := trainedDigitsNet() // takes [1 12 12]
	pool := data.Objects(8, 20, 20, 1)
	stray := digitsTrainSet()
	stray.Samples[3].X = tensor.New(1, 12, 13)
	opts := DefaultOptions(4)
	for _, c := range []struct {
		name string
		gen  func() (*Result, error)
	}{
		{"Combined", func() (*Result, error) { return Combined(net, pool, opts) }},
		{"Combined/stray sample", func() (*Result, error) { return Combined(net, stray, opts) }},
		{"SelectFromTraining", func() (*Result, error) { return SelectFromTraining(net, pool, opts) }},
		{"RandomSelect", func() (*Result, error) { return RandomSelect(net, pool, opts) }},
		{"NeuronFuzz", func() (*Result, error) {
			return NeuronFuzz(net, pool, coverage.NeuronConfig{}, DefaultMutationConfig(), opts)
		}},
		{"GradientGenerate", func() (*Result, error) { return GradientGenerate(net, []int{3, 20, 20}, 10, opts) }},
		{"SynthesisFrom", func() (*Result, error) { return SynthesisFrom(net, []int{12, 12}, 10, opts, nil) }},
	} {
		if _, err := c.gen(); err == nil {
			t.Errorf("%s accepted inputs the network does not take", c.name)
		}
	}
}

// TestCombinedRejectsZeroClasses: a pool that declares no classes is an
// error. Without the check, a probe's gain per synthetic test is 0/0,
// so the switch fires and the tail synthesises zero inputs a round,
// forever.
func TestCombinedRejectsZeroClasses(t *testing.T) {
	pool := data.Digits(3, 12, 12, 7)
	pool.Classes = 0
	if _, err := Combined(trainedDigitsNet(), pool, DefaultOptions(6)); err == nil {
		t.Fatal("Combined accepted a pool of zero classes")
	}
}

func TestSelectGreedyFirstPickIsBestSingle(t *testing.T) {
	net := trainedDigitsNet()
	ds := digitsTrainSet()
	opts := DefaultOptions(1)
	res, err := SelectFromTraining(net, ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tests) != 1 {
		t.Fatalf("%d tests, want 1", len(res.Tests))
	}
	// No single training sample may beat the greedy first pick.
	best := res.Curve[0]
	for i, s := range ds.Samples {
		f := coverage.ParamActivation(net, s.X, opts.Coverage).Fraction()
		if f > best+1e-12 {
			t.Fatalf("sample %d coverage %.4f beats greedy first pick %.4f", i, f, best)
		}
	}
}

func TestSelectCurveMonotone(t *testing.T) {
	net := trainedDigitsNet()
	res, err := SelectFromTraining(net, digitsTrainSet(), DefaultOptions(15))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tests) != 15 {
		t.Fatalf("%d tests, want 15", len(res.Tests))
	}
	for i := 1; i < len(res.Curve); i++ {
		if res.Curve[i] < res.Curve[i-1]-1e-12 {
			t.Fatalf("coverage decreased at %d: %v -> %v", i, res.Curve[i-1], res.Curve[i])
		}
	}
	// Greedy gains must be non-increasing (submodularity of union).
	prevGain := res.Curve[0]
	for i := 1; i < len(res.Curve); i++ {
		gain := res.Curve[i] - res.Curve[i-1]
		if gain > prevGain+1e-9 {
			t.Fatalf("greedy gain increased at %d: %v after %v", i, gain, prevGain)
		}
		prevGain = gain
	}
}

func TestSelectBeatsRandomSelection(t *testing.T) {
	net := trainedDigitsNet()
	ds := digitsTrainSet()
	sel, err := SelectFromTraining(net, ds, DefaultOptions(10))
	if err != nil {
		t.Fatal(err)
	}
	rnd, err := RandomSelect(net, ds, DefaultOptions(10))
	if err != nil {
		t.Fatal(err)
	}
	if sel.FinalCoverage() < rnd.FinalCoverage() {
		t.Fatalf("greedy %.4f below random %.4f", sel.FinalCoverage(), rnd.FinalCoverage())
	}
}

func TestSelectStopOnZeroGain(t *testing.T) {
	net := trainedDigitsNet()
	ds := digitsTrainSet()
	opts := DefaultOptions(ds.Len())
	opts.StopOnZeroGain = true
	res, err := SelectFromTraining(net, ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tests) >= ds.Len() {
		t.Skip("training set never saturated; nothing to test")
	}
	// The run stopped because gains hit zero: the full-set coverage must
	// equal what the truncated run achieved.
	full, err := SelectFromTraining(net, ds, DefaultOptions(ds.Len()))
	if err != nil {
		t.Fatal(err)
	}
	if full.FinalCoverage() != res.FinalCoverage() {
		t.Fatalf("early stop lost coverage: %.6f vs %.6f", res.FinalCoverage(), full.FinalCoverage())
	}
}

func TestSelectExhaustsSmallTrainingSet(t *testing.T) {
	net := trainedDigitsNet()
	small := digitsTrainSet().Subset(5)
	res, err := SelectFromTraining(net, small, DefaultOptions(10))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tests) != 5 {
		t.Fatalf("selected %d from a 5-sample set", len(res.Tests))
	}
}

func TestGradientGenerateBasics(t *testing.T) {
	net := trainedDigitsNet()
	opts := DefaultOptions(12)
	opts.Steps = 15
	res, err := GradientGenerate(net, []int{1, 12, 12}, 10, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tests) != 12 {
		t.Fatalf("%d tests, want 12", len(res.Tests))
	}
	// Labels cycle through classes per round.
	for i, l := range res.Labels {
		if l != i%10 {
			t.Fatalf("label[%d] = %d, want %d", i, l, i%10)
		}
	}
	for i, src := range res.Sources {
		if src != FromSynthesis {
			t.Fatalf("source[%d] = %v", i, src)
		}
	}
	// Synthesised inputs stay in the image domain.
	for i, x := range res.Tests {
		for _, v := range x.Data() {
			if v < 0 || v > 1 {
				t.Fatalf("test %d pixel %v outside [0,1]", i, v)
			}
		}
	}
	for i := 1; i < len(res.Curve); i++ {
		if res.Curve[i] < res.Curve[i-1]-1e-12 {
			t.Fatalf("coverage decreased at %d", i)
		}
	}
}

func TestSynthesizedSamplesClassifyAsTarget(t *testing.T) {
	// On the full trained network, Algorithm 2's samples should mostly
	// be classified as their target class — they are synthetic training
	// samples (paper Fig. 4).
	net := trainedDigitsNet()
	opts := DefaultOptions(10)
	opts.Steps = 40
	rng := rand.New(rand.NewSource(5))
	hits := 0
	for c := 0; c < 10; c++ {
		x := Synthesize(net, []int{1, 12, 12}, c, opts, rng)
		if net.Predict(x) == c {
			hits++
		}
	}
	if hits < 7 {
		t.Fatalf("only %d/10 synthetic samples classified as target", hits)
	}
}

func TestGradientGenerateCoverageGrowsAcrossRounds(t *testing.T) {
	net := trainedDigitsNet()
	opts := DefaultOptions(30)
	opts.Steps = 15
	res, err := GradientGenerate(net, []int{1, 12, 12}, 10, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Round 2 and 3 (residual-driven) must add coverage beyond round 1:
	// the residual retargeting is what keeps Algorithm 2 from stalling.
	if res.Curve[29] <= res.Curve[9] {
		t.Fatalf("no coverage growth after round 1: %.4f -> %.4f", res.Curve[9], res.Curve[29])
	}
}

func TestGradientInitModesDiffer(t *testing.T) {
	net := trainedDigitsNet()
	optsZ := DefaultOptions(5)
	optsZ.Steps = 10
	optsG := optsZ
	optsG.Init = GaussianInit
	optsG.Seed = 9
	rz, err := GradientGenerate(net, []int{1, 12, 12}, 10, optsZ)
	if err != nil {
		t.Fatal(err)
	}
	rg, err := GradientGenerate(net, []int{1, 12, 12}, 10, optsG)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range rz.Tests[0].Data() {
		if rz.Tests[0].Data()[i] != rg.Tests[0].Data()[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("zero and Gaussian init produced identical samples")
	}
}

func TestCombinedSwitchesAndDominates(t *testing.T) {
	net := trainedDigitsNet()
	ds := digitsTrainSet()
	opts := DefaultOptions(25)
	opts.Steps = 15
	comb, err := Combined(net, ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(comb.Tests) != 25 {
		t.Fatalf("%d tests, want 25", len(comb.Tests))
	}
	if comb.SwitchPoint < 0 {
		t.Fatal("combined never switched to Algorithm 2 within 25 tests")
	}
	// Provenance must match the switch point.
	for i, src := range comb.Sources {
		wantSynth := i >= comb.SwitchPoint
		if (src == FromSynthesis) != wantSynth {
			t.Fatalf("source[%d] = %v with switch at %d", i, src, comb.SwitchPoint)
		}
	}
	// The combined method should at least match pure training-set
	// selection at the same budget (the paper's Fig. 3 claim).
	sel, err := SelectFromTraining(net, ds, DefaultOptions(25))
	if err != nil {
		t.Fatal(err)
	}
	if comb.FinalCoverage() < sel.FinalCoverage()-0.01 {
		t.Fatalf("combined %.4f well below select %.4f", comb.FinalCoverage(), sel.FinalCoverage())
	}
}

func TestCombinedSmallBudgetMayNeverSwitch(t *testing.T) {
	net := trainedDigitsNet()
	ds := digitsTrainSet()
	opts := DefaultOptions(2)
	opts.Steps = 10
	res, err := Combined(net, ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tests) != 2 {
		t.Fatalf("%d tests, want 2", len(res.Tests))
	}
	// With such a small budget the early training samples dominate, so
	// the result should be pure Algorithm 1.
	if res.SwitchPoint == 0 {
		t.Fatal("switched to synthesis before any training sample; switch criterion broken")
	}
}

func TestRandomSelectDeterministicPerSeed(t *testing.T) {
	net := trainedDigitsNet()
	ds := digitsTrainSet()
	a, err := RandomSelect(net, ds, DefaultOptions(5))
	if err != nil {
		t.Fatal(err)
	}
	b, err := RandomSelect(net, ds, DefaultOptions(5))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Labels {
		if a.Labels[i] != b.Labels[i] {
			t.Fatal("same seed gave different random selections")
		}
	}
}

func TestNeuronFuzzParamCoverageBelowCombined(t *testing.T) {
	// The paper's core claim (Tables II/III): at equal budget, neuron
	// coverage suites cover fewer parameters than the proposed method.
	net := trainedDigitsNet()
	ds := digitsTrainSet()
	opts := DefaultOptions(15)
	opts.Steps = 15
	comb, err := Combined(net, ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	neu, err := NeuronFuzz(net, ds, coverage.NeuronConfig{}, DefaultMutationConfig(), DefaultOptions(15))
	if err != nil {
		t.Fatal(err)
	}
	if neu.FinalCoverage() > comb.FinalCoverage()+1e-9 {
		t.Fatalf("neuron-fuzz param coverage %.4f exceeds combined %.4f", neu.FinalCoverage(), comb.FinalCoverage())
	}
}

func TestSourceString(t *testing.T) {
	if FromTraining.String() != "training" || FromSynthesis.String() != "synthetic" {
		t.Fatal("Source.String mismatch")
	}
}

func TestFinalCoverageEmpty(t *testing.T) {
	if (&Result{}).FinalCoverage() != 0 {
		t.Fatal("empty result coverage should be 0")
	}
}

func TestResidualNetZeroesCoveredParams(t *testing.T) {
	net := trainedDigitsNet()
	ds := digitsTrainSet()
	set := coverage.ParamActivation(net, ds.Samples[0].X, coverage.Config{})
	res := residualNet(net, set)
	for i := 0; i < net.NumParams(); i++ {
		if set.Get(i) {
			if res.ParamAt(i) != 0 {
				t.Fatalf("covered param %d not zeroed", i)
			}
		} else if res.ParamAt(i) != net.ParamAt(i) {
			t.Fatalf("uncovered param %d changed", i)
		}
	}
	// The original network must be untouched.
	if net.NumParams() != res.NumParams() {
		t.Fatal("architecture mismatch")
	}
}

// TestCombinedExtractsTailOnce counts the extraction passes of a
// Combined run that switches to synthesis with a tail to fill: one per
// probe that runs (those the bound leaves, and the switching probe) and
// one per tail round, so each synthetic test is extracted exactly once.
func TestCombinedExtractsTailOnce(t *testing.T) {
	net := trainedDigitsNet()
	ds := digitsTrainSet()
	opts := DefaultOptions(25)
	opts.Steps = 15
	passes, extracted := 0, map[*tensor.Tensor]int{}
	testHookExtract = func(xs []*tensor.Tensor) {
		passes++
		for _, x := range xs {
			extracted[x]++
		}
	}
	defer func() { testHookExtract = nil }()
	res, err := Combined(net, ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	tail := len(res.Tests) - res.SwitchPoint - ds.Classes
	if res.SwitchPoint < 0 || tail <= 0 {
		t.Fatalf("switch at %d of %d tests leaves no synthesis tail to check", res.SwitchPoint, len(res.Tests))
	}
	ran, _, tailRounds := probeCounts(t, res, net.NumParams(), ds.Classes)
	if want := ran + tailRounds; passes != want {
		t.Fatalf("%d extraction passes, want %d (%d probes, then %d tail rounds)", passes, want, ran, tailRounds)
	}
	for i := res.SwitchPoint; i < len(res.Tests); i++ {
		if n := extracted[res.Tests[i]]; n != 1 {
			t.Fatalf("synthetic test %d extracted %d times", i, n)
		}
	}
}
