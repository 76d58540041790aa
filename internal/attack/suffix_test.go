package attack

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"repro/internal/data"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/quant"
	"repro/internal/tensor"
	"repro/internal/train"
)

// These tests pin QuantEvade's suffix checks and GDA's one forward per
// step against the full-forward versions they replaced. The old
// functions are kept verbatim below as the reference (only the lint
// directive on the doubling step is dropped: test files are not
// linted).

// refQuantEvade is QuantEvade with a full forward pass per probe per
// check.
func refQuantEvade(net *nn.Network, cfg QuantEvadeConfig, rng *rand.Rand) (*Perturbation, error) {
	if len(cfg.Probes) == 0 {
		return nil, fmt.Errorf("attack: QuantEvade needs at least one probe input")
	}
	scale, err := quant.Scale(cfg.Decimals)
	if err != nil {
		return nil, err
	}
	headroom := cfg.Headroom
	if headroom == 0 {
		headroom = 0.5
	}
	if headroom < 0 {
		return nil, fmt.Errorf("attack: QuantEvade headroom must be positive, got %v", headroom)
	}
	bound := headroom * 0.5 / scale
	if cfg.Tol > 0 {
		bound = headroom * cfg.Tol
	}
	tries := cfg.Tries
	if tries == 0 {
		tries = 8
	}
	iters := cfg.Iters
	if iters == 0 {
		iters = 40
	}

	refs := make([][]float64, len(cfg.Probes))
	for i, x := range cfg.Probes {
		refs[i] = append([]float64(nil), net.Forward(x).Data()...)
	}
	// check reports whether the applied edit evades (every probe output
	// within bound, and in the reference's rounding bucket when
	// InBucket) and whether it moved any output at all.
	check := func() (evades, moved bool) {
		for i, x := range cfg.Probes {
			out := net.Forward(x).Data()
			for j, v := range out {
				ref := refs[i][j]
				if v != ref {
					moved = true
				}
				if math.Abs(v-ref) > bound {
					return false, moved
				}
				if cfg.InBucket && !quant.QuantizeValue(v, scale).Matches(ref, scale) {
					return false, moved
				}
			}
		}
		return true, moved
	}

	n := net.NumParams()
	for try := 0; try < tries; try++ {
		idx := rng.Intn(n)
		old := net.ParamAt(idx)
		sign := 1.0
		if rng.Intn(2) == 0 {
			sign = -1
		}
		eval := func(d float64) (bool, bool) {
			net.SetParamAt(idx, old+d)
			return check()
		}
		lo, hi := 0.0, sign
		violating := false
		for k := 0; k < 60; k++ {
			if ev, _ := eval(hi); !ev {
				violating = true
				break
			}
			lo = hi
			hi *= 2
		}
		if violating {
			for k := 0; k < iters; k++ {
				mid := lo + (hi-lo)/2
				if ev, _ := eval(mid); ev {
					lo = mid
				} else {
					hi = mid
				}
			}
		}
		if lo != 0 {
			if ev, moved := eval(lo); ev && moved {
				return &Perturbation{
					Kind:    "subround",
					Indices: []int{idx},
					Old:     []float64{old},
					New:     []float64{old + lo},
					Params:  n,
				}, nil
			}
		}
		net.SetParamAt(idx, old)
	}
	return nil, fmt.Errorf("attack: QuantEvade found no sub-boundary edit in %d candidates", tries)
}

// refGDA is GDA with a Predict and a separate Forward per step.
func refGDA(net *nn.Network, victim *tensor.Tensor, label int, cfg GDAConfig, rng *rand.Rand) (*Perturbation, bool, error) {
	if cfg.Steps <= 0 || cfg.LR <= 0 {
		return nil, false, fmt.Errorf("attack: GDA needs positive Steps and LR, got %+v", cfg)
	}
	orig := net.CopyParams()
	changed := map[int]bool{}
	success := false
	for step := 0; step < cfg.Steps; step++ {
		if net.Predict(victim) != label {
			success = true
			break
		}
		net.ZeroGrad()
		_, dLogits := nn.SoftmaxCrossEntropy(net.Forward(victim), label)
		net.Backward(dLogits)

		type pg struct {
			idx int
			g   float64
		}
		var grads []pg
		net.VisitGrads(func(i int, g float64) {
			if g != 0 {
				grads = append(grads, pg{i, g})
			}
		})
		if len(grads) == 0 {
			break // nothing to ascend
		}
		if cfg.TopK > 0 && len(grads) > cfg.TopK {
			sort.Slice(grads, func(a, b int) bool {
				return math.Abs(grads[a].g) > math.Abs(grads[b].g)
			})
			grads = grads[:cfg.TopK]
		}
		for _, e := range grads {
			net.SetParamAt(e.idx, net.ParamAt(e.idx)+cfg.LR*e.g)
			changed[e.idx] = true
		}
	}
	if !success && net.Predict(victim) != label {
		success = true
	}
	idxs := make([]int, 0, len(changed))
	for i := range changed {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	p := &Perturbation{Kind: "gda", Indices: idxs, Params: net.NumParams()}
	for _, i := range idxs {
		p.Old = append(p.Old, orig[i])
		p.New = append(p.New, net.ParamAt(i))
	}
	return p, success, nil
}

// tanhNet is a trained two-conv-block Tanh net: five layers of
// parameters behind the first, so suffix checks start at every depth.
var tanhNet = sync.OnceValue(func() *nn.Network {
	net := models.Small(nn.Tanh, 1, 8, 8, 3, 4, 8, 10, 231)
	if _, err := train.Fit(net, data.Digits(100, 8, 8, 232), train.Config{
		Epochs: 3, BatchSize: 16, Optimizer: train.NewAdam(0.003), Seed: 1,
	}); err != nil {
		panic(err)
	}
	return net
})

// bitsEqual reports whether a and b hold the same float64 bits.
func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// samePerturbation reports whether two attack results are the same
// bits: indices, old and new values, and error text.
func samePerturbation(got, want *Perturbation, gotErr, wantErr error) error {
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		return fmt.Errorf("error %v, reference %v", gotErr, wantErr)
	}
	if (got == nil) != (want == nil) {
		return fmt.Errorf("perturbation %v, reference %v", got, want)
	}
	if got == nil {
		return nil
	}
	if fmt.Sprint(got.Indices) != fmt.Sprint(want.Indices) || !bitsEqual(got.Old, want.Old) || !bitsEqual(got.New, want.New) ||
		got.Kind != want.Kind || got.Params != want.Params {
		return fmt.Errorf("perturbation %+v, reference %+v", got, want)
	}
	return nil
}

func TestQuantEvadeMatchesFullForwardReference(t *testing.T) {
	base := tanhNet()
	probes := make([]*tensor.Tensor, 0, 3)
	for _, s := range data.Digits(3, 8, 8, 233).Samples {
		probes = append(probes, s.X)
	}
	got, want := base.Clone(), base.Clone()
	runs, edits := 0, 0
	for seed := int64(0); seed < 50; seed++ {
		// Odd seeds bisect only three steps, which often ends at a zero
		// edit and forfeits: the sweep checks both outcomes.
		iters := []int{0, 3}[seed%2]
		for _, decimals := range []int{1, 3, 6} {
			for _, tol := range []float64{0, 1e-3} {
				for _, inBucket := range []bool{false, true} {
					for _, headroom := range []float64{0.25, 1, 4} {
						cfg := QuantEvadeConfig{Decimals: decimals, Tol: tol, InBucket: inBucket, Headroom: headroom, Probes: probes, Iters: iters}
						p, err := QuantEvade(got, cfg, rand.New(rand.NewSource(seed)))
						rp, rerr := refQuantEvade(want, cfg, rand.New(rand.NewSource(seed)))
						if d := samePerturbation(p, rp, err, rerr); d != nil {
							t.Fatalf("seed %d %+v: %v", seed, cfg, d)
						}
						if !bitsEqual(got.CopyParams(), want.CopyParams()) {
							t.Fatalf("seed %d %+v: parameters differ from the reference's afterwards", seed, cfg)
						}
						if err != nil && !errors.Is(err, ErrNoEdit) {
							t.Fatalf("seed %d %+v: search failure %v does not wrap ErrNoEdit", seed, cfg, err)
						}
						runs++
						if p != nil {
							edits++
							if err := p.Revert(got); err != nil {
								t.Fatal(err)
							}
							if err := rp.Revert(want); err != nil {
								t.Fatal(err)
							}
						}
					}
				}
			}
		}
	}
	// Both outcomes must occur, or the sweep checks only one path.
	if edits == 0 || edits == runs {
		t.Fatalf("%d of %d runs found an edit; the sweep must see edits and forfeits", edits, runs)
	}
}

// counter is a parameter-free identity layer that counts its forward
// passes, batched or a batch of one.
type counter struct{ forwards int }

func (c *counter) Forward(x *tensor.Tensor) *tensor.Tensor               { c.forwards++; return x }
func (c *counter) ForwardBatch(x *tensor.Tensor) *tensor.Tensor          { c.forwards++; return x }
func (c *counter) BackwardBatch(d *tensor.Tensor) *tensor.Tensor         { return d }
func (c *counter) BackwardBatchInput(d *tensor.Tensor) *tensor.Tensor    { return d }
func (c *counter) BackwardSample(_ int, d *tensor.Tensor) *tensor.Tensor { return d }
func (c *counter) ReleaseBatchState()                                    {}
func (c *counter) Params() []*nn.Param                                   { return nil }
func (c *counter) Name() string                                          { return "counter" }

// withCounters returns a copy of net between two counters: one in
// front of the first layer and one after the logits.
func withCounters(net *nn.Network) (c *nn.Network, front, back *counter) {
	front, back = &counter{}, &counter{}
	layers := append([]nn.Layer{front}, net.Clone().LayerStack...)
	return nn.NewNetwork(append(layers, back)...), front, back
}

// TestQuantEvadeChecksSkipUnchangedLayers: only the entry pass runs
// the layers in front of the first parameter; every check starts at
// the edited parameter's layer.
func TestQuantEvadeChecksSkipUnchangedLayers(t *testing.T) {
	probes := make([]*tensor.Tensor, 0, 4)
	for _, s := range data.Digits(4, 8, 8, 234).Samples {
		probes = append(probes, s.X)
	}
	for seed := int64(0); seed < 5; seed++ {
		net, front, back := withCounters(tanhNet())
		_, err := QuantEvade(net, QuantEvadeConfig{Decimals: 3, Headroom: 0.5, Probes: probes}, rand.New(rand.NewSource(seed)))
		if err != nil && !errors.Is(err, ErrNoEdit) {
			t.Fatal(err)
		}
		if front.forwards != len(probes) {
			t.Fatalf("seed %d: the front layer ran %d times, want %d (the entry pass only)", seed, front.forwards, len(probes))
		}
		if back.forwards <= len(probes) {
			t.Fatalf("seed %d: %d passes reached the logits; the checks ran none", seed, back.forwards-len(probes))
		}
	}
}

// TestGDAMatchesTwoForwardReference: one forward per step gives the
// reference's perturbation and success, with one pass per step (plus
// the closing check when the label never flips).
func TestGDAMatchesTwoForwardReference(t *testing.T) {
	base := tanhNet()
	victims := data.Digits(12, 8, 8, 235)
	for i, s := range victims.Samples {
		for _, cfg := range []GDAConfig{{Steps: 6, LR: 0.05, TopK: 10}, {Steps: 15, LR: 0.5, TopK: 50}, {Steps: 4, LR: 0.2}} {
			got, front, _ := withCounters(base)
			want := base.Clone()
			p, ok, err := GDA(got, s.X, s.Label, cfg, rand.New(rand.NewSource(int64(i))))
			rp, rok, rerr := refGDA(want, s.X, s.Label, cfg, rand.New(rand.NewSource(int64(i))))
			if d := samePerturbation(p, rp, err, rerr); d != nil || ok != rok {
				t.Fatalf("victim %d %+v: success %v, reference %v: %v", i, cfg, ok, rok, d)
			}
			if !bitsEqual(got.CopyParams(), want.CopyParams()) {
				t.Fatalf("victim %d %+v: parameters differ from the reference's", i, cfg)
			}
			if front.forwards > cfg.Steps+1 {
				t.Fatalf("victim %d %+v: %d forward passes for %d steps", i, cfg, front.forwards, cfg.Steps)
			}
		}
	}
}
