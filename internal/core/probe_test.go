package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/coverage"
	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// These tests pin Combined's probe bound against the loop it replaced,
// which ran an Algorithm 2 probe before every greedy pick. The old loop
// is replicated verbatim here (it is the reference); Combined must
// return the same result while running fewer probes.

// refCombined is Combined with a probe before every greedy pick.
func refCombined(net *nn.Network, train *data.Dataset, opts Options) *Result {
	classes := train.Classes
	inShape := []int{train.C, train.H, train.W}
	rng := rand.New(rand.NewSource(opts.Seed))

	rt := newGenRuntime(net, opts)
	defer rt.close()
	sets := rt.paramSets(train)
	acc := coverage.NewAccumulator(net.NumParams())
	used := make([]bool, train.Len())
	scan := newGreedyScanner(sets, acc, rt.workers())
	res := &Result{SwitchPoint: -1}

	for len(res.Tests) < opts.MaxTests {
		best, bestGain := scan.next(acc, used)

		residual := residualNet(net, acc.Set())
		xs := synthStarts(inShape, classes, opts, rng)
		rt.synthesize(residual, xs, opts)
		probeSets := rt.paramSetsOf(xs)
		probeAcc := acc.Clone()
		probeGain := 0
		for c := 0; c < classes; c++ {
			probeGain += probeAcc.Add(probeSets[c])
		}
		gainPerSynthetic := float64(probeGain) / float64(classes)

		if best >= 0 && float64(bestGain) >= gainPerSynthetic {
			used[best] = true
			acc.Add(sets[best])
			res.add(train.Samples[best].X, train.Samples[best].Label, FromTraining, acc.Coverage())
			continue
		}

		res.SwitchPoint = len(res.Tests)
		for c := 0; c < classes && len(res.Tests) < opts.MaxTests; c++ {
			acc.Add(probeSets[c])
			res.add(xs[c], c, FromSynthesis, acc.Coverage())
		}
		res.Covered = acc.Set()
		if remaining := opts.MaxTests - len(res.Tests); remaining > 0 {
			tailOpts := opts
			tailOpts.MaxTests = remaining
			tail := rt.synthesisFrom(inShape, classes, tailOpts, acc.Set())
			for i := range tail.Tests {
				res.add(tail.Tests[i], tail.Labels[i], FromSynthesis, tail.Curve[i])
			}
			res.Covered = tail.Covered
		}
		return res
	}
	res.Covered = acc.Set()
	return res
}

// probeCounts reads from a Combined result the probes that ran (the
// switching probe among them) and the probes the bound skipped, and the
// synthesis rounds of the tail. Each greedy pick's covered count is
// recovered exactly from the curve: Curve[i] is count/numParams, and
// the test fails unless that division gives Curve[i] back bit for bit.
// The pick's gain is the growth of that count and its uncovered count
// what the picks before it left.
func probeCounts(t *testing.T, res *Result, numParams, classes int) (ran, skipped, tailRounds int) {
	t.Helper()
	picks := len(res.Tests)
	if res.SwitchPoint >= 0 {
		picks = res.SwitchPoint
	}
	prev := 0
	for i := 0; i < picks; i++ {
		covered := int(math.Round(res.Curve[i] * float64(numParams)))
		if float64(covered)/float64(numParams) != res.Curve[i] {
			t.Fatalf("curve point %d (%v) is not a count over %d parameters", i, res.Curve[i], numParams)
		}
		gain, uncovered := covered-prev, numParams-prev
		if float64(gain) >= float64(uncovered)/float64(classes) {
			skipped++
		} else {
			ran++
		}
		prev = covered
	}
	if res.SwitchPoint >= 0 {
		ran++
		if tail := len(res.Tests) - res.SwitchPoint - classes; tail > 0 {
			tailRounds = (tail + classes - 1) / classes
		}
	}
	return ran, skipped, tailRounds
}

// countPasses runs gen with testHookExtract counting extraction passes.
func countPasses(t *testing.T, gen func() (*Result, error)) (*Result, int) {
	t.Helper()
	passes := 0
	testHookExtract = func([]*tensor.Tensor) { passes++ }
	defer func() { testHookExtract = nil }()
	res, err := gen()
	if err != nil {
		t.Fatal(err)
	}
	return res, passes
}

// TestCombinedProbeBoundMatchesReference: on both digest beds, at
// budgets 6, 12 and 17, both inits and both digest cells, Combined
// gives the result of the loop that probes before every pick, bit for
// bit. It extracts once per probe that the bound leaves running and
// once per tail round, and the reference once per greedy pick more.
// The grid covers a switch at test 5 (relu, zero init) and a pool of
// two samples that runs out (tanh), and each bed must skip a probe.
func TestCombinedProbeBoundMatchesReference(t *testing.T) {
	for _, bed := range digestBeds() {
		classes, numParams := bed.pool.Classes, bed.net.NumParams()
		bedSkipped := 0
		for _, budget := range []int{6, 12, 17} {
			for _, init := range []InitMode{ZeroInit, GaussianInit} {
				for _, cell := range digestCells {
					opts := DefaultOptions(budget)
					opts.Coverage = bed.cov
					opts.Seed = 5
					opts.Init = init
					opts.Parallelism, opts.Batch = cell.workers, cell.batch
					name := fmt.Sprintf("%s budget=%d init=%d workers=%d batch=%d", bed.name, budget, init, cell.workers, cell.batch)

					want, refPasses := countPasses(t, func() (*Result, error) { return refCombined(bed.net, bed.pool, opts), nil })
					got, passes := countPasses(t, func() (*Result, error) { return Combined(bed.net, bed.pool, opts) })
					if resultDigest(got) != resultDigest(want) {
						t.Fatalf("%s: result differs from the reference (switch at %d, reference at %d)", name, got.SwitchPoint, want.SwitchPoint)
					}
					ran, skipped, tailRounds := probeCounts(t, got, numParams, classes)
					if passes != ran+tailRounds {
						t.Fatalf("%s: %d extraction passes, want %d (%d probes that could win, %d tail rounds)", name, passes, ran+tailRounds, ran, tailRounds)
					}
					if refPasses != ran+skipped+tailRounds {
						t.Fatalf("%s: reference ran %d extraction passes, want %d (%d probes, %d tail rounds)", name, refPasses, ran+skipped+tailRounds, ran+skipped, tailRounds)
					}
					bedSkipped += skipped
				}
			}
		}
		if bedSkipped == 0 {
			t.Errorf("%s: the bound skipped no probe anywhere in the grid", bed.name)
		}
	}
}
