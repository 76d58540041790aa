package core

import (
	"fmt"
	"testing"

	"repro/internal/coverage"
	"repro/internal/data"
)

// resultsBitIdentical asserts two generator results are exactly equal:
// same tests (bitwise), labels, sources, curve and covered set. This is
// the contract of Options.Parallelism — a pure speed knob.
func resultsBitIdentical(t *testing.T, name string, got, want *Result) {
	t.Helper()
	if len(got.Tests) != len(want.Tests) {
		t.Fatalf("%s: %d tests, want %d", name, len(got.Tests), len(want.Tests))
	}
	if got.SwitchPoint != want.SwitchPoint {
		t.Fatalf("%s: switch point %d, want %d", name, got.SwitchPoint, want.SwitchPoint)
	}
	for i := range want.Tests {
		if got.Labels[i] != want.Labels[i] {
			t.Fatalf("%s: test %d label %d, want %d", name, i, got.Labels[i], want.Labels[i])
		}
		if got.Sources[i] != want.Sources[i] {
			t.Fatalf("%s: test %d source %v, want %v", name, i, got.Sources[i], want.Sources[i])
		}
		if got.Curve[i] != want.Curve[i] {
			t.Fatalf("%s: curve[%d] = %v, want %v", name, i, got.Curve[i], want.Curve[i])
		}
		g, w := got.Tests[i].Data(), want.Tests[i].Data()
		if len(g) != len(w) {
			t.Fatalf("%s: test %d size %d, want %d", name, i, len(g), len(w))
		}
		for j := range w {
			if g[j] != w[j] {
				t.Fatalf("%s: test %d element %d = %v, want %v (parallel suite must be bit-identical)",
					name, i, j, g[j], w[j])
			}
		}
	}
	if !got.Covered.Equal(want.Covered) {
		t.Fatalf("%s: covered sets differ: %v vs %v", name, got.Covered, want.Covered)
	}
}

func parallelOpts(n, workers int) Options {
	opts := DefaultOptions(n)
	opts.Seed = 7
	opts.Steps = 8
	opts.Parallelism = workers
	return opts
}

// TestSuiteBatchBitIdentical is the batched-engine counterpart of the
// worker-count tests: for every generator, the suite produced with
// batched evaluation must equal the serial suite at batch 1 bit for bit
// at B ∈ {1, 8, odd} and worker counts {1, 4}.
func TestSuiteBatchBitIdentical(t *testing.T) {
	net := trainedDigitsNet()
	ds := digitsTrainSet()
	inShape := []int{1, 12, 12}

	serialOpts := parallelOpts(10, 1)
	serialOpts.Batch = 1 // batches of one: the reference

	type gen struct {
		name string
		run  func(Options) (*Result, error)
	}
	gens := []gen{
		{"SelectFromTraining", func(o Options) (*Result, error) { return SelectFromTraining(net, ds, o) }},
		{"Combined", func(o Options) (*Result, error) { return Combined(net, ds, o) }},
		{"GradientGenerate", func(o Options) (*Result, error) { return GradientGenerate(net, inShape, 10, o) }},
	}
	for _, g := range gens {
		serial, err := g.run(serialOpts)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4} {
			for _, batch := range []int{1, 5, 8, 32} {
				opts := parallelOpts(10, workers)
				opts.Batch = batch
				got, err := g.run(opts)
				if err != nil {
					t.Fatal(err)
				}
				resultsBitIdentical(t, fmt.Sprintf("%s workers=%d batch=%d", g.name, workers, batch), got, serial)
			}
		}
	}
}

func TestSelectFromTrainingParallelBitIdentical(t *testing.T) {
	net := trainedDigitsNet()
	ds := digitsTrainSet()
	serial, err := SelectFromTraining(net, ds, parallelOpts(10, 1))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 7} {
		par, err := SelectFromTraining(net, ds, parallelOpts(10, workers))
		if err != nil {
			t.Fatal(err)
		}
		resultsBitIdentical(t, "SelectFromTraining", par, serial)
	}
}

func TestCombinedParallelBitIdentical(t *testing.T) {
	net := trainedDigitsNet()
	ds := digitsTrainSet()
	for _, init := range []InitMode{ZeroInit, GaussianInit} {
		serialOpts := parallelOpts(12, 1)
		serialOpts.Init = init
		serial, err := Combined(net, ds, serialOpts)
		if err != nil {
			t.Fatal(err)
		}
		parOpts := parallelOpts(12, 4)
		parOpts.Init = init
		par, err := Combined(net, ds, parOpts)
		if err != nil {
			t.Fatal(err)
		}
		resultsBitIdentical(t, "Combined", par, serial)
	}
}

func TestGradientGenerateParallelBitIdentical(t *testing.T) {
	net := trainedDigitsNet()
	inShape := []int{1, 12, 12}
	for _, init := range []InitMode{ZeroInit, GaussianInit} {
		// 17 is deliberately not a multiple of 10 classes, so the final
		// synthesis round is truncated mid-batch.
		serialOpts := parallelOpts(17, 1)
		serialOpts.Init = init
		serial, err := GradientGenerate(net, inShape, 10, serialOpts)
		if err != nil {
			t.Fatal(err)
		}
		parOpts := parallelOpts(17, 4)
		parOpts.Init = init
		par, err := GradientGenerate(net, inShape, 10, parOpts)
		if err != nil {
			t.Fatal(err)
		}
		resultsBitIdentical(t, "GradientGenerate", par, serial)
	}
}

func TestRandomSelectParallelBitIdentical(t *testing.T) {
	net := trainedDigitsNet()
	ds := digitsTrainSet()
	serial, err := RandomSelect(net, ds, parallelOpts(15, 1))
	if err != nil {
		t.Fatal(err)
	}
	par, err := RandomSelect(net, ds, parallelOpts(15, 5))
	if err != nil {
		t.Fatal(err)
	}
	resultsBitIdentical(t, "RandomSelect", par, serial)
}

// TestGreedyScannerMatchesSerialScan drives the lazy-greedy priority
// queue to exhaustion over a tie-heavy candidate set: every pick must
// match the serial left-to-right rescan, including resolving equal
// gains to the lowest index, at several init worker counts.
func TestGreedyScannerMatchesSerialScan(t *testing.T) {
	net := trainedDigitsNet()
	ds := data.Digits(40, 12, 12, 55)
	sets := coverage.ParamSets(net, ds, coverage.Config{})

	for _, workers := range []int{1, 3, 8} {
		used := make([]bool, len(sets))
		acc := coverage.NewAccumulator(net.NumParams())
		scan := newGreedyScanner(sets, acc, workers)
		for round := 0; ; round++ {
			wantBest, wantGain := bestCandidateRange(sets, used, acc, 0, len(sets))
			gotBest, gotGain := scan.next(acc, used)
			if gotBest != wantBest || gotGain != wantGain {
				t.Fatalf("round %d workers %d: lazy pick (%d,%d), serial pick (%d,%d)",
					round, workers, gotBest, gotGain, wantBest, wantGain)
			}
			if wantBest < 0 {
				break
			}
			used[wantBest] = true
			acc.Add(sets[wantBest])
		}
	}
}

// TestGreedyScannerSkipsExternallyUsed: candidates marked used outside
// the scanner must never be returned.
func TestGreedyScannerSkipsExternallyUsed(t *testing.T) {
	net := trainedDigitsNet()
	ds := data.Digits(20, 12, 12, 56)
	sets := coverage.ParamSets(net, ds, coverage.Config{})
	used := make([]bool, len(sets))
	acc := coverage.NewAccumulator(net.NumParams())
	scan := newGreedyScanner(sets, acc, 1)

	// Mark even candidates used behind the scanner's back.
	for i := 0; i < len(sets); i += 2 {
		used[i] = true
	}
	for {
		want, wantGain := bestCandidateRange(sets, used, acc, 0, len(sets))
		got, gotGain := scan.next(acc, used)
		if got != want || gotGain != wantGain {
			t.Fatalf("lazy pick (%d,%d), serial pick (%d,%d)", got, gotGain, want, wantGain)
		}
		if want < 0 {
			break
		}
		used[want] = true
		acc.Add(sets[want])
	}
}
