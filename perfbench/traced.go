package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"time"
)

// tracedWorkload is a workload whose operation the benchmark can also run
// call by call, with one span per call into a module.
type tracedWorkload interface {
	workload
	// tracedOp runs operation i as the benchmark's own sequence of
	// calls into the modules, each a span of tr; with a nil tracer it
	// runs the same calls without spans.
	tracedOp(tr *tracer, i int) (opResult, error)
}

// tailRounds is how many traced replay rounds a traced run of another
// workload makes: enough for the replay tails to have ten rounds
// beyond a high percentile.
const tailRounds = 120

// fixtures holds one instance of every workload, so that a traced run
// of any workload can measure every module.
type fixtures struct {
	gen  *generateWL
	rep  *replayWL
	camp *campaignWL
}

func (f *fixtures) get(name string) tracedWorkload {
	switch name {
	case "generate":
		return f.gen
	case "replay":
		return f.rep
	default:
		return f.camp
	}
}

func (f *fixtures) close() {
	for _, w := range []tracedWorkload{f.gen, f.rep, f.camp} {
		if w != nil {
			w.close()
		}
	}
}

// buildFixtures builds the named workload first (its data and training
// calls are the set-up spans), then the others.
func buildFixtures(name string, seed int64, tr *tracer) (*fixtures, setupFigures, error) {
	f := &fixtures{}
	var sf setupFigures
	build := func(n string, t *tracer) error {
		var err error
		switch n {
		case "generate":
			f.gen, err = newGenerateWith(seed, []bedConfig{genMNIST, genCIFAR}, t)
		case "replay":
			f.rep, err = newReplayTraced(seed, t)
		case "campaign":
			f.camp, err = newCampaignWith(seed, campBed, t)
		default:
			err = fmt.Errorf("unknown workload %q (have generate, replay, campaign, all)", n)
		}
		return err
	}
	if err := build(name, tr); err != nil {
		f.close()
		return nil, sf, err
	}
	sf = setupFigures{
		dataMS:  ms(sumDur(tr.durations("data.build"))),
		fitMS:   ms(sumDur(tr.durations("train.fit"))),
		allocMB: tr.sum("train.alloc_mb"),
	}
	for _, n := range workloadNames {
		if n == name {
			continue
		}
		if err := build(n, nil); err != nil {
			f.close()
			return nil, sf, err
		}
	}
	return f, sf, nil
}

// setupFigures are the data and training costs of the traced
// workload's own set-up.
type setupFigures struct {
	dataMS, fitMS, allocMB float64
}

func sumDur(ds []time.Duration) time.Duration {
	var s time.Duration
	for _, d := range ds {
		s += d
	}
	return s
}

// runTraced is the traced run: the workload's set-up with spans, half
// the measured time untraced through the program's own entry points
// (the runtime figures), half in pairs of the same operation run
// through the benchmark's own calls, without and with spans (their
// difference is the tracing overhead), traced operations of the other
// workloads, and the module probes. It prints the per-layer metrics
// and writes the spans to dir.
func runTraced(name string, seed int64, seconds float64, dir string) (*result, error) {
	tr := newTracer()
	f, sf, err := buildFixtures(name, seed, tr)
	if err != nil {
		return nil, err
	}
	defer f.close()
	w := f.get(name)

	plain, err := measure(seconds/2, 0, w.op)
	if err != nil {
		return nil, err
	}
	from := tr.count()
	var bare, diffs []time.Duration
	traced, err := measure(seconds/2, len(plain.opTimes), func(i int) (opResult, error) {
		// Alternate which of the pair runs first, so that whatever the
		// first leaves behind (heap, caches) falls on both sides.
		var without, with opResult
		var err error
		if i%2 == 0 {
			if without, err = w.tracedOp(nil, i); err == nil {
				with, err = w.tracedOp(tr, i)
			}
		} else if with, err = w.tracedOp(tr, i); err == nil {
			without, err = w.tracedOp(nil, i)
		}
		bare = append(bare, without.elapsed)
		diffs = append(diffs, with.elapsed-without.elapsed)
		with.ops += without.ops
		with.failed += without.failed
		return with, err
	})
	if err != nil {
		return nil, err
	}
	to := tr.count()
	self := tr.selfByModule(from, to)
	attempted, failed := plain.attempted+traced.attempted, plain.failed+traced.failed
	// Traced operations of the other workloads, so every module's spans
	// exist in every traced run: one generation, one campaign, and
	// tailRounds replay rounds.
	for _, n := range workloadNames {
		if n == name {
			continue
		}
		rounds := 1
		if n == "replay" {
			rounds = tailRounds
		}
		for i := 0; i < rounds; i++ {
			r, err := f.get(n).tracedOp(tr, i)
			if err != nil {
				return nil, err
			}
			attempted += r.ops
			failed += r.failed
		}
	}
	if name != "campaign" {
		// The campaign's worker utilisation needs one untraced
		// campaign; it repeats the traced campaign 0, so it must give
		// the same table.
		m, err := measure(0, 0, f.camp.op)
		if err != nil {
			return nil, err
		}
		attempted += m.attempted
		failed += m.failed
		f.camp.utilisation = m.cpu.Seconds() / (m.wall.Seconds() * float64(workers))
	} else {
		f.camp.utilisation = plain.cpu.Seconds() / (plain.wall.Seconds() * float64(workers))
	}
	metrics, err := layerMetrics(f, tr, sf)
	if err != nil {
		return nil, err
	}
	ops, bad, err := w.runChecks()
	if err != nil {
		return nil, err
	}
	attempted += ops
	failed += bad
	// The median of the per-pair differences: an operation that does
	// extra work on one side of its pair (a replay round that re-dials)
	// moves it only as one pair among many.
	p50Bare := median(bare)
	overhead := 100 * float64(median(diffs)) / float64(p50Bare)
	metrics["trace.overhead_pct"] = metric{overhead, "%"}
	metrics["trace.spans_per_op"] = metric{float64(to-from) / float64(len(traced.opTimes)), "count"}
	metrics["runtime.alloc_mb_per_op"] = metric{plain.allocMB / float64(len(plain.opTimes)), "MB"}
	metrics["runtime.gc_per_op"] = metric{float64(plain.gcCycles) / float64(len(plain.opTimes)), "count"}
	metrics["runtime.peak_rss_mb"] = metric{peakRSSMB(), "MB"}

	path, err := tr.write(dir, fmt.Sprintf("spans-%s-seed%d.jsonl", name, seed))
	if err != nil {
		return nil, err
	}
	fmt.Printf("workload %s seed %d traced: %d spans written to %s\n", name, seed, tr.count(), path)
	fmt.Printf("  %d operation pairs (host steal %.1f%%): op p50 without spans %.4f ms, with spans %.4f ms, median difference %+.4f ms: tracing overhead %+.2f%%\n",
		len(bare), 100*traced.ticks.stealShare(), ms(p50Bare), ms(median(traced.opTimes)), ms(median(diffs)), overhead)
	fmt.Println("  self time of the traced operations, per module:")
	for _, mod := range sortedKeys(self) {
		fmt.Printf("    %-12s %10.2f ms\n", mod, ms(self[mod]))
	}
	return &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: metrics}, nil
}

// runAll runs every workload in its own process (so that each has its
// own peak resident memory) and prints their figures one after the
// other; the result sums the operations and prefixes each metric with
// its workload.
func runAll(seed int64, seconds float64, traced bool) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	total := &result{Correct: true, Metrics: map[string]metric{}}
	for _, n := range workloadNames {
		args := []string{"--workload", n, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds)}
		if traced {
			args = append(args, "--trace", "1")
		}
		cmd := exec.Command(self, args...)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("workload %s: %w", n, err)
		}
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		for _, l := range lines[:len(lines)-1] {
			fmt.Println(l)
		}
		var r result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
			return nil, fmt.Errorf("workload %s: %w", n, err)
		}
		fmt.Printf("  => %s: %d operations attempted, %d failed\n", n, r.Attempted, r.Failed)
		total.Correct = total.Correct && r.Correct
		total.Attempted += r.Attempted
		total.Failed += r.Failed
		for _, k := range sortedKeys(r.Metrics) {
			total.Metrics[n+"."+k] = r.Metrics[k]
		}
	}
	return total, nil
}
