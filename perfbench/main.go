// Command perfbench is the repository benchmark: one process per
// workload, each building its inputs from a seed in set-up, running a
// fixed operation in whole rounds for a given number of seconds, and
// checking the program's outputs as it goes.
//
// Usage:
//
//	perfbench --workload generate|replay|campaign|all --seed N --seconds S --trace 0|1
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1. README.md lists the
// metrics, the inputs and what each workload exercises.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"repro/internal/tensor"
)

// processStart and startTicks approximate the process start: package
// variables are initialised before main runs, after only the Go
// runtime's own start.
var (
	processStart = time.Now()
	startTicks   = cpuTicks()
)

// workers is the pinned worker count of every fan-out the benchmark
// drives (generation, training, serving, replay, campaign), so that the
// figures do not depend on the machine's core count. It is a variable
// only so that the package's tests can compare one and two workers.
var workers = 2

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workloadNames lists the workloads in the order --workload all runs
// them.
var workloadNames = []string{"generate", "replay", "campaign"}

func main() {
	name := flag.String("workload", "", "workload: generate, replay, campaign, or all (each in its own process)")
	seed := flag.Int64("seed", 1, "seed every input is generated from")
	seconds := flag.Float64("seconds", 10, "length of the measured phase in seconds")
	trace := flag.Int("trace", 0, "1 records spans and prints the per-layer metrics instead of the end-to-end ones")
	traceOut := flag.String("trace-out", ".bench_out", "directory the traced run writes its spans to")
	flag.Parse()

	tensor.SetParallelism(workers)
	var (
		res *result
		err error
	)
	switch {
	case *name == "all":
		res, err = runAll(*seed, *seconds, *trace == 1)
	case *trace == 1:
		res, err = runTraced(*name, *seed, *seconds, *traceOut)
	default:
		res, err = runPlain(*name, *seed, *seconds)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// opResult is what one operation of a workload reports: how many
// items (suites, queries, trials) it processed and how many
// operations it counts for. failed counts the operations whose output
// check failed.
type opResult struct {
	// elapsed is the timed region of the operation; output checks run
	// outside it.
	elapsed time.Duration
	items   int
	ops     int
	failed  int
	// parts are named sub-timings of the operation (the exact and
	// quantised replays of one replay round), reported as medians.
	parts map[string]time.Duration
}

// workload is one benchmark scenario after its set-up.
type workload interface {
	// op runs operation i of the run, untraced, and checks its
	// outputs. The operation's inputs are a function of the run's seed
	// and i alone.
	op(i int) (opResult, error)
	// runChecks runs the once-per-run checks: planted faults the
	// program must catch (one operation each), or a repeat of
	// operation 0 that must give the same outputs (counted as that
	// operation).
	runChecks() (ops, failed int, err error)
	// report prints the workload's own figures under the names the
	// README uses, from the measured phase.
	report(m *measured)
	close()
}

func newWorkload(name string, seed int64) (workload, error) {
	switch name {
	case "generate":
		return newGenerate(seed)
	case "replay":
		return newReplay(seed)
	case "campaign":
		return newCampaign(seed)
	default:
		return nil, fmt.Errorf("unknown workload %q (have generate, replay, campaign, all)", name)
	}
}

// measured is the outcome of one measured phase.
type measured struct {
	opTimes []time.Duration
	// opTicks are the machine's busy and stolen CPU ticks during each
	// operation.
	opTicks   []ticks
	parts     map[string][]time.Duration
	items     int
	attempted int
	failed    int
	busy      time.Duration // sum of op times
	allocMB   float64
	gcCycles  uint32
	cpu       time.Duration
	wall      time.Duration
	ticks     ticks // over the whole phase
}

// measure runs whole operations of op, numbered from first, until
// seconds have passed (at least one). Each operation times its own work
// and checks its outputs outside that timed region.
func measure(seconds float64, first int, op func(i int) (opResult, error)) (*measured, error) {
	m := &measured{parts: map[string][]time.Duration{}}
	budget := time.Duration(seconds * float64(time.Second))
	ms0 := readMem()
	cpu0 := cpuTime()
	t0 := cpuTicks()
	start := time.Now()
	for i := first; len(m.opTimes) == 0 || time.Since(start) < budget; i++ {
		ti := cpuTicks()
		r, err := op(i)
		if err != nil {
			return nil, err
		}
		m.opTicks = append(m.opTicks, cpuTicks().sub(ti))
		m.opTimes = append(m.opTimes, r.elapsed)
		m.busy += r.elapsed
		m.items += r.items
		m.attempted += r.ops
		m.failed += r.failed
		for _, k := range sortedKeys(r.parts) {
			m.parts[k] = append(m.parts[k], r.parts[k])
		}
	}
	m.wall = time.Since(start)
	m.cpu = cpuTime() - cpu0
	m.ticks = cpuTicks().sub(t0)
	ms1 := readMem()
	m.allocMB = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20)
	m.gcCycles = ms1.NumGC - ms0.NumGC
	return m, nil
}

// typicalSteal is the steal share over the typical operations, those
// whose time lies between the first and the third quartile: a burst of
// steal that slowed a few operations moves neither the median nor this
// share.
func (m *measured) typicalSteal() float64 {
	s := append([]time.Duration(nil), m.opTimes...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	q1, q3 := s[len(s)/4], s[(3*len(s))/4]
	var t ticks
	for i, d := range m.opTimes {
		if d >= q1 && d <= q3 {
			t = t.add(m.opTicks[i])
		}
	}
	return t.stealShare()
}

// unstolenP50 is the median operation time less the share of CPU time
// the hypervisor withheld from the VM during the typical operations:
// what the median would be on a host that ran the VM whenever it asked.
func (m *measured) unstolenP50() time.Duration {
	return time.Duration(float64(median(m.opTimes)) * (1 - m.typicalSteal()))
}

// runPlain is the untraced run: set-up, the measured phase, the
// once-per-run checks, and the end-to-end metrics.
func runPlain(name string, seed int64, seconds float64) (*result, error) {
	w, err := newWorkload(name, seed)
	if err != nil {
		return nil, err
	}
	defer w.close()
	setupWall, setupSteal := time.Since(processStart), cpuTicks().sub(startTicks).stealShare()
	setup := time.Duration(float64(setupWall) * (1 - setupSteal))

	m, err := measure(seconds, 0, w.op)
	if err != nil {
		return nil, err
	}
	p50 := m.unstolenP50()
	fmt.Printf("workload %s seed %d: %d operations in %.2fs, host steal %.1f%% (typical operations %.1f%%)\n",
		name, seed, len(m.opTimes), m.wall.Seconds(), 100*m.ticks.stealShare(), 100*m.typicalSteal())
	fmt.Printf("  setup_s %.4f s (wall %.4f s, host steal %.1f%%)\n", setup.Seconds(), setupWall.Seconds(), 100*setupSteal)
	fmt.Printf("  op_p50_ms %.4f ms (median of %d, wall %.4f ms)\n", ms(p50), len(m.opTimes), ms(median(m.opTimes)))
	// The report reads the measured phase's wire traffic, so it comes
	// before the checks send their own queries.
	w.report(m)
	fmt.Printf("  peak_rss_mb %.1f MB\n", peakRSSMB())
	ops, failed, err := w.runChecks()
	if err != nil {
		return nil, err
	}
	m.attempted += ops
	m.failed += failed
	fmt.Printf("  %d operations attempted, %d failed\n", m.attempted, m.failed)
	return &result{
		Correct:   m.failed == 0,
		Attempted: m.attempted,
		Failed:    m.failed,
		Metrics: map[string]metric{
			"setup_s":   {setup.Seconds(), "s"},
			"op_p50_ms": {ms(p50), "ms"},
		},
	}, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// median returns the median of ds (the mean of the middle pair for an
// even count); zero for none.
func median(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// tail returns the highest order statistic with ten values beyond it;
// the maximum when there are ten or fewer values.
func tail(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	if len(s) <= 10 {
		return s[len(s)-1]
	}
	return s[len(s)-11]
}

// repeats remembers the outputs of operation 0 and of the latest
// operation, by operation index: an operation that runs again (the
// repeat of operation 0 in runChecks, the traced twin of an untraced
// operation) must give the same outputs.
type repeats[T any] struct {
	seen  map[int]T
	equal func(a, b T) bool
}

func newRepeats[T any](equal func(a, b T) bool) *repeats[T] {
	return &repeats[T]{seen: map[int]T{}, equal: equal}
}

// same reports whether out equals the remembered outputs of operation
// i (true when none are remembered), then remembers out.
func (r *repeats[T]) same(i int, out T) bool {
	old, ok := r.seen[i]
	for k := range r.seen {
		if k != 0 {
			delete(r.seen, k)
		}
	}
	r.seen[i] = out
	return !ok || r.equal(old, out)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
