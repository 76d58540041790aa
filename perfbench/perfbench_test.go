package main

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/validate"
)

// Reduced testbeds: the smallest Table I stacks that keep every layer.
var (
	testMNIST = bedConfig{name: "mnist", hw: 16, scale: 0.05, trainN: 40, poolN: 20, epochs: 1, budget: 3}
	testCIFAR = bedConfig{name: "cifar", hw: 16, scale: 0.05, trainN: 40, poolN: 20, epochs: 1, budget: 3}
)

// withWorkers runs fn with the pinned worker count set to n.
func withWorkers(t *testing.T, n int, fn func()) {
	t.Helper()
	old := workers
	workers = n
	defer func() { workers = old }()
	fn()
}

func TestGenerateChecksPassAndCatchFaults(t *testing.T) {
	g, err := newGenerateWith(1, []bedConfig{testMNIST, testCIFAR}, nil)
	if err != nil {
		t.Fatal(err)
	}
	r, err := g.op(0)
	if err != nil {
		t.Fatal(err)
	}
	if r.failed != 0 || r.ops != 2 {
		t.Fatalf("clean generation: %d of %d operations failed", r.failed, r.ops)
	}
	if ops, failed, err := g.runChecks(); err != nil || failed != 0 || ops != 2 {
		t.Fatalf("operation 0 run again: %d of %d failed, err %v", failed, ops, err)
	}
	// Operation 0 sealing other suites when run again.
	g.sealed.seen[0][1] = append([]byte{0}, g.sealed.seen[0][1]...)
	if _, failed, _ := g.runChecks(); failed != 2 {
		t.Errorf("operation 0 sealing different suites when run again: %d checks failed (want 2)", failed)
	}
	bed := g.beds[1]
	gen, err := generateSuite(bed, g.input(bed, 1), g.key, nil, -1, -1)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkGeneration(bed, gen, g.key); err != nil {
		t.Fatalf("clean generation fails its check: %v", err)
	}

	// A tampered suite byte.
	tampered := *gen
	tampered.sealed = append([]byte(nil), gen.sealed...)
	tampered.sealed[len(tampered.sealed)/3] ^= 0x40
	if checkGeneration(bed, &tampered, g.key) == nil {
		t.Error("a tampered suite byte passes the check")
	}
	// A generator that misreports its coverage.
	lying := *gen
	res := *gen.res
	res.Covered = gen.res.Covered.Clone()
	res.Covered.Set(firstClear(t, res.Covered.Get, bed.net.NumParams()))
	lying.res = &res
	if checkGeneration(bed, &lying, g.key) == nil {
		t.Error("a misreported coverage set passes the check")
	}
	// A coverage curve that decreases.
	res2 := *gen.res
	res2.Curve = append([]float64(nil), gen.res.Curve...)
	res2.Curve[1] = res2.Curve[0] - 0.01
	lying.res = &res2
	if checkGeneration(bed, &lying, g.key) == nil {
		t.Error("a decreasing coverage curve passes the check")
	}
	// Reference outputs that do not match the golden model.
	suite, err := validate.OpenSuite(bytes.NewReader(gen.sealed), g.key)
	if err != nil {
		t.Fatal(err)
	}
	suite.Outputs[0].Data()[0] += 1e-9
	if checkVerdicts(suite, bed) == nil {
		t.Error("a suite whose references differ from the golden model passes the check")
	}
}

func firstClear(t *testing.T, get func(int) bool, n int) int {
	t.Helper()
	for i := 0; i < n; i++ {
		if !get(i) {
			return i
		}
	}
	t.Skip("every parameter is covered; nothing to misreport")
	return 0
}

func TestSealedSuitesIdenticalAtOneAndTwoWorkers(t *testing.T) {
	// Training depends on the worker count; generation must not.
	g, err := newGenerateWith(1, []bedConfig{testMNIST, testCIFAR}, nil)
	if err != nil {
		t.Fatal(err)
	}
	sealed := map[int][][]byte{}
	for _, n := range []int{1, 2} {
		withWorkers(t, n, func() {
			for _, bed := range g.beds {
				gen, err := generateSuite(bed, g.input(bed, 0), g.key, nil, -1, -1)
				if err != nil {
					t.Fatal(err)
				}
				sealed[n] = append(sealed[n], gen.sealed)
			}
		})
	}
	for i := range sealed[1] {
		if !bytes.Equal(sealed[1][i], sealed[2][i]) {
			t.Errorf("suite %d: sealed bytes differ between 1 and 2 workers", i)
		}
	}
}

func TestReplayChecksPassAndCatchFaults(t *testing.T) {
	w, err := newReplay(1)
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	for i := 0; i < replayRedial+2; i++ {
		r, err := w.op(i)
		if err != nil {
			t.Fatal(err)
		}
		if r.failed != 0 {
			t.Fatalf("round %d against the golden replica: %d failed", i, r.failed)
		}
	}
	tr := newTracer()
	if r, err := w.tracedOp(tr, 0); err != nil || r.failed != 0 {
		t.Fatalf("traced round against the golden replica: failed %d, err %v", r.failed, err)
	}
	if ops, failed, err := w.runChecks(); err != nil || failed != 0 || ops != 3 {
		t.Fatalf("once-per-run checks: %d of %d failed, err %v", failed, ops, err)
	}
	if w.redials == 0 || w.store.Stats().Hits == 0 {
		t.Errorf("re-dials %d, store hits %d: the frame store answered no probes", w.redials, w.store.Stats().Hits)
	}

	// A faulty replica that is not faulty: both dialects' must-fail
	// replays pass, and both count as failed checks.
	w.faultDelta = 0
	if _, failed, err := w.runChecks(); err != nil || failed != 2 {
		t.Errorf("an unmoved bias on the faulty replica: %d checks failed (want 2), err %v", failed, err)
	}
	// The exchange check against a model other than the served one.
	bad, err := biasMoved(w.golden, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if checkExchange(w.exactIP, w.exact, bad) == nil {
		t.Error("an exchange compared with a different model passes")
	}

	// A moved bias on the served replica: every replay of the round fails.
	w.close()
	if w.srv, err = serve(bad, w.store); err != nil {
		t.Fatal(err)
	}
	if w.exactIP, err = validate.DialWith(w.srv.Addr(), validate.DialOptions{Wire: validate.WireGob}); err != nil {
		t.Fatal(err)
	}
	if err := w.dialQuant(); err != nil {
		t.Fatal(err)
	}
	if r, err := w.op(0); err != nil || r.failed != 2 {
		t.Errorf("a moved bias on the served replica: %d replays failed (want 2), err %v", r.failed, err)
	}
	if r, err := w.tracedOp(tr, 0); err != nil || r.failed != 2 {
		t.Errorf("a moved bias on the served replica, traced: %d replays failed (want 2), err %v", r.failed, err)
	}
}

// testCampaign is a campaign on the reduced Tanh testbed over every kind
// and mode at one magnitude.
func testCampaign(t *testing.T) *campaignWL {
	t.Helper()
	c, err := newCampaignWith(1, testMNIST, nil)
	if err != nil {
		t.Fatal(err)
	}
	c.cfg.Magnitudes = []float64{1}
	c.cfg.Trials = 1
	return c
}

func TestCampaignChecksPassAndCatchFaults(t *testing.T) {
	c := testCampaign(t)
	r, err := c.op(0)
	if err != nil {
		t.Fatal(err)
	}
	if r.failed != 0 || r.ops != c.trialsPerCampaign() {
		t.Fatalf("clean campaign: %d of %d trials failed", r.failed, r.ops)
	}
	// The traced campaign schedules and seeds the trials itself; run as
	// operation 0 again, it must give RunCampaign's table.
	if r, err := c.tracedOp(newTracer(), 0); err != nil || r.failed != 0 {
		t.Fatalf("traced campaign 0: %d failed, err %v", r.failed, err)
	}
	if r, err := c.tracedOp(nil, 1); err != nil || r.failed != 0 {
		t.Fatalf("untraced decomposition of campaign 1: %d failed, err %v", r.failed, err)
	}
	if ops, failed, err := c.runChecks(); err != nil || failed != 0 || ops != c.trialsPerCampaign() {
		t.Fatalf("campaign 0 run again: %d of %d failed, err %v", failed, ops, err)
	}
	// Campaign 0 giving another table when run again.
	first := c.tables.seen[0]
	c.tables.seen[0] = append([]experiments.CampaignCell(nil), first...)
	c.tables.seen[0][0].Detected++
	if _, failed, _ := c.runChecks(); failed != c.trialsPerCampaign() {
		t.Errorf("campaign 0 giving another table when run again: %d trials failed (want all %d)", failed, c.trialsPerCampaign())
	}

	// Swapped mode columns: exact and labels exchange their detections.
	cells := append([]experiments.CampaignCell(nil), first...)
	swapped := false
	for i := 0; i < len(cells) && !swapped; i++ {
		if cells[i].Mode != validate.ExactOutputs.String() || cells[i].Kind == "adaptive" {
			continue
		}
		for j := range cells {
			if cells[j].Kind == cells[i].Kind && cells[j].Magnitude == cells[i].Magnitude && cells[j].Mode == validate.LabelsOnly.String() &&
				cells[j].Detected != cells[i].Detected {
				cells[i].Mode, cells[j].Mode = cells[j].Mode, cells[i].Mode
				swapped = true
				break
			}
		}
	}
	if !swapped {
		t.Skip("no kind detects differently in exact and labels mode; nothing to swap")
	}
	if len(modeOrderViolations(cells)) == 0 {
		t.Error("swapped mode columns pass the ordering check")
	}
}

func TestTracedCampaignCountsForfeits(t *testing.T) {
	// A sub-rounding attacker with almost no headroom finds no edit and
	// forfeits: RunCampaign counts such trials as detected and failed,
	// and the traced campaign must give the same table.
	c := testCampaign(t)
	c.cfg.Kinds = []string{"subround"}
	c.cfg.Magnitudes = []float64{1e-12}
	c.cfg.Trials = 2
	if r, err := c.op(0); err != nil || r.failed != 0 {
		t.Fatalf("campaign 0: %d failed, err %v", r.failed, err)
	}
	forfeits := 0
	for _, cell := range c.tables.seen[0] {
		forfeits += cell.Failed
	}
	if forfeits == 0 {
		t.Skip("no trial forfeited; nothing to compare")
	}
	if r, err := c.tracedOp(newTracer(), 0); err != nil || r.failed != 0 {
		t.Errorf("traced campaign 0 with %d forfeits: %d trials failed its check, err %v", forfeits, r.failed, err)
	}
}

func TestCampaignTableIdenticalAtOneAndTwoWorkers(t *testing.T) {
	c := testCampaign(t)
	tables := map[int][]experiments.CampaignCell{}
	victims, cfg := c.input(0)
	for _, n := range []int{1, 2} {
		cfg.Workers = n
		res, err := experiments.RunCampaign(c.net, c.suite, victims, cfg)
		if err != nil {
			t.Fatal(err)
		}
		tables[n] = res.Cells
	}
	if !reflect.DeepEqual(tables[1], tables[2]) {
		t.Error("campaign tables differ between 1 and 2 workers")
	}
}

func TestTracerSelfTime(t *testing.T) {
	tr := newTracer()
	op := tr.newOp()
	root := tr.begin("a.outer", op, -1)
	child := tr.begin("b.inner", op, root)
	tr.end(child)
	tr.end(root)
	self := tr.selfByModule(0, tr.count())
	total := tr.durations("a.outer")[0]
	if got := self["a"] + self["b"]; got != total {
		t.Errorf("self times sum to %v, root span lasts %v", got, total)
	}
	var nilTracer *tracer
	nilTracer.end(nilTracer.begin("x.y", nilTracer.newOp(), -1))
}

func TestUnstolenMedian(t *testing.T) {
	m := &measured{}
	for i := 1; i <= 8; i++ {
		m.opTimes = append(m.opTimes, time.Duration(i)*time.Millisecond)
		m.opTicks = append(m.opTicks, ticks{busy: 75, steal: 25})
	}
	// A burst of steal on the slowest operation moves neither the
	// median nor the typical share.
	m.opTimes[7], m.opTicks[7] = 80*time.Millisecond, ticks{busy: 10, steal: 90}
	if got := m.typicalSteal(); got != 0.25 {
		t.Errorf("typical steal share %v, want 0.25", got)
	}
	if got, want := m.unstolenP50(), time.Duration(0.75*4.5*float64(time.Millisecond)); got != want {
		t.Errorf("unstolen median %v, want %v", got, want)
	}
}

func TestTail(t *testing.T) {
	var ds []time.Duration
	for i := 1; i <= 40; i++ {
		ds = append(ds, time.Duration(i))
	}
	if got := tail(ds); got != 30 {
		t.Errorf("tail of 1..40 = %v, want 30 (ten values beyond it)", got)
	}
	if got := tail(ds[:5]); got != 5 {
		t.Errorf("tail of 1..5 = %v, want the maximum 5", got)
	}
}
