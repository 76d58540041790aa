package experiments

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/data"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/tensor"
	"repro/internal/train"
	"repro/internal/validate"
)

// campaignBed is a tiny trained testbed shared by the campaign tests:
// a one-conv-block ReLU network, a suite built on it, and a victim
// pool.
var campaignBed = sync.OnceValue(func() (bed campaignTestbed) {
	bed.net = models.Tiny(nn.ReLU, 1, 10, 10, 4, 10, 401)
	bed.victims = data.Digits(80, 10, 10, 402)
	if _, err := train.Fit(bed.net, bed.victims, train.Config{
		Epochs: 4, BatchSize: 16, Optimizer: train.NewAdam(0.003), Seed: 1,
	}); err != nil {
		panic(err)
	}
	tests := make([]*tensor.Tensor, 0, 8)
	for _, s := range data.Digits(8, 10, 10, 403).Samples {
		tests = append(tests, s.X)
	}
	bed.suite = validate.BuildSuite("campaign-test", bed.net, tests, validate.ExactOutputs)
	return bed
})

func testCampaignConfig() CampaignConfig {
	return CampaignConfig{
		Kinds:      CampaignKinds,
		Modes:      []validate.CompareMode{validate.ExactOutputs, validate.QuantizedOutputs, validate.LabelsOnly},
		Magnitudes: []float64{0.5, 2},
		Trials:     3,
		Seed:       7,
		Decimals:   3,
	}
}

func TestCampaignWorkerIndependence(t *testing.T) {
	bed := campaignBed()
	cfg := testCampaignConfig()
	cfg.Workers = 1
	serial, err := RunCampaign(bed.net, bed.suite, bed.victims, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 4
	parallelRes, err := RunCampaign(bed.net, bed.suite, bed.victims, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallelRes) {
		t.Fatalf("campaign differs between 1 and 4 workers:\n%s\nvs\n%s", serial.Render(), parallelRes.Render())
	}
	// And the network came back untouched: a fresh run still matches.
	again, err := RunCampaign(bed.net, bed.suite, bed.victims, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, again) {
		t.Fatal("campaign not reproducible on a second run")
	}
}

// TestCampaignGolden pins the table against stored results rather
// than only against itself: testdata/campaign_golden.json and
// campaign_golden_tol.json are res.JSON() of testCampaignConfig() on
// campaignBed at Tol 0 and Tol 1e-3, recorded from the trial loop that
// built every (kind, mode, magnitude) cell's edits separately, and
// campaign_golden_tanh*.json the same on tanhBed, recorded from the
// scoring loop that replayed every test through full forward passes.
// Building each edit once, scoring it under every mode, and replaying
// only the layers it changed must give the same bytes, at every worker
// count.
func TestCampaignGolden(t *testing.T) {
	for _, c := range []struct {
		file    string
		bed     func() campaignTestbed
		tol     float64
		workers []int
	}{
		{"campaign_golden.json", campaignBed, 0, []int{1, 2, 3, 4}},
		{"campaign_golden_tol.json", campaignBed, 1e-3, []int{1, 2, 3, 4}},
		{"campaign_golden_tanh.json", tanhBed, 0, []int{1, 4}},
		{"campaign_golden_tanh_tol.json", tanhBed, 1e-3, []int{1, 4}},
	} {
		bed := c.bed()
		want, err := os.ReadFile(filepath.Join("testdata", c.file))
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range c.workers {
			cfg := testCampaignConfig()
			cfg.Tol = c.tol
			cfg.Workers = workers
			res, err := RunCampaign(bed.net, bed.suite, bed.victims, cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := res.JSON()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s, %d workers: table differs from the stored one:\n%s", c.file, workers, res.Render())
			}
		}
	}
}

func TestCampaignCellsAndModes(t *testing.T) {
	bed := campaignBed()
	cfg := testCampaignConfig()
	res, err := RunCampaign(bed.net, bed.suite, bed.victims, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := len(cfg.Kinds) * len(cfg.Modes) * len(cfg.Magnitudes)
	if len(res.Cells) != want {
		t.Fatalf("%d cells, want %d", len(res.Cells), want)
	}
	for _, c := range res.Cells {
		if c.Trials != cfg.Trials {
			t.Fatalf("cell %s/%s has %d trials, want %d", c.Kind, c.Mode, c.Trials, cfg.Trials)
		}
		if c.Detected < 0 || c.Detected > c.Trials || c.Failed > c.Trials {
			t.Fatalf("cell %s/%s counts out of range: %+v", c.Kind, c.Mode, c)
		}
	}
	// The mode ordering the defence predicts: exact catches at least as
	// much as quantized, which catches at least as much as labels — per
	// kind and magnitude, since exact-mode divergence is implied by
	// quantised divergence, which is implied by an argmax flip.
	find := func(kind, mode string, mag float64) CampaignCell {
		for _, c := range res.Cells {
			if c.Kind == kind && c.Mode == mode && c.Magnitude == mag {
				return c
			}
		}
		t.Fatalf("cell %s/%s m=%g missing", kind, mode, mag)
		return CampaignCell{}
	}
	for _, kind := range cfg.Kinds {
		for _, mag := range cfg.Magnitudes {
			exact := find(kind, "exact", mag)
			quantized := find(kind, "quantized", mag)
			labels := find(kind, "labels", mag)
			if exact.Detected < quantized.Detected || quantized.Detected < labels.Detected {
				t.Fatalf("%s m=%g: detection not monotone across modes: exact %d, quantized %d, labels %d",
					kind, mag, exact.Detected, quantized.Detected, labels.Detected)
			}
		}
	}
	// The sub-rounding attacker is the reason quantized mode needs the
	// campaign: under the boundary (m<1) exact mode must catch what
	// quantized mode accepts.
	subExact := find("subround", "exact", 0.5)
	subQuant := find("subround", "quantized", 0.5)
	if subExact.Rate() <= subQuant.Rate() {
		t.Fatalf("subround m=0.5: exact %.2f not above quantized %.2f — the evasion class the campaign exists to measure",
			subExact.Rate(), subQuant.Rate())
	}
}

func TestCampaignFloorsRoundTrip(t *testing.T) {
	bed := campaignBed()
	cfg := testCampaignConfig()
	cfg.Kinds = []string{"sba", "subround"}
	res, err := RunCampaign(bed.net, bed.suite, bed.victims, cfg)
	if err != nil {
		t.Fatal(err)
	}
	baseline := res.BaselineLines()
	if err := res.CheckFloors(baseline); err != nil {
		t.Fatalf("deterministic rerun fails its own floors: %v", err)
	}
	// A raised floor must fail.
	raised := strings.ReplaceAll(baseline, " 0.0\n", " 99.9\n")
	if raised == baseline {
		raised = strings.Replace(baseline, "\n", "\nsba exact 0.5 100.1\n", 1)
	}
	if err := res.CheckFloors(raised); err == nil {
		t.Fatal("raised floors accepted")
	}
	// A floor for a cell the campaign no longer runs must fail.
	if err := res.CheckFloors("gda exact 0.5 0.0\n"); err == nil {
		t.Fatal("missing cell accepted")
	}
	// Malformed lines are errors, not silently skipped gates.
	if err := res.CheckFloors("sba exact not-a-number 0.0\n"); err == nil {
		t.Fatal("malformed magnitude accepted")
	}
	if err := res.CheckFloors("sba exact 0.5\n"); err == nil {
		t.Fatal("short line accepted")
	}
	// Comments and blanks are fine.
	if err := res.CheckFloors("# comment\n\n" + baseline); err != nil {
		t.Fatalf("comments rejected: %v", err)
	}
}

func TestCampaignValidation(t *testing.T) {
	bed := campaignBed()
	cfg := testCampaignConfig()
	cfg.Kinds = []string{"no-such-kind"}
	if _, err := RunCampaign(bed.net, bed.suite, bed.victims, cfg); err == nil {
		t.Fatal("unknown kind accepted")
	}
	cfg = testCampaignConfig()
	cfg.Trials = 0
	if _, err := RunCampaign(bed.net, bed.suite, bed.victims, cfg); err == nil {
		t.Fatal("zero trials accepted")
	}
	cfg = testCampaignConfig()
	if _, err := RunCampaign(bed.net, bed.suite, nil, cfg); err == nil {
		t.Fatal("nil victim pool accepted")
	}
}

// TestCampaignItemError: an edit the attacker rejects fails the
// campaign with the lowest failing item's error at every worker count,
// naming the first mode the edit is scored under.
func TestCampaignItemError(t *testing.T) {
	bed := campaignBed()
	cfg := testCampaignConfig()
	cfg.Kinds = []string{"sba", "gda", "trojan"}
	cfg.Magnitudes = []float64{1, 0} // gda and trojan reject magnitude 0
	const want = "experiments: gda/exact m=0 trial 0: attack: GDA needs positive Steps and LR"
	for workers := 1; workers <= 4; workers++ {
		cfg.Workers = workers
		_, err := RunCampaign(bed.net, bed.suite, bed.victims, cfg)
		if err == nil || !strings.HasPrefix(err.Error(), want) {
			t.Fatalf("%d workers: error %v, want it to start with %q", workers, err, want)
		}
	}
}

// TestCampaignRejectsInvalidSettings: settings no attacker can run
// with, and oracle replays that fail, are errors, not forfeits: a
// forfeit counts as a detection, so they would read as 100 %.
func TestCampaignRejectsInvalidSettings(t *testing.T) {
	bed := campaignBed()
	short := *bed.suite
	short.Outputs = short.Outputs[:len(short.Outputs)-1]
	for _, c := range []struct {
		name  string
		kind  string
		mag   float64
		dec   int
		suite *validate.Suite
		want  string
	}{
		{"decimals 20", "subround", 0.5, 20, bed.suite, "campaign decimals 20 out of range"},
		{"decimals -1", "sba", 0.5, -1, bed.suite, "campaign decimals -1 out of range"},
		{"subround m=-1", "subround", -1, 3, bed.suite, "QuantEvade headroom must be positive"},
		{"adaptive m=-1", "adaptive", -1, 3, bed.suite, "Adaptive needs positive MaxScale"},
		{"adaptive, short outputs", "adaptive", 0.5, 3, &short, "suite has 8 inputs but 7 outputs"},
	} {
		cfg := testCampaignConfig()
		cfg.Kinds, cfg.Magnitudes, cfg.Decimals = []string{c.kind}, []float64{c.mag}, c.dec
		for _, workers := range []int{1, 3} {
			cfg.Workers = workers
			res, err := RunCampaign(bed.net, c.suite, bed.victims, cfg)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				var table string
				if res != nil {
					table = res.Render()
				}
				t.Fatalf("%s, %d workers: error %v, want one containing %q\n%s", c.name, workers, err, c.want, table)
			}
		}
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

// TestCampaignReplaysSkipUnchangedLayers runs one-item campaigns on a
// worker network between two counters. Only the golden record runs the
// front counter, once per test: scoring replays start at the first
// changed layer. And the item's three mode replays share one suffix
// pass per test at most, where replaying each mode through full passes
// costs up to three.
func TestCampaignReplaysSkipUnchangedLayers(t *testing.T) {
	bed := tanhBed()
	n := len(bed.suite.Inputs)
	for _, c := range []struct {
		kind string
		mag  float64
	}{
		{"sba", 0}, // no change at all: the record's logits answer every test
		{"sba", 0.5},
		{"random", 0.01},
		{"bitflip", 0}, // lowest mantissa bit: quantized and labels replay every test
		{"bitflip", 30},
	} {
		for trial := 0; trial < 3; trial++ {
			cfg := testCampaignConfig()
			cfg.Kinds, cfg.Magnitudes, cfg.Trials, cfg.Seed = []string{c.kind}, []float64{c.mag}, 1, int64(trial)
			net, front, back := withCounters(bed.net)
			if _, err := runCampaign([]*nn.Network{net}, bed.suite, bed.victims, cfg); err != nil {
				t.Fatal(err)
			}
			if front.forwards != n {
				t.Fatalf("%s m=%g trial %d: the front layer ran %d times, want %d (the golden record only)", c.kind, c.mag, trial, front.forwards, n)
			}
			if runs := back.forwards - n; runs > n {
				t.Fatalf("%s m=%g trial %d: %d suffix passes scored %d tests in three modes", c.kind, c.mag, trial, runs, n)
			}
		}
	}
}

// TestCampaignIPMatchesLocalIP: after an edit in any parameter-owning
// layer — none, a parameter rewritten with its own value, a NaN, −0
// over +0 — the campaign's IP answers every suite input, and any other
// input, with LocalIP's bits.
func TestCampaignIPMatchesLocalIP(t *testing.T) {
	bed := tanhBed()
	net := bed.net.Clone()
	// One parameter per parameter-owning layer, set to +0 before the
	// record so that −0 is a change of bits only.
	var picks []int
	off := 0
	for _, p := range net.Params() {
		if l := net.LayerOf(off); len(picks) == 0 || net.LayerOf(picks[len(picks)-1]) != l {
			picks = append(picks, off+p.W.Size()/2)
			net.SetParamAt(off+p.W.Size()/2, 0)
		}
		off += p.W.Size()
	}
	g := recordGolden(net, bed.suite.Inputs)
	other := data.Digits(1, 16, 16, 505).Samples[0].X
	check := func(what string, wantFrom int) {
		t.Helper()
		ip := g.ip(net)
		if ip.from != wantFrom {
			t.Fatalf("%s: replays from layer %d, want %d", what, ip.from, wantFrom)
		}
		for i, x := range append(append([]*tensor.Tensor(nil), bed.suite.Inputs...), other) {
			for pass := 0; pass < 2; pass++ { // the second answer is memoised
				got, err := ip.Query(x)
				if err != nil {
					t.Fatal(err)
				}
				want, err := validate.LocalIP{Net: net}.Query(x)
				if err != nil {
					t.Fatal(err)
				}
				if !bitsEqual(got.Data(), want.Data()) {
					t.Fatalf("%s: input %d answered %v, LocalIP %v", what, i, got.Data(), want.Data())
				}
			}
		}
	}
	check("no edit", len(net.LayerStack))
	for _, idx := range picks {
		l := net.LayerOf(idx)
		name := net.LayerStack[l].Name()
		net.SetParamAt(idx, net.ParamAt(idx))
		check(name+" own value", len(net.LayerStack))
		net.SetParamAt(idx, math.NaN())
		check(name+" NaN", l)
		net.SetParamAt(idx, math.Copysign(0, -1))
		check(name+" −0", l)
		net.SetParamAt(idx, 0)
	}
	if len(picks) != 6 {
		t.Fatalf("edited %d layers, want the six parameter-owning layers", len(picks))
	}
}

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

// BenchmarkCampaign is a detection-rate campaign over every attack
// kind and three modes on tanhBed, on two workers.
func BenchmarkCampaign(b *testing.B) {
	bed := tanhBed()
	cfg := testCampaignConfig()
	cfg.Workers = 2
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunCampaign(bed.net, bed.suite, bed.victims, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func TestCampaignRenderAndJSON(t *testing.T) {
	bed := campaignBed()
	cfg := testCampaignConfig()
	cfg.Kinds = []string{"sba", "bitflip"}
	cfg.Magnitudes = []float64{1}
	res, err := RunCampaign(bed.net, bed.suite, bed.victims, cfg)
	if err != nil {
		t.Fatal(err)
	}
	text := res.Render()
	for _, want := range []string{"sba m=1", "bitflip m=1", "exact", "quantized", "labels"} {
		if !strings.Contains(text, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, text)
		}
	}
	raw, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"kind": "sba"`, `"mode": "labels"`, `"seed": 7`} {
		if !strings.Contains(string(raw), want) {
			t.Fatalf("JSON missing %q:\n%s", want, raw)
		}
	}
}
