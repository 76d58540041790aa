package experiments

import (
	"bytes"
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
// network, a suite built on it, and a victim pool.
var campaignBed = sync.OnceValue(func() (bed struct {
	net     *nn.Network
	suite   *validate.Suite
	victims *data.Dataset
}) {
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
// campaign_golden_tol.json are res.JSON() of testCampaignConfig() at
// Tol 0 and Tol 1e-3, recorded from the trial loop that built every
// (kind, mode, magnitude) cell's edits separately. Building each edit
// once and scoring it under every mode must give the same bytes, at
// every worker count.
func TestCampaignGolden(t *testing.T) {
	bed := campaignBed()
	for _, c := range []struct {
		file string
		tol  float64
	}{{"campaign_golden.json", 0}, {"campaign_golden_tol.json", 1e-3}} {
		want, err := os.ReadFile(filepath.Join("testdata", c.file))
		if err != nil {
			t.Fatal(err)
		}
		for workers := 1; workers <= 4; workers++ {
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
