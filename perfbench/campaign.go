package main

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"time"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/experiments"
	"repro/internal/nn"
	"repro/internal/parallel"
	"repro/internal/tensor"
	"repro/internal/validate"
)

// Campaign workload sizes: every attack kind, every comparison mode, a
// three-point magnitude grid and a few seeded trials per cell.
var (
	campMagnitudes = []float64{0.25, 1, 4}
	campModes      = []validate.CompareMode{validate.ExactOutputs, validate.QuantizedOutputs, validate.LabelsOnly}
)

const (
	campTrials   = 4  // seeded trials per (kind, mode, magnitude) cell
	campVictims  = 40 // attack triggers and GDA targets
	campDecimals = 3  // quantized-mode precision and subround boundary
)

// campaignWL is the evaluation of Tables II/III: a detection-rate
// campaign on two workers against the suite the combined method
// generates on the Tanh testbed.
type campaignWL struct {
	seed  int64
	net   *nn.Network
	suite *validate.Suite
	hw    int
	// cfg is the campaign grid; each operation sets its own seed.
	cfg experiments.CampaignConfig
	// tables checks that an operation run again gives the same table.
	tables *repeats[[]experiments.CampaignCell]
	// utilisation is the CPU time over wall time × workers of an
	// untraced campaign, set by the traced run.
	utilisation float64
}

func newCampaign(seed int64) (*campaignWL, error) { return newCampaignWith(seed, campBed, nil) }

// newCampaignWith trains the testbed of cfg and generates its suite; a
// tracer records the data and training calls.
func newCampaignWith(seed int64, cfg bedConfig, tr *tracer) (*campaignWL, error) {
	// The suite under attack is fixed like the model: each operation
	// draws its victims and trials.
	bed, err := buildBed(cfg, modelSeed, tr, tr.newOp())
	if err != nil {
		return nil, err
	}
	res, err := core.Combined(bed.net, bed.pool, genOptions(bed, modelSeed))
	if err != nil {
		return nil, err
	}
	return &campaignWL{
		seed:  seed,
		net:   bed.net,
		suite: validate.BuildSuite("campaign", bed.net, res.Tests, validate.ExactOutputs),
		hw:    cfg.hw,
		cfg: experiments.CampaignConfig{
			Kinds:      experiments.CampaignKinds,
			Modes:      campModes,
			Magnitudes: campMagnitudes,
			Trials:     campTrials,
			Workers:    workers,
			Decimals:   campDecimals,
		},
		tables: newRepeats(func(a, b []experiments.CampaignCell) bool { return reflect.DeepEqual(a, b) }),
	}, nil
}

// input draws operation i's victims (attack triggers and GDA targets)
// and the campaign seed its trial seeds derive from.
func (c *campaignWL) input(i int) (*data.Dataset, experiments.CampaignConfig) {
	s := opSeed(c.seed, i)
	cfg := c.cfg
	cfg.Seed = seedFor(s, 42)
	return data.Digits(campVictims, c.hw, c.hw, seedFor(s, 41)), cfg
}

func (c *campaignWL) trialsPerCampaign() int {
	return len(c.cfg.Kinds) * len(c.cfg.Modes) * len(c.cfg.Magnitudes) * c.cfg.Trials
}

func (c *campaignWL) op(i int) (opResult, error) {
	victims, cfg := c.input(i)
	var r opResult
	t0 := time.Now()
	res, err := experiments.RunCampaign(c.net, c.suite, victims, cfg)
	r.elapsed = time.Since(t0)
	if err != nil {
		return r, err
	}
	return c.checkTable(r, i, res.Cells), nil
}

// checkTable counts operation i's trials into r and checks its table:
// the mode ordering, and the same table as an earlier run of the same
// operation.
func (c *campaignWL) checkTable(r opResult, i int, cells []experiments.CampaignCell) opResult {
	r.items = c.trialsPerCampaign()
	r.ops = r.items
	if !c.tables.same(i, cells) {
		fmt.Printf("check failed: campaign %d gives a different table when run again\n", i)
		r.failed = r.items
		return r
	}
	if bad := modeOrderViolations(cells); len(bad) > 0 {
		for _, b := range bad {
			fmt.Println("check failed:", b)
		}
		// Each violating (kind, magnitude) pair fails its trials in
		// every mode.
		r.failed = len(bad) * len(c.cfg.Modes) * c.cfg.Trials
	}
	return r
}

// modeOrderViolations checks the documented per-trial ordering: every
// mode replays the same edits, so in each (kind, magnitude) pair the
// exact replay detects at least what the quantized one does, and that
// at least what the labels-only one does. The adaptive attacker's
// edit depends on the mode it evades, so it is exempt.
func modeOrderViolations(cells []experiments.CampaignCell) []string {
	type key struct {
		kind string
		mag  float64
	}
	det := map[key]map[string]int{}
	var order []key
	for _, c := range cells {
		k := key{c.Kind, c.Magnitude}
		if det[k] == nil {
			det[k] = map[string]int{}
			order = append(order, k)
		}
		det[k][c.Mode] = c.Detected
	}
	var bad []string
	for _, k := range order {
		if k.kind == "adaptive" {
			continue
		}
		d := det[k]
		e, q, l := d[validate.ExactOutputs.String()], d[validate.QuantizedOutputs.String()], d[validate.LabelsOnly.String()]
		if e < q || q < l {
			bad = append(bad, fmt.Sprintf("%s m=%g: detections exact %d, quantized %d, labels %d break exact ≥ quantized ≥ labels", k.kind, k.mag, e, q, l))
		}
	}
	return bad
}

// runChecks runs campaign 0 again; it must give the same table.
func (c *campaignWL) runChecks() (int, int, error) {
	r, err := c.op(0)
	return r.ops, r.failed, err
}

func (c *campaignWL) report(m *measured) {
	fmt.Printf("  campaign_trials_per_s %.2f trials/s (%d trials per campaign, median campaign %.1f ms)\n",
		float64(m.items)/m.busy.Seconds(), c.trialsPerCampaign(), ms(median(m.opTimes)))
	fmt.Printf("  worker utilisation %.2f\n", m.cpu.Seconds()/(m.wall.Seconds()*float64(workers)))
}

func (c *campaignWL) close() {}

// trialSeed is experiments.RunCampaign's per-trial seed: splitmix64
// chained over the (kind, magnitude) index and the trial, so the traced
// campaign draws the same edits as RunCampaign.
func trialSeed(seed int64, attack, trial int) int64 {
	mix := func(z uint64) uint64 {
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		return z ^ (z >> 31)
	}
	z := mix(uint64(seed) + 0x9E3779B97F4A7C15*uint64(attack+1))
	z = mix(z + 0xD1B54A32D192ED03*uint64(trial+1))
	return int64(z)
}

// tracedOp runs campaign i with the benchmark scheduling the trials
// itself — contiguous chunks of the kinds-major trial list over
// parallel.For on the pinned workers, as RunCampaign's pool splits
// them, with RunCampaign's trial seeds — so that every attack
// constructor, early-exit replay and revert is a span of its trial's
// operation. It gives RunCampaign's table.
func (c *campaignWL) tracedOp(tr *tracer, i int) (opResult, error) {
	victims, cfg := c.input(i)
	type cell struct {
		kind   string
		mode   validate.CompareMode
		mag    float64
		attack int // (kind, magnitude) index; seeds the trials
		view   *validate.Suite
	}
	var cells []cell
	for ki, kind := range cfg.Kinds {
		for _, mode := range cfg.Modes {
			view := *c.suite
			view.Mode, view.Decimals = mode, cfg.Decimals
			for gi, mag := range cfg.Magnitudes {
				cells = append(cells, cell{kind, mode, mag, ki*len(cfg.Magnitudes) + gi, &view})
			}
		}
	}
	total := len(cells) * cfg.Trials
	detected, forfeited := make([]bool, total), make([]bool, total)
	errs := make([]error, workers)
	nets := make([]*nn.Network, workers)
	for k := range nets {
		nets[k] = c.net.Clone()
	}
	var r opResult
	t0 := time.Now()
	parallel.For(total, workers, func(k, lo, hi int) {
		for j := lo; j < hi && errs[k] == nil; j++ {
			cl := cells[j/cfg.Trials]
			rng := rand.New(rand.NewSource(trialSeed(cfg.Seed, cl.attack, j%cfg.Trials)))
			detected[j], forfeited[j], errs[k] = c.trial(tr, nets[k], victims, cl.kind, cl.mag, cl.view, rng)
		}
	})
	r.elapsed = time.Since(t0)
	for _, err := range errs {
		if err != nil {
			return r, err
		}
	}
	// Tabulate as RunCampaign does.
	var table []experiments.CampaignCell
	for ci, cl := range cells {
		cc := experiments.CampaignCell{Kind: cl.kind, Mode: cl.mode.String(), Magnitude: cl.mag, Trials: cfg.Trials}
		for t := 0; t < cfg.Trials; t++ {
			if detected[ci*cfg.Trials+t] {
				cc.Detected++
			}
			if forfeited[ci*cfg.Trials+t] {
				cc.Failed++
			}
		}
		table = append(table, cc)
	}
	return c.checkTable(r, i, table), nil
}

// trial builds one edit on net, replays the cell's suite view against
// it with early exit, and reverts it. An edit the attacker forfeits
// counts as detected and failed, as in RunCampaign.
func (c *campaignWL) trial(tr *tracer, net *nn.Network, victims *data.Dataset, kind string, mag float64, view *validate.Suite, rng *rand.Rand) (detected, forfeited bool, err error) {
	op := tr.newOp()
	root := tr.begin("perfbench.trial", op, -1)
	defer tr.end(root)
	sp := tr.begin("attack."+kind, op, root)
	p, ok, err := c.buildAttack(tr, op, sp, net, victims, kind, mag, view, rng)
	tr.end(sp)
	if err != nil || !ok {
		return true, !ok, err
	}
	sp = tr.begin("validate.DetectsWith", op, root)
	caught, err := view.DetectsWith(validate.LocalIP{Net: net}, validate.ValidateOptions{})
	tr.end(sp)
	sp = tr.begin("attack.Revert", op, root)
	rerr := p.Revert(net)
	tr.end(sp)
	if err == nil {
		err = rerr
	}
	return caught, false, err
}

// buildAttack calls the attack constructor of kind at magnitude mag,
// with the per-kind magnitude semantics of experiments.CampaignConfig.
func (c *campaignWL) buildAttack(tr *tracer, op, parent int, net *nn.Network, victims *data.Dataset, kind string, mag float64, view *validate.Suite, rng *rand.Rand) (*attack.Perturbation, bool, error) {
	victim := func() (*tensor.Tensor, int) {
		for tries := 0; tries < 50; tries++ {
			s := victims.Samples[rng.Intn(victims.Len())]
			if net.Predict(s.X) == s.Label {
				return s.X, s.Label
			}
		}
		s := victims.Samples[rng.Intn(victims.Len())]
		return s.X, s.Label
	}
	switch kind {
	case "sba":
		p, err := attack.SBA(net, mag, rng)
		return p, err == nil, err
	case "gda":
		x, label := victim()
		p, _, err := attack.GDA(net, x, label, attack.GDAConfig{Steps: 15, LR: 0.05 * mag, TopK: 50}, rng)
		return p, err == nil, err
	case "random":
		p, err := attack.RandomNoise(net, 1, mag, rng)
		return p, err == nil, err
	case "bitflip":
		p, err := attack.TargetedBitFlip(net, 1, uint(math.Max(0, math.Min(31, math.Round(mag)))), rng)
		return p, err == nil, err
	case "trojan":
		x, _ := victim()
		return attack.Trojan(net, x, (net.Predict(x)+1)%victims.Classes, view.Inputs, attack.TrojanConfig{Margin: 0.5 * mag})
	case "subround":
		p, err := attack.QuantEvade(net, attack.QuantEvadeConfig{Decimals: c.cfg.Decimals, Headroom: mag, Probes: view.Inputs}, rng)
		return p, err == nil, nil
	case "adaptive":
		x, label := victim()
		oracle := func(m *nn.Network) (bool, error) {
			sp := tr.begin("validate.DetectsWith", op, parent)
			detected, err := view.DetectsWith(validate.LocalIP{Net: m}, validate.ValidateOptions{})
			tr.end(sp)
			return !detected, err
		}
		p, _, err := attack.Adaptive(net, x, label, oracle, attack.AdaptiveConfig{Steps: 5, TopK: 50, MaxScale: mag, Iters: 20}, rng)
		return p, err == nil, nil
	default:
		return nil, false, fmt.Errorf("unknown attack kind %q", kind)
	}
}
