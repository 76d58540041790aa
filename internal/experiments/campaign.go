package experiments

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"

	"repro/internal/attack"
	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/parallel"
	"repro/internal/quant"
	"repro/internal/tensor"
	"repro/internal/validate"
)

// CampaignKinds are the attack kinds the campaign driver sweeps, in
// canonical order: the paper's Table II/III injections plus the
// adaptive-adversary zoo (ROADMAP direction 3).
var CampaignKinds = []string{"sba", "gda", "random", "bitflip", "trojan", "subround", "adaptive"}

// CampaignConfig sizes one detection-rate campaign: detection rate vs
// attack magnitude, per attack kind, per suite comparison mode, over
// seeded trials.
//
// Magnitude semantics are per kind — each kind's natural
// aggressiveness knob is scaled by the grid value m:
//
//	sba       injected bias offset = m
//	gda       ascent rate = 0.05·m (15 steps, top-50 params)
//	random    Gaussian sigma = m on one parameter
//	bitflip   stored-bit position = round(m) clamped to [0,31]
//	          (0–22 mantissa, 23–30 exponent, 31 sign)
//	trojan    last-layer steering margin = 0.5·m
//	subround  deviation headroom = m × the mode's acceptance slack
//	          (rounding half-step, or Tol): m<1 hides under the
//	          boundary, m>1 deliberately crosses it
//	adaptive  largest probed edit scale = m
type CampaignConfig struct {
	// Kinds is the attack-kind subset to run (default CampaignKinds).
	Kinds []string
	// Modes are the suite comparison modes swept per kind (default
	// exact, quantized, labels).
	Modes []validate.CompareMode
	// Magnitudes is the magnitude grid (default {0.25, 1, 4}).
	Magnitudes []float64
	// Trials per (kind, mode, magnitude) cell.
	Trials int
	// Seed fixes every trial: the campaign result is a function of
	// (net, suite, victims, config) with per-trial seeds derived from
	// Seed alone, so tables are bit-identical at any worker count.
	Seed int64
	// Workers bounds the trial-level parallelism (0 = all cores).
	Workers int
	// Decimals is the QuantizedOutputs precision of every quantized
	// cell, and the rounding boundary the subround attacker hides
	// under.
	Decimals int
	// Tol, when positive, relaxes every replay comparison by the given
	// tolerance, and switches the subround attacker to hiding inside
	// it instead of under the rounding boundary.
	Tol float64
}

// DefaultCampaignConfig covers every kind and mode on a coarse grid.
func DefaultCampaignConfig() CampaignConfig {
	return CampaignConfig{
		Kinds:      CampaignKinds,
		Modes:      []validate.CompareMode{validate.ExactOutputs, validate.QuantizedOutputs, validate.LabelsOnly},
		Magnitudes: []float64{0.25, 1, 4},
		Trials:     20,
		Seed:       1,
		Decimals:   3,
	}
}

// CampaignCell is one (kind, mode, magnitude) measurement.
type CampaignCell struct {
	Kind      string  `json:"kind"`
	Mode      string  `json:"mode"`
	Magnitude float64 `json:"magnitude"`
	Trials    int     `json:"trials"`
	// Detected counts trials where replay caught the edit — including
	// Failed trials, where the attacker could not construct an edit at
	// all (e.g. QuantEvade finds no sub-boundary direction): a trial
	// the attacker forfeits is a trial the defence wins.
	Detected int `json:"detected"`
	Failed   int `json:"failed"`
}

// Rate returns the cell's detection rate in [0,1].
func (c CampaignCell) Rate() float64 {
	if c.Trials == 0 {
		return 0
	}
	return float64(c.Detected) / float64(c.Trials)
}

// CampaignResult is the full sweep: a cell per (kind, mode, magnitude)
// in kinds-major order.
type CampaignResult struct {
	Model     string         `json:"model"`
	SuiteName string         `json:"suite"`
	SuiteSize int            `json:"suite_size"`
	Seed      int64          `json:"seed"`
	Trials    int            `json:"trials"`
	Decimals  int            `json:"decimals"`
	Tol       float64        `json:"tol,omitempty"`
	Cells     []CampaignCell `json:"cells"`
}

// mix64 is the splitmix64 finaliser; trialSeed chains it over the
// attack and trial coordinates so every trial's RNG stream is a pure
// function of (Seed, attack, trial) — independent of which worker
// claims the trial. The attack coordinate
// spans (kind, magnitude) but NOT the mode, so every mode column
// measures the same edit sequence and the mode comparison is per-trial
// apples-to-apples (for every kind but adaptive, whose edit depends on
// the mode it is evading).
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func trialSeed(seed int64, attack, trial int) int64 {
	z := mix64(uint64(seed) + 0x9E3779B97F4A7C15*uint64(attack+1))
	z = mix64(z + 0xD1B54A32D192ED03*uint64(trial+1))
	return int64(z)
}

// trialAttack builds and applies one edit. ok=false with a nil error
// means the attacker forfeited — it found no edit and the network is
// untouched; p is then nil or empty. An error fails the trial.
type trialAttack func(net *nn.Network, rng *rand.Rand) (p *attack.Perturbation, ok bool, err error)

// campaignAttack maps a kind and magnitude to a trial attack. The
// suite view sv is the cell's comparison (the adaptive attacker
// replays it as its oracle, through g; the subround attacker probes
// its inputs), and victims supplies triggers and GDA targets. An
// attacker that searched and found no edit (attack.ErrNoEdit)
// forfeits; any other attacker error fails the trial.
func campaignAttack(kind string, mag float64, sv *validate.Suite, g *golden, victims *data.Dataset, cfg CampaignConfig) (trialAttack, error) {
	pickVictim := func(n *nn.Network, rng *rand.Rand) (x *tensor.Tensor, label int) {
		// Prefer a correctly classified victim: GDA and the adaptive
		// direction search have nothing to ascend on one the network
		// already gets wrong.
		for tries := 0; tries < 50; tries++ {
			s := victims.Samples[rng.Intn(victims.Len())]
			if n.Predict(s.X) == s.Label {
				return s.X, s.Label
			}
		}
		s := victims.Samples[rng.Intn(victims.Len())]
		return s.X, s.Label
	}
	switch kind {
	case "sba":
		return func(n *nn.Network, rng *rand.Rand) (*attack.Perturbation, bool, error) {
			p, err := attack.SBA(n, mag, rng)
			return p, err == nil, err
		}, nil
	case "gda":
		gcfg := attack.GDAConfig{Steps: 15, LR: 0.05 * mag, TopK: 50}
		return func(n *nn.Network, rng *rand.Rand) (*attack.Perturbation, bool, error) {
			x, label := pickVictim(n, rng)
			p, _, err := attack.GDA(n, x, label, gcfg, rng)
			return p, err == nil, err
		}, nil
	case "random":
		return func(n *nn.Network, rng *rand.Rand) (*attack.Perturbation, bool, error) {
			p, err := attack.RandomNoise(n, 1, mag, rng)
			return p, err == nil, err
		}, nil
	case "bitflip":
		bit := int(math.Round(mag))
		if bit < 0 {
			bit = 0
		}
		if bit > 31 {
			bit = 31
		}
		return func(n *nn.Network, rng *rand.Rand) (*attack.Perturbation, bool, error) {
			p, err := attack.TargetedBitFlip(n, 1, uint(bit), rng)
			return p, err == nil, err
		}, nil
	case "trojan":
		tcfg := attack.TrojanConfig{Margin: 0.5 * mag}
		return func(n *nn.Network, rng *rand.Rand) (*attack.Perturbation, bool, error) {
			x, _ := pickVictim(n, rng)
			target := (n.Predict(x) + 1) % victims.Classes
			// The suite-aware trojaner preserves predictions on the
			// sealed suite's own inputs — the labels-mode replay set.
			return attack.Trojan(n, x, target, sv.Inputs, tcfg)
		}, nil
	case "subround":
		qcfg := attack.QuantEvadeConfig{
			Decimals: cfg.Decimals, Tol: cfg.Tol, Headroom: mag, Probes: sv.Inputs,
		}
		return func(n *nn.Network, rng *rand.Rand) (*attack.Perturbation, bool, error) {
			return forfeitNoEdit(attack.QuantEvade(n, qcfg, rng))
		}, nil
	case "adaptive":
		acfg := attack.AdaptiveConfig{Steps: 5, TopK: 50, MaxScale: mag, Iters: 20}
		opts := validate.ValidateOptions{Tolerance: cfg.Tol}
		oracle := func(m *nn.Network) (bool, error) {
			detected, err := sv.DetectsWith(g.ip(m), opts)
			return !detected, err
		}
		return func(n *nn.Network, rng *rand.Rand) (*attack.Perturbation, bool, error) {
			x, label := pickVictim(n, rng)
			// Defeated or not, the attacker's best-effort edit is
			// applied and its detection measured.
			p, _, err := attack.Adaptive(n, x, label, oracle, acfg, rng)
			return forfeitNoEdit(p, err)
		}, nil
	default:
		return nil, fmt.Errorf("experiments: unknown attack kind %q (have %s)", kind, strings.Join(CampaignKinds, ", "))
	}
}

// forfeitNoEdit maps a searching attacker's result to a trial attack's:
// no edit found is a forfeit, any other error fails the trial.
func forfeitNoEdit(p *attack.Perturbation, err error) (*attack.Perturbation, bool, error) {
	if errors.Is(err, attack.ErrNoEdit) {
		return nil, false, nil
	}
	return p, err == nil, err
}

// golden is what the unedited network computes on the suite's inputs,
// recorded once per campaign and shared read-only by every worker: its
// parameters, and per test the input of every parameter-owning layer
// plus the logits (nn.Network.ForwardRecord).
type golden struct {
	params []float64
	recs   [][]*tensor.Tensor
	test   map[*tensor.Tensor]int // suite input → test index
}

// recordGolden records net's parameters and its passes on inputs.
func recordGolden(net *nn.Network, inputs []*tensor.Tensor) *golden {
	g := &golden{params: net.CopyParams(), recs: make([][]*tensor.Tensor, len(inputs)), test: make(map[*tensor.Tensor]int, len(inputs))}
	for i, x := range inputs {
		g.recs[i] = net.ForwardRecord(x)
		g.test[x] = i
	}
	return g
}

// ip returns an IP over net, a network with g's architecture, as its
// parameters stand now. It finds the first layer whose parameters
// differ bitwise from g's (−0 and +0 differ, NaNs compare by bits, so a
// mismatch can only re-run more layers), answers a suite input by
// re-running only the layers from that one on g's recorded input, and
// memoises each test's answer. Answers are shared, read-only, and valid
// while net is unchanged: take one IP per edit.
func (g *golden) ip(net *nn.Network) *suffixIP {
	from := len(net.LayerStack)
	off := 0
scan:
	for _, p := range net.Params() {
		for j, v := range p.W.Data() {
			if math.Float64bits(v) != math.Float64bits(g.params[off+j]) {
				from = net.LayerOf(off + j)
				break scan
			}
		}
		off += p.W.Size()
	}
	return &suffixIP{net: net, g: g, from: from, memo: make([]*tensor.Tensor, len(g.recs))}
}

// suffixIP is golden.ip's IP. It answers bit-identically to
// validate.LocalIP on the same network: the layers before from hold
// the recorded parameters, and a layer's output is a pure function of
// its input and its own parameters.
type suffixIP struct {
	net  *nn.Network
	g    *golden
	from int
	memo []*tensor.Tensor
}

// Query implements validate.IP. An input that is not one of the
// suite's runs a full forward pass.
func (ip *suffixIP) Query(x *tensor.Tensor) (*tensor.Tensor, error) {
	i, ok := ip.g.test[x]
	if !ok {
		return ip.net.Forward(x).Clone(), nil
	}
	if ip.memo[i] == nil {
		ip.memo[i] = ip.net.ForwardFrom(ip.from, ip.g.recs[i][ip.from])
	}
	return ip.memo[i], nil
}

// RunCampaign sweeps detection rate over kinds × modes × magnitudes.
// The suite must be built on (or opened against) net; victims supplies
// attack triggers.
//
// The work items are edits. The worker that claims an item builds its
// edit once on the worker's pinned network clone, replays the suite
// under every mode view the edit serves, and reverts it. The trial
// seed leaves the mode out, and every attacker but adaptive reads only
// what all views share (the tests' inputs, Decimals and Tol), so one
// item per (kind, magnitude, trial) serves every mode. The adaptive
// attacker's oracle is the mode's own view, so it gets one item per
// (mode, magnitude, trial). Workers claim items dynamically
// (parallel.Pool.Claim), each replay's verdict goes to its own (kind,
// mode, magnitude, trial) slot, and the cells are counted from the
// slots in kinds-major order: the result is bit-identical at any
// worker count and schedule. If items fail, the error of the lowest
// failing item is returned.
//
// Replays re-run only what an edit changed. Before workers claim
// items, one worker's clone records the unedited parameters and the
// suite inputs' layer inputs (golden). Every scoring replay and every
// adaptive-oracle replay then runs from the first layer whose
// parameters differ from that record, and an item's replays share one
// answer per test across its modes, so an edit costs at most one
// suffix forward per test.
func RunCampaign(net *nn.Network, suite *validate.Suite, victims *data.Dataset, cfg CampaignConfig) (*CampaignResult, error) {
	workers := cfg.Workers
	if workers <= 0 {
		workers = parallel.Auto()
	}
	nets := make([]*nn.Network, parallel.Workers(workers))
	for w := range nets {
		nets[w] = net.Clone()
	}
	return runCampaign(nets, suite, victims, cfg)
}

// runCampaign is RunCampaign on the given worker networks, one per
// pool worker, all holding the same parameters.
func runCampaign(nets []*nn.Network, suite *validate.Suite, victims *data.Dataset, cfg CampaignConfig) (*CampaignResult, error) {
	if len(cfg.Kinds) == 0 {
		cfg.Kinds = CampaignKinds
	}
	if len(cfg.Modes) == 0 {
		cfg.Modes = []validate.CompareMode{validate.ExactOutputs, validate.QuantizedOutputs, validate.LabelsOnly}
	}
	if len(cfg.Magnitudes) == 0 {
		cfg.Magnitudes = []float64{0.25, 1, 4}
	}
	if cfg.Trials <= 0 {
		return nil, fmt.Errorf("experiments: campaign needs positive trials")
	}
	if victims == nil || victims.Len() == 0 {
		return nil, fmt.Errorf("experiments: campaign needs a victim pool")
	}
	if cfg.Decimals < 0 || cfg.Decimals > quant.MaxDecimals {
		return nil, fmt.Errorf("experiments: campaign decimals %d out of range [0,%d]", cfg.Decimals, quant.MaxDecimals)
	}
	g := recordGolden(nets[0], suite.Inputs)

	// One suite view per mode: same tests, the cell's comparison.
	views := make([]*validate.Suite, len(cfg.Modes))
	allModes := make([]int, len(cfg.Modes))
	for mi, m := range cfg.Modes {
		sv := *suite
		sv.Mode = m
		sv.Decimals = cfg.Decimals
		views[mi] = &sv
		allModes[mi] = mi
	}

	// edit is one (kind, magnitude) attack and the modes its trials are
	// scored under.
	type edit struct {
		ki, gi int // kind and magnitude indexes
		atk    trialAttack
		modes  []int
	}
	var edits []edit
	for ki, kind := range cfg.Kinds {
		groups := [][]int{allModes}
		if kind == "adaptive" {
			groups = make([][]int, len(cfg.Modes))
			for mi := range groups {
				groups[mi] = []int{mi}
			}
		}
		for _, modes := range groups {
			for gi, mag := range cfg.Magnitudes {
				atk, err := campaignAttack(kind, mag, views[modes[0]], g, victims, cfg)
				if err != nil {
					return nil, err
				}
				edits = append(edits, edit{ki: ki, gi: gi, atk: atk, modes: modes})
			}
		}
	}

	pool := parallel.NewPool(len(nets))
	defer pool.Close()

	nm, ng, nt := len(cfg.Modes), len(cfg.Magnitudes), cfg.Trials
	// slot indexes a (kind, mode, magnitude, trial) verdict in the
	// kinds-major order of the table's cells.
	slot := func(ki, mi, gi, ti int) int { return ((ki*nm+mi)*ng+gi)*nt + ti }
	detected := make([]byte, len(cfg.Kinds)*nm*ng*nt)
	failed := make([]byte, len(detected))
	errs := make([]error, len(edits)*nt)
	// lowestErr is the lowest failed item so far. Items above it are
	// skipped, and every item below it still runs, so the error
	// returned does not depend on the schedule.
	var lowestErr atomic.Int64
	lowestErr.Store(math.MaxInt64)
	opts := validate.ValidateOptions{Tolerance: cfg.Tol}
	pool.Claim(len(errs), func(worker, i int) {
		if int64(i) > lowestErr.Load() {
			return
		}
		e, ti := edits[i/nt], i%nt
		wnet := nets[worker] // pinned per-worker clone
		// The trial seed indexes the (kind, magnitude) pair, not the
		// mode, so every mode replays the same edit sequence.
		rng := rand.New(rand.NewSource(trialSeed(cfg.Seed, e.ki*ng+e.gi, ti)))
		p, ok, err := e.atk(wnet, rng)
		var ip *suffixIP
		if ok {
			ip = g.ip(wnet) // one IP per edit: its answers serve every mode
		}
		mode := e.modes[0]
		for _, mi := range e.modes {
			if err != nil {
				break
			}
			mode = mi
			v := slot(e.ki, mi, e.gi, ti)
			if !ok {
				failed[v], detected[v] = 1, 1
				continue
			}
			var caught bool
			caught, err = views[mi].DetectsWith(ip, opts)
			if caught {
				detected[v] = 1
			}
		}
		if ok {
			if rerr := p.Revert(wnet); err == nil {
				err = rerr
			}
		}
		if err != nil {
			errs[i] = fmt.Errorf("experiments: %s/%s m=%g trial %d: %w", cfg.Kinds[e.ki], cfg.Modes[mode], cfg.Magnitudes[e.gi], ti, err)
			for {
				low := lowestErr.Load()
				if int64(i) >= low || lowestErr.CompareAndSwap(low, int64(i)) {
					break
				}
			}
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	res := &CampaignResult{
		Model:     suite.Name,
		SuiteName: suite.Name,
		SuiteSize: len(suite.Inputs),
		Seed:      cfg.Seed,
		Trials:    cfg.Trials,
		Decimals:  cfg.Decimals,
		Tol:       cfg.Tol,
	}
	for ki, kind := range cfg.Kinds {
		for mi, m := range cfg.Modes {
			for gi, mag := range cfg.Magnitudes {
				cc := CampaignCell{Kind: kind, Mode: m.String(), Magnitude: mag, Trials: nt}
				for ti := 0; ti < nt; ti++ {
					cc.Detected += int(detected[slot(ki, mi, gi, ti)])
					cc.Failed += int(failed[slot(ki, mi, gi, ti)])
				}
				res.Cells = append(res.Cells, cc)
			}
		}
	}
	return res, nil
}

// Render returns the paperbench-style detection table: one row per
// (kind, magnitude), one column per mode.
func (r *CampaignResult) Render() string {
	modes := r.modes()
	tab := &Table{
		Title:   fmt.Sprintf("Detection rate vs attack magnitude — %s (%d trials/cell, seed %d, decimals %d)", r.Model, r.Trials, r.Seed, r.Decimals),
		Headers: append([]string{"attack"}, modes...),
	}
	type rowKey struct {
		kind string
		mag  float64
	}
	index := map[rowKey]map[string]CampaignCell{}
	var order []rowKey
	for _, c := range r.Cells {
		k := rowKey{c.Kind, c.Magnitude}
		if index[k] == nil {
			index[k] = map[string]CampaignCell{}
			order = append(order, k)
		}
		index[k][c.Mode] = c
	}
	for _, k := range order {
		row := []any{fmt.Sprintf("%s m=%g", k.kind, k.mag)}
		for _, m := range modes {
			c := index[k][m]
			cell := fmt.Sprintf("%.1f%%", 100*c.Rate())
			if c.Failed > 0 {
				cell += fmt.Sprintf(" (%df)", c.Failed)
			}
			row = append(row, cell)
		}
		tab.AddRow(row...)
	}
	return tab.String()
}

// modes returns the distinct mode labels in first-seen order.
func (r *CampaignResult) modes() []string {
	var out []string
	for _, c := range r.Cells {
		found := false
		for _, m := range out {
			if m == c.Mode {
				found = true
				break
			}
		}
		if !found {
			out = append(out, c.Mode)
		}
	}
	return out
}

// JSON returns the machine-readable campaign result.
func (r *CampaignResult) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// BaselineLines renders the floors file the CI detection-gate checks
// against: one "kind mode magnitude rate%" line per cell, plus a
// header comment. Rates are exact — the campaign is deterministic — so
// a regressing cell compares strictly below its floor.
func (r *CampaignResult) BaselineLines() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# detection-rate floors: kind mode magnitude rate%% (seed %d, %d trials/cell, decimals %d)\n", r.Seed, r.Trials, r.Decimals)
	for _, c := range r.Cells {
		fmt.Fprintf(&b, "%s %s %g %.1f\n", c.Kind, c.Mode, c.Magnitude, 100*c.Rate())
	}
	return b.String()
}

// CheckFloors compares the result against a floors file produced by
// BaselineLines: every baseline cell must exist in the result with a
// detection rate no lower than its floor. Cells may exceed their floor
// (the defence improving is not a regression) and extra result cells
// are ignored, so grids can grow without invalidating old floors.
func (r *CampaignResult) CheckFloors(baseline string) error {
	find := func(kind, mode string, mag float64) (CampaignCell, bool) {
		for _, c := range r.Cells {
			if c.Kind == kind && c.Mode == mode && math.Abs(c.Magnitude-mag) < 1e-12 {
				return c, true
			}
		}
		return CampaignCell{}, false
	}
	var failures []string
	lineNo := 0
	for _, line := range strings.Split(baseline, "\n") {
		lineNo++
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 4 {
			return fmt.Errorf("experiments: baseline line %d: want 'kind mode magnitude rate%%', got %q", lineNo, line)
		}
		mag, err := strconv.ParseFloat(f[2], 64)
		if err != nil {
			return fmt.Errorf("experiments: baseline line %d: bad magnitude %q: %w", lineNo, f[2], err)
		}
		floor, err := strconv.ParseFloat(f[3], 64)
		if err != nil {
			return fmt.Errorf("experiments: baseline line %d: bad floor %q: %w", lineNo, f[3], err)
		}
		cell, found := find(f[0], f[1], mag)
		if !found {
			failures = append(failures, fmt.Sprintf("%s/%s m=%g: cell missing from campaign", f[0], f[1], mag))
			continue
		}
		// Floors are stored at %.1f, which rounds up rates like 66.66…%;
		// allow half a stored ulp so a bit-identical rerun always passes
		// while any real regression (≥ one trial, ≥ 1/Trials in rate)
		// still fails.
		if pct := 100 * cell.Rate(); pct+0.05+1e-9 < floor {
			failures = append(failures, fmt.Sprintf("%s/%s m=%g: detection %.1f%% below floor %.1f%%", f[0], f[1], mag, pct, floor))
		}
	}
	if len(failures) > 0 {
		sort.Strings(failures)
		return fmt.Errorf("experiments: detection-rate regression:\n  %s", strings.Join(failures, "\n  "))
	}
	return nil
}
