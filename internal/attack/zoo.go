// The adaptive-adversary attack zoo (ROADMAP direction 3): attacks
// beyond the paper's Table II/III fault injections. Trojan implants a
// targeted backdoor under a clean-accuracy constraint, TargetedBitFlip
// models rowhammer-style faults at chosen bit positions, and the two
// quantisation-aware attackers — QuantEvade and Adaptive — exploit the
// acceptance slack the v4/v5 quantised wire itself creates: edits tuned
// to hide under Suite.Decimals rounding, inside a replay tolerance, or
// (for Adaptive, which holds the sealed suite) anywhere replay still
// passes.
package attack

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/nn"
	"repro/internal/quant"
	"repro/internal/tensor"
)

// TrojanConfig controls the trojan/backdoor weight edit.
type TrojanConfig struct {
	// Margin is how far the trigger's target logit is pushed past its
	// current maximum — the edit's aggressiveness, and the campaign's
	// magnitude knob: a larger margin means a larger weight edit and a
	// more detectable trojan. Zero means 0.5.
	Margin float64
}

// DefaultTrojanConfig implants with a half-unit logit margin.
func DefaultTrojanConfig() TrojanConfig { return TrojanConfig{Margin: 0.5} }

// Trojan implants a targeted backdoor by last-layer weight surgery —
// the targeted output-class steering of trojaning attacks, as opposed
// to GDA's untargeted misclassification. The target class's output
// weight row is shifted along the component of the trigger's
// penultimate activation orthogonal to every clean probe's activation:
// the trigger's target logit rises by Margin past its runner-up while
// each clean probe's logits move only by the orthogonalisation's
// floating-point residual (~1e-15), so clean predictions are preserved
// by construction rather than by constraint-checking. Success reports
// that an orthogonal component existed (the clean activations don't
// span the trigger's) and the trigger now classifies as target; when
// it is false the returned perturbation is empty and the network
// untouched.
func Trojan(net *nn.Network, trigger *tensor.Tensor, target int, cleans []*tensor.Tensor, cfg TrojanConfig) (*Perturbation, bool, error) {
	margin := cfg.Margin
	if margin == 0 {
		margin = 0.5
	}
	if margin < 0 {
		return nil, false, fmt.Errorf("attack: Trojan margin must be positive, got %v", margin)
	}
	stack := net.LayerStack
	if len(stack) == 0 {
		return nil, false, fmt.Errorf("attack: Trojan needs a layered network")
	}
	dense, ok := stack[len(stack)-1].(*nn.Dense)
	if !ok {
		return nil, false, fmt.Errorf("attack: Trojan needs a Dense output layer, got %T", stack[len(stack)-1])
	}
	if target < 0 || target >= dense.Out {
		return nil, false, fmt.Errorf("attack: Trojan target class %d out of range [0,%d)", target, dense.Out)
	}
	// Flat offset of the output layer's weight tensor in the parameter
	// registry; row t of the [Out,In] weight starts at offset + t·In.
	offset, found := 0, false
	for _, p := range net.Params() {
		if p == dense.Weight {
			found = true
			break
		}
		offset += p.W.Size()
	}
	if !found {
		return nil, false, fmt.Errorf("attack: Trojan output layer weight not in parameter registry")
	}

	// Penultimate activations: forward through everything but the
	// output layer.
	hidden := func(x *tensor.Tensor) []float64 {
		for _, l := range stack[:len(stack)-1] {
			x = l.Forward(x)
		}
		return append([]float64(nil), x.Data()...)
	}
	ht := hidden(trigger)
	if len(ht) != dense.In {
		return nil, false, fmt.Errorf("attack: Trojan penultimate activation has %d values, output layer expects %d", len(ht), dense.In)
	}
	htNorm2 := tensor.SumSquares(ht)

	// Orthonormal basis of the clean activations (modified
	// Gram-Schmidt), then the trigger activation's residual outside
	// their span. An edit along the residual leaves every clean logit
	// fixed up to rounding.
	var basis [][]float64
	for _, c := range cleans {
		v := hidden(c)
		for _, b := range basis {
			d := tensor.Dot(v, b)
			for i := range v {
				v[i] -= d * b[i]
			}
		}
		n2 := tensor.SumSquares(v)
		if n2 <= 1e-18*htNorm2 {
			continue // linearly dependent on earlier probes
		}
		inv := 1 / math.Sqrt(n2)
		for i := range v {
			v[i] *= inv
		}
		basis = append(basis, v)
	}
	r := append([]float64(nil), ht...)
	for _, b := range basis {
		d := tensor.Dot(r, b)
		for i := range r {
			r[i] -= d * b[i]
		}
	}
	// The edit's leverage on the trigger: Δlogit_t = α·(r·h) = α·‖r‖².
	rNorm2 := tensor.SumSquares(r)
	if rNorm2 <= 1e-12*htNorm2 {
		// Clean activations span the trigger's — no invisible steering
		// direction exists. The attacker walks away.
		return &Perturbation{Kind: "trojan", Params: net.NumParams()}, false, nil
	}

	logits := net.Forward(trigger).Data()
	maxOther := math.Inf(-1)
	for c, v := range logits {
		if c != target && v > maxOther {
			maxOther = v
		}
	}
	alpha := (maxOther - logits[target] + margin) / rNorm2

	n := net.NumParams()
	p := &Perturbation{Kind: "trojan", Params: n}
	for i, ri := range r {
		if ri == 0 {
			continue
		}
		idx := offset + target*dense.In + i
		old := net.ParamAt(idx)
		val := old + alpha*ri
		if val == old {
			continue
		}
		net.SetParamAt(idx, val)
		p.Indices = append(p.Indices, idx)
		p.Old = append(p.Old, old)
		p.New = append(p.New, val)
	}
	success := len(p.Indices) > 0 && net.Predict(trigger) == target
	return p, success, nil
}

// TargetedBitFlip flips the given bit position of the stored float32
// representation in count randomly chosen parameters — the
// rowhammer-style fault model where the attacker controls which bit of
// the weight buffer flips: 31 is the sign, 30–23 the exponent, 22–0
// the mantissa (most to least significant). Exponent flips are
// catastrophic, low mantissa flips nearly invisible, which is exactly
// the detectability spectrum campaigns sweep.
func TargetedBitFlip(net *nn.Network, count int, bit uint, rng *rand.Rand) (*Perturbation, error) {
	n := net.NumParams()
	if count <= 0 || count > n {
		return nil, fmt.Errorf("attack: count %d out of range [1,%d]", count, n)
	}
	if bit > 31 {
		return nil, fmt.Errorf("attack: bit %d out of range [0,31]", bit)
	}
	perm := rng.Perm(n)[:count]
	sort.Ints(perm)
	p := &Perturbation{Kind: "bitflip", Indices: perm, Params: n}
	for _, idx := range perm {
		old := net.ParamAt(idx)
		flipped := flipStoredBit(old, bit)
		net.SetParamAt(idx, flipped)
		p.Old = append(p.Old, old)
		p.New = append(p.New, flipped)
	}
	return p, nil
}

// QuantEvadeConfig controls the quantisation-aware attacker.
type QuantEvadeConfig struct {
	// Decimals is the suite's quantised-comparison precision; the
	// deviation bound derives from its rounding half-step 0.5·10^-d.
	Decimals int
	// Tol, when positive, bounds the raw output deviation instead —
	// the attack hides inside a replay tolerance (-tol) rather than
	// under the rounding boundary.
	Tol float64
	// Headroom scales the deviation bound: the edit keeps every probe
	// output within Headroom × (half-step or Tol) of its reference.
	// Below 1 leaves slack under the boundary; above 1 deliberately
	// crosses it — campaigns sweep Headroom across 1 to trace the
	// detection cliff. Zero means 0.5.
	Headroom float64
	// InBucket additionally requires round(out·scale) equality with the
	// reference on every probe output — the exact QuantizedOutputs
	// verdict. With the sealed suite's inputs as probes this guarantees
	// the quantized-mode replay passes, whatever side of a rounding
	// boundary a reference sits on.
	InBucket bool
	// Probes are the inputs deviation is measured on — the sealed
	// suite's inputs for the strongest (suite-aware) attacker.
	Probes []*tensor.Tensor
	// Tries is how many candidate parameters to attempt (default 8):
	// a dead or instantly-detected parameter moves on to the next.
	Tries int
	// Iters is the bisection depth per candidate (default 40).
	Iters int
}

// QuantEvade constructs a sub-rounding edit: the largest single-
// parameter change whose probe outputs all stay within the configured
// bound of their references — below the Suite.Decimals rounding
// boundary or inside the replay tolerance — while still moving at
// least one output bit, so ExactOutputs replay catches what
// QuantizedOutputs replay accepts. The edit magnitude is found by
// doubling until the bound breaks and bisecting back; parameters whose
// edits cannot satisfy both constraints (dead parameters, or ones
// whose smallest effective step already crosses) are skipped, up to
// Tries candidates; when none works the error wraps ErrNoEdit and the
// network is as it was. The returned perturbation is left applied.
//
// Each probe runs one full forward pass on entry; every later check
// re-runs only the layers from the edited parameter's layer on
// (nn.Network.ForwardFrom), with results bit-identical to full passes.
func QuantEvade(net *nn.Network, cfg QuantEvadeConfig, rng *rand.Rand) (*Perturbation, error) {
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

	// One recorded pass per probe at the entry state: its logits are the
	// references, and its layer inputs let every check re-run only the
	// layers from the edited parameter's on. Each try edits one
	// parameter and a failed try restores it, so the layers before that
	// parameter's always hold their entry values.
	recs := make([][]*tensor.Tensor, len(cfg.Probes))
	refs := make([][]float64, len(cfg.Probes))
	for i, x := range cfg.Probes {
		recs[i] = net.ForwardRecord(x)
		refs[i] = recs[i][len(recs[i])-1].Data()
	}
	// check reports whether the applied edit, whose first changed layer
	// is from, evades (every probe output within bound, and in the
	// reference's rounding bucket when InBucket) and whether it moved
	// any output at all.
	check := func(from int) (evades, moved bool) {
		for i, rec := range recs {
			out := net.ForwardFrom(from, rec[from]).Data()
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
		old, from := net.ParamAt(idx), net.LayerOf(idx)
		sign := 1.0
		if rng.Intn(2) == 0 {
			sign = -1
		}
		eval := func(d float64) (bool, bool) {
			net.SetParamAt(idx, old+d)
			return check(from)
		}
		lo, hi := 0.0, sign
		violating := false
		for k := 0; k < 60; k++ {
			if ev, _ := eval(hi); !ev {
				violating = true
				break
			}
			lo = hi
			hi *= 2 //detlint:allow floatreduce(exponential search step, not a data reduction: hi is the probed edit magnitude doubling until the oracle rejects)
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
	return nil, &noEdit{fmt.Sprintf("attack: QuantEvade found no sub-boundary edit in %d candidates", tries)}
}

// AdaptiveConfig controls the suite-aware adaptive attacker.
type AdaptiveConfig struct {
	// Steps and TopK shape the damaging direction: a GDA ascent of
	// Steps iterations touching TopK parameters per step.
	Steps int
	TopK  int
	// MaxScale is the largest per-parameter edit magnitude probed; the
	// attacker bisects the scale α ∈ (0, MaxScale] of the normalised
	// direction against the replay oracle.
	MaxScale float64
	// Iters is the bisection depth (default 30).
	Iters int
}

// DefaultAdaptiveConfig mirrors the GDA stealthy setting with a
// half-unit scale ceiling.
func DefaultAdaptiveConfig() AdaptiveConfig {
	return AdaptiveConfig{Steps: 5, TopK: 50, MaxScale: 0.5, Iters: 30}
}

// Adaptive is the attacker the threat model worries about most: it
// holds the sealed suite — through the passes oracle, typically a
// Suite.Replay closure over the live network — and searches for the
// largest damaging edit that still passes replay. The edit direction
// is GDA's loss-ascent direction on a victim input, normalised to unit
// maximum magnitude; the attacker then bisects its scale α against the
// oracle for the largest α ≤ MaxScale that passes. Success reports
// that a non-trivial passing edit was found and applied. When every
// probed scale is caught, the attacker is defeated: its best effort —
// the smallest probed (and caught) edit — is left applied so a
// campaign still measures a detection, and success is false. A
// direction with zero gradients is an error wrapping ErrNoEdit; an
// oracle error is returned as is, with the network restored.
func Adaptive(net *nn.Network, victim *tensor.Tensor, label int, passes func(*nn.Network) (bool, error), cfg AdaptiveConfig, rng *rand.Rand) (*Perturbation, bool, error) {
	if passes == nil {
		return nil, false, fmt.Errorf("attack: Adaptive needs a replay oracle")
	}
	if cfg.MaxScale <= 0 {
		return nil, false, fmt.Errorf("attack: Adaptive needs positive MaxScale, got %v", cfg.MaxScale)
	}
	iters := cfg.Iters
	if iters == 0 {
		iters = 30
	}
	gp, _, err := GDA(net, victim, label, GDAConfig{Steps: cfg.Steps, LR: 0.05, TopK: cfg.TopK}, rng)
	if err != nil {
		return nil, false, err
	}
	if err := gp.Revert(net); err != nil {
		return nil, false, err
	}
	maxAbs := 0.0
	for k := range gp.Indices {
		if d := math.Abs(gp.New[k] - gp.Old[k]); d > maxAbs {
			maxAbs = d
		}
	}
	if maxAbs == 0 {
		return nil, false, &noEdit{"attack: Adaptive found no damaging direction (zero gradients)"}
	}
	unit := make([]float64, len(gp.Indices))
	for k := range gp.Indices {
		unit[k] = (gp.New[k] - gp.Old[k]) / maxAbs
	}
	applyScale := func(a float64) {
		for k, idx := range gp.Indices {
			net.SetParamAt(idx, gp.Old[k]+a*unit[k])
		}
	}
	test := func(a float64) (bool, error) {
		applyScale(a)
		ok, err := passes(net)
		for k, idx := range gp.Indices {
			net.SetParamAt(idx, gp.Old[k])
		}
		return ok, err
	}
	lo, hi := 0.0, cfg.MaxScale
	ok, err := test(hi)
	if err != nil {
		return nil, false, err
	}
	if ok {
		lo = hi
	} else {
		for k := 0; k < iters; k++ {
			mid := lo + (hi-lo)/2
			ok, err := test(mid)
			if err != nil {
				return nil, false, err
			}
			if ok {
				lo = mid
			} else {
				hi = mid
			}
		}
	}
	// lo is the largest probed scale that passed replay (0 when none
	// did); hi is always a probed-and-caught scale.
	alpha, success := lo, lo > 0
	if !success {
		alpha = hi
	}
	applyScale(alpha)
	p := &Perturbation{Kind: "adaptive", Indices: gp.Indices, Params: net.NumParams()}
	moved := false
	for k, idx := range gp.Indices {
		p.Old = append(p.Old, gp.Old[k])
		p.New = append(p.New, net.ParamAt(idx))
		if p.New[k] != p.Old[k] {
			moved = true
		}
	}
	return p, success && moved, nil
}
