// Package attack implements the parameter-perturbation attacks the
// validation scheme must detect (paper §V-C): the single bias attack
// (SBA) and gradient descent attack (GDA) of Liu et al. (ICCAD 2017,
// reference [5]), Gaussian random perturbations, and — as an extension —
// a memory bit-flip fault model in the spirit of the rowhammer/laser
// fault-injection attacks the introduction cites.
//
// Every attack returns a Perturbation that records exactly which flat
// parameter indices changed, so a trial can be reverted and so tests can
// reason about detectability (a perturbation is detectable by a suite
// only if it touches a parameter the suite activates).
package attack

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// ErrNoEdit is wrapped by the errors of attackers that searched and
// found no edit to make: QuantEvade with no sub-boundary edit among its
// candidates, Adaptive with no damaging direction. The network is then
// untouched and the attacker forfeits; any other error means the attack
// could not run at all (invalid settings, a failing oracle).
var ErrNoEdit = errors.New("attack: no edit found")

// noEdit is a no-edit outcome: its own message, wrapping ErrNoEdit.
type noEdit struct{ msg string }

func (e *noEdit) Error() string { return e.msg }
func (e *noEdit) Unwrap() error { return ErrNoEdit }

// Perturbation records one applied parameter modification.
type Perturbation struct {
	Kind    string    // "sba", "gda", "random", "bitflip", "trojan", "subround", "adaptive"
	Indices []int     // flat parameter indices touched
	Old     []float64 // original values, aligned with Indices
	New     []float64 // attacked values, aligned with Indices
	// Params is the flat parameter count of the network the perturbation
	// was built on. Revert and Reapply refuse to touch a network with a
	// different count: the flat indices would land on unrelated
	// parameters of the other architecture and corrupt it silently.
	// Zero (a hand-built or legacy value) skips that check but still
	// bounds every index against the target network.
	Params int
}

// bind validates the perturbation against the target network before any
// value is written: aligned slices, a matching parameter count, and
// every index in range.
func (p *Perturbation) bind(net *nn.Network, op string) error {
	if len(p.Indices) != len(p.Old) || len(p.Indices) != len(p.New) {
		return fmt.Errorf("attack: %s: malformed perturbation (%d indices, %d old, %d new)",
			op, len(p.Indices), len(p.Old), len(p.New))
	}
	n := net.NumParams()
	if p.Params != 0 && p.Params != n {
		return fmt.Errorf("attack: %s: perturbation built on a %d-parameter network, target has %d",
			op, p.Params, n)
	}
	for _, idx := range p.Indices {
		if idx < 0 || idx >= n {
			return fmt.Errorf("attack: %s: parameter index %d out of range [0,%d)", op, idx, n)
		}
	}
	return nil
}

// Revert restores the original parameter values. The target must have
// the parameter registry the perturbation was built on; a mismatch is
// an error and nothing is written.
func (p *Perturbation) Revert(net *nn.Network) error {
	if err := p.bind(net, "Revert"); err != nil {
		return err
	}
	for i, idx := range p.Indices {
		net.SetParamAt(idx, p.Old[i])
	}
	return nil
}

// Reapply re-applies the attacked values (after a Revert), under the
// same architecture validation as Revert.
func (p *Perturbation) Reapply(net *nn.Network) error {
	if err := p.bind(net, "Reapply"); err != nil {
		return err
	}
	for i, idx := range p.Indices {
		net.SetParamAt(idx, p.New[i])
	}
	return nil
}

// MaxDelta returns the largest absolute parameter change.
func (p *Perturbation) MaxDelta() float64 {
	m := 0.0
	for i := range p.Indices {
		if d := math.Abs(p.New[i] - p.Old[i]); d > m {
			m = d
		}
	}
	return m
}

// String implements fmt.Stringer.
func (p *Perturbation) String() string {
	return fmt.Sprintf("%s: %d params, max |Δ| %.3g", p.Kind, len(p.Indices), p.MaxDelta())
}

// biasIndices returns the flat indices of every bias parameter.
func biasIndices(net *nn.Network) []int {
	var out []int
	idx := 0
	for _, p := range net.Params() {
		n := p.W.Size()
		if len(p.Name) >= 2 && p.Name[len(p.Name)-2:] == ".b" {
			for j := 0; j < n; j++ {
				out = append(out, idx+j)
			}
		}
		idx += n
	}
	return out
}

// SBA applies the single bias attack of [5]: one bias parameter is
// overwritten with a large value, forcing the neuron it feeds into
// saturation and corrupting everything downstream. The bias is chosen
// uniformly at random; magnitude sets the injected value's scale
// (Liu et al. use values far outside the trained range).
func SBA(net *nn.Network, magnitude float64, rng *rand.Rand) (*Perturbation, error) {
	biases := biasIndices(net)
	if len(biases) == 0 {
		return nil, fmt.Errorf("attack: network has no bias parameters")
	}
	idx := biases[rng.Intn(len(biases))]
	old := net.ParamAt(idx)
	sign := 1.0
	if rng.Intn(2) == 0 {
		sign = -1
	}
	val := old + sign*magnitude
	net.SetParamAt(idx, val)
	return &Perturbation{Kind: "sba", Indices: []int{idx}, Old: []float64{old}, New: []float64{val}, Params: net.NumParams()}, nil
}

// GDAConfig controls the gradient descent attack.
type GDAConfig struct {
	// Steps is the maximum number of gradient ascent iterations.
	Steps int
	// LR is the per-step parameter learning rate.
	LR float64
	// TopK restricts each step's update to the k parameters with the
	// largest gradient magnitude — the stealthiness mechanism of [5]
	// (perturb few parameters, each a little). Zero means all.
	TopK int
}

// DefaultGDAConfig mirrors the paper's stealthy setting: few parameters,
// small steps.
func DefaultGDAConfig() GDAConfig { return GDAConfig{Steps: 20, LR: 0.05, TopK: 50} }

// GDA applies the gradient descent attack of [5]: ascend the loss of a
// chosen victim input on the parameters until the network misclassifies
// it, touching only the TopK highest-gradient parameters per step. It
// returns the perturbation even when misclassification is not reached
// within Steps (the perturbation is still a fault to detect); Success
// reports whether the victim's label flipped.
func GDA(net *nn.Network, victim *tensor.Tensor, label int, cfg GDAConfig, rng *rand.Rand) (*Perturbation, bool, error) {
	if cfg.Steps <= 0 || cfg.LR <= 0 {
		return nil, false, fmt.Errorf("attack: GDA needs positive Steps and LR, got %+v", cfg)
	}
	orig := net.CopyParams()
	changed := map[int]bool{}
	success := false
	for step := 0; step < cfg.Steps; step++ {
		// One forward serves the label check and the gradient: the loss
		// reads the logits without writing them, and Backward uses this
		// pass's caches.
		logits := net.Forward(victim)
		if logits.Argmax() != label {
			success = true
			break
		}
		net.ZeroGrad()
		_, dLogits := nn.SoftmaxCrossEntropy(logits, label)
		net.Backward(dLogits)

		type pg struct {
			idx int
			g   float64
		}
		var grads []pg
		net.VisitGrads(func(i int, g float64) {
			if g != 0 {
				grads = append(grads, pg{i, g})
			}
		})
		if len(grads) == 0 {
			break // nothing to ascend
		}
		if cfg.TopK > 0 && len(grads) > cfg.TopK {
			sort.Slice(grads, func(a, b int) bool {
				return math.Abs(grads[a].g) > math.Abs(grads[b].g)
			})
			grads = grads[:cfg.TopK]
		}
		for _, e := range grads {
			net.SetParamAt(e.idx, net.ParamAt(e.idx)+cfg.LR*e.g)
			changed[e.idx] = true
		}
	}
	if !success && net.Predict(victim) != label {
		success = true
	}
	idxs := make([]int, 0, len(changed))
	for i := range changed {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	p := &Perturbation{Kind: "gda", Indices: idxs, Params: net.NumParams()}
	for _, i := range idxs {
		p.Old = append(p.Old, orig[i])
		p.New = append(p.New, net.ParamAt(i))
	}
	return p, success, nil
}

// RandomNoise perturbs count uniformly chosen parameters with Gaussian
// noise of the given standard deviation; the paper's "random
// perturbations" baseline.
func RandomNoise(net *nn.Network, count int, sigma float64, rng *rand.Rand) (*Perturbation, error) {
	n := net.NumParams()
	if count <= 0 || count > n {
		return nil, fmt.Errorf("attack: count %d out of range [1,%d]", count, n)
	}
	perm := rng.Perm(n)[:count]
	sort.Ints(perm)
	p := &Perturbation{Kind: "random", Indices: perm, Params: n}
	for _, idx := range perm {
		old := net.ParamAt(idx)
		val := old + rng.NormFloat64()*sigma
		net.SetParamAt(idx, val)
		p.Old = append(p.Old, old)
		p.New = append(p.New, val)
	}
	return p, nil
}

// BitFlip flips one random bit in the IEEE-754 float32 representation of
// count randomly chosen parameters — the off-chip-memory fault model of
// the reverse-engineering / fault-injection attacks cited in §I. (The
// engine computes in float64; the parameter is round-tripped through
// float32 as a hardware weight buffer would store it.)
func BitFlip(net *nn.Network, count int, rng *rand.Rand) (*Perturbation, error) {
	n := net.NumParams()
	if count <= 0 || count > n {
		return nil, fmt.Errorf("attack: count %d out of range [1,%d]", count, n)
	}
	perm := rng.Perm(n)[:count]
	sort.Ints(perm)
	p := &Perturbation{Kind: "bitflip", Indices: perm, Params: n}
	for _, idx := range perm {
		old := net.ParamAt(idx)
		flipped := flipStoredBit(old, uint(rng.Intn(32)))
		net.SetParamAt(idx, flipped)
		p.Old = append(p.Old, old)
		p.New = append(p.New, flipped)
	}
	return p, nil
}

// flipStoredBit flips one bit of v's stored float32 representation and
// returns the resulting float64 parameter value. Exponent-top flips can
// produce NaN/Inf; a real accelerator would propagate them, but they
// make every comparison trivially fail, so they saturate to a large
// finite value to keep the fault challenging.
func flipStoredBit(v float64, bit uint) float64 {
	bits := math.Float32bits(float32(v))
	flipped := float64(math.Float32frombits(bits ^ (1 << bit)))
	if math.IsNaN(flipped) || math.IsInf(flipped, 0) {
		flipped = math.Copysign(3.4e38, v)
	}
	return flipped
}
