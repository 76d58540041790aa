// Package validate implements the paper's validation scheme (Fig. 1):
// the IP vendor generates functional tests X, computes reference outputs
// Y, seals both, and ships them with the black-box IP; the user replays
// X and compares the IP's outputs Y′ against Y. Any mismatch means the
// IP's parameters were perturbed in a way the suite activates.
//
// The user-side comparison supports three modes: exact output vectors
// (the paper's "are Y and Y′ identical?"), quantised outputs (fixed
// decimal places, modelling an IP that exposes fixed-point scores), and
// labels only (an IP that exposes nothing but the argmax class).
package validate

import (
	"fmt"
	"math"

	"repro/internal/nn"
	"repro/internal/parallel"
	"repro/internal/quant"
	"repro/internal/tensor"
)

// IP is the black-box interface an IP user has: feed an input, get the
// output vector. No parameters, no intermediate results.
type IP interface {
	Query(x *tensor.Tensor) (*tensor.Tensor, error)
}

// BatchIP is an IP that can answer a batch of queries in one exchange.
// Every output must be bit-identical to a single Query of the same
// input — the batched engine guarantees this for local networks, and
// the wire protocol ships the per-sample outputs verbatim — so batching
// is purely a throughput lever, never a semantics change.
type BatchIP interface {
	IP
	QueryBatch(xs []*tensor.Tensor) ([]*tensor.Tensor, error)
}

// QuantIP is an IP that can answer queries in the quantised wire
// representation of protocol v4: each output as fixed-point integers
// at a requested decimal precision, optionally delta-encoded against
// caller-supplied reference frames. QuantWire reports whether the
// quantised dialect is actually active — a RemoteIP on a v2/v3 session
// has the method but not the dialect. When a QuantizedOutputs suite is
// replayed against an active QuantIP (and no Tolerance is set), the
// replay compares these frames against its own quantised references
// directly, so the verdicts are the QuantizedOutputs verdicts by
// construction — no dequantise-then-round round trip.
type QuantIP interface {
	BatchIP
	QuantWire() bool
	QueryQuant(xs []*tensor.Tensor, refs []quant.Frame, decimals int) ([]quant.Frame, error)
}

// QueryError is an application-level rejection from an IP (a malformed
// input, a shape mismatch): the query itself is invalid and would fail
// identically on any replica, as opposed to a transport failure of the
// replica that answered. Failover logic retries transport failures on
// the remaining replicas but surfaces QueryErrors directly.
type QueryError struct{ Msg string }

// Error implements error.
func (e *QueryError) Error() string { return e.Msg }

// LocalIP adapts an in-process network to the IP interface.
type LocalIP struct {
	Net *nn.Network
}

// Query implements IP.
func (ip LocalIP) Query(x *tensor.Tensor) (*tensor.Tensor, error) {
	return ip.Net.Forward(x).Clone(), nil
}

// QueryBatch implements BatchIP. Same-shaped inputs run as one batched
// forward pass, whose per-sample logits are bit-identical to individual
// Query calls (evalOn, shared with the server and PooledIP).
func (ip LocalIP) QueryBatch(xs []*tensor.Tensor) ([]*tensor.Tensor, error) {
	if len(xs) == 0 {
		return nil, &QueryError{Msg: "validate: empty query batch"}
	}
	out, err := evalOn(ip.Net, xs)
	if err != nil {
		return nil, &QueryError{Msg: err.Error()}
	}
	return out, nil
}

// queryRange names one failed exchange's suite indexes in errors:
// "query 7" for a single query, "queries 32-63" for a batch — a
// batched exchange fails as a whole, so any index in it may be the
// culprit.
func queryRange(lo, hi int) string {
	if lo == hi {
		return fmt.Sprintf("query %d", lo)
	}
	return fmt.Sprintf("queries %d-%d", lo, hi)
}

// CompareMode selects how reference and observed outputs are compared.
type CompareMode int

// Comparison modes.
const (
	// ExactOutputs requires bit-identical output vectors — the paper's
	// setting: a digital IP is deterministic, so any difference is a
	// fault.
	ExactOutputs CompareMode = iota
	// QuantizedOutputs compares outputs rounded to Suite.Decimals
	// places, modelling an IP that exposes fixed-point scores.
	QuantizedOutputs
	// LabelsOnly compares only the argmax class.
	LabelsOnly
)

// String implements fmt.Stringer.
func (m CompareMode) String() string {
	switch m {
	case ExactOutputs:
		return "exact"
	case QuantizedOutputs:
		return "quantized"
	case LabelsOnly:
		return "labels"
	default:
		return "unknown"
	}
}

// Suite is the vendor's validation artefact: test inputs with their
// reference outputs.
type Suite struct {
	Name     string
	Inputs   []*tensor.Tensor
	Outputs  []*tensor.Tensor
	Mode     CompareMode
	Decimals int // used by QuantizedOutputs

	// quantRefs caches the Outputs quantised at quantRefDecimals, so the
	// quantised wire path does not re-encode the references on every
	// replay. It is populated at load time (OpenSuite) or propagated by
	// Prefix/Subset, and NEVER mutated afterwards — suites are copied by
	// value and replayed concurrently, so the cache must stay immutable.
	// Replay validates it against the current Decimals and output count
	// and quantises locally when it is missing or stale.
	quantRefs        []quant.Frame
	quantRefDecimals int
}

// quantRefsValid reports whether the load-time quantised-reference cache
// matches the suite's current decimals and outputs (Decimals is a public
// field callers may change after construction, which invalidates it).
func (s *Suite) quantRefsValid() bool {
	return s.quantRefs != nil && s.quantRefDecimals == s.Decimals && len(s.quantRefs) == len(s.Outputs)
}

// buildQuantRefs populates the quantised-reference cache for a
// QuantizedOutputs suite. Call only at construction time (OpenSuite),
// before the suite is shared.
func (s *Suite) buildQuantRefs() {
	if s.Mode != QuantizedOutputs {
		return
	}
	scale, err := quant.Scale(s.Decimals)
	if err != nil {
		return // invalid decimals surface on replay, not at load time
	}
	refs := make([]quant.Frame, len(s.Outputs))
	for i, o := range s.Outputs {
		refs[i] = quant.QuantizeFrame(o.Data(), scale)
	}
	s.quantRefs, s.quantRefDecimals = refs, s.Decimals
}

// replayQuantRefs returns one quantised reference frame per suite
// output: the load-time cache when it is valid, otherwise frames
// quantised here (kept local, not stored — replays may run concurrently
// on shared suites).
func (s *Suite) replayQuantRefs(scale float64) []quant.Frame {
	if s.quantRefsValid() {
		return s.quantRefs
	}
	refs := make([]quant.Frame, len(s.Outputs))
	for i, o := range s.Outputs {
		refs[i] = quant.QuantizeFrame(o.Data(), scale)
	}
	return refs
}

// BuildSuite runs the vendor side: compute the reference output of every
// test input on the golden network.
func BuildSuite(name string, net *nn.Network, tests []*tensor.Tensor, mode CompareMode) *Suite {
	s := &Suite{Name: name, Mode: mode, Decimals: 6}
	for _, x := range tests {
		s.Inputs = append(s.Inputs, x)
		s.Outputs = append(s.Outputs, net.Forward(x).Clone())
	}
	return s
}

// Report is the outcome of replaying a suite against an IP.
type Report struct {
	// Passed is true when every test matched.
	Passed bool
	// Mismatches counts failing tests.
	Mismatches int
	// FirstFailure is the index of the first failing test, -1 if none.
	FirstFailure int
	// Total is the number of tests replayed.
	Total int
}

// String implements fmt.Stringer.
func (r Report) String() string {
	if r.Passed {
		return fmt.Sprintf("PASS (%d tests)", r.Total)
	}
	return fmt.Sprintf("FAIL (%d/%d mismatched, first at %d)", r.Mismatches, r.Total, r.FirstFailure)
}

// Validate replays the suite against the IP one query at a time and
// compares outputs — the reference replay. It is Replay with the
// generic float comparison (Wire: WireGob) and no batching; ValidateWith
// batches and fans the same replay out, and all of them produce reports
// bit-identical to this one.
func (s *Suite) Validate(ip IP) (Report, error) {
	return s.Replay(ip, ReplayConfig{Wire: WireGob})
}

func (s *Suite) validateSerial(ip IP, tol float64) (Report, error) {
	if len(s.Inputs) != len(s.Outputs) {
		return Report{}, fmt.Errorf("validate: suite has %d inputs but %d outputs", len(s.Inputs), len(s.Outputs))
	}
	rep := Report{Passed: true, FirstFailure: -1, Total: len(s.Inputs)}
	for i, x := range s.Inputs {
		got, err := ip.Query(x)
		if err != nil {
			return Report{}, fmt.Errorf("validate: query %d: %w", i, err)
		}
		if !s.outputsMatch(s.Outputs[i], got, tol) {
			rep.Mismatches++
			if rep.FirstFailure < 0 {
				rep.FirstFailure = i
			}
			rep.Passed = false
		}
	}
	return rep, nil
}

// ValidateOptions tunes how a suite replay is driven. Any setting
// produces a report bit-identical to the serial single-query Validate:
// batching rides the bit-identical batched forward pass, and the
// concurrent workers replay disjoint contiguous index ranges whose
// partial reports merge associatively (mismatch counts sum, the first
// failure is the global minimum index).
type ValidateOptions struct {
	// Batch is the number of queries grouped into one QueryBatch
	// exchange when the IP supports it (BatchIP); values <= 1, or a
	// plain IP, replay one query at a time.
	Batch int
	// Concurrency is the number of worker goroutines replaying batches
	// in parallel; values <= 1 replay serially. Against a RemoteIP the
	// workers pipeline over one connection; against a ShardedIP they
	// spread across the replicas. The IP must be safe for concurrent
	// use when Concurrency > 1 — RemoteIP, ShardedIP and PooledIP are,
	// a bare LocalIP (one set of layer caches) is not.
	Concurrency int
	// Tolerance relaxes the output comparison for reduced-precision
	// replay: with Tolerance > 0 an output value matches its reference
	// when |want−got| <= Tolerance. The float32 serving path computes in
	// float32, so its outputs approximate the float64-recorded references
	// to rounding error and can never pass the bit-exact check; an
	// explicit epsilon (around 1e-4 for the engine's layer depths) makes
	// the acceptance criterion a visible, versioned choice instead of a
	// silent precision downgrade. Zero keeps the bit-exact comparison —
	// the paper's setting, and the only sound mode for float64 replay.
	//
	// Interaction with the comparison modes: ExactOutputs becomes the
	// epsilon comparison above; QuantizedOutputs additionally accepts a
	// pair whose rounded values differ when the raw values are within
	// Tolerance (a float32 output can land on the far side of a rounding
	// boundary); LabelsOnly ignores Tolerance (argmax is already
	// precision-robust).
	Tolerance float64
}

// ValidateWith replays the suite against the IP with batching and
// concurrency and returns the same report Validate would. It is a thin
// wrapper over Replay — ValidateOptions map field-for-field onto
// ReplayConfig (Concurrency is Workers) with the default WireAuto
// comparison, which takes the quantised wire path exactly when this
// method always has.
func (s *Suite) ValidateWith(ip IP, opts ValidateOptions) (Report, error) {
	return s.Replay(ip, ReplayConfig{Batch: opts.Batch, Workers: opts.Concurrency, Tolerance: opts.Tolerance})
}

// ReplayConfig tunes one suite replay — the single configuration every
// replay entry point (Validate, ValidateWith, Detects, DetectsWith, the
// sentinel daemon) feeds into the one internal replay engine. The zero
// value replays serially, one query per exchange, bit-exact, full scan,
// with the session-native comparison. Any setting produces the verdict
// the serial single-query replay would: batching rides the
// bit-identical batched forward pass, concurrent workers replay
// disjoint contiguous index ranges whose partial reports merge
// associatively, and the quantised wire comparison equals the local
// QuantizedOutputs comparison by construction.
type ReplayConfig struct {
	// Batch is the number of queries grouped into one QueryBatch
	// exchange when the IP supports it (BatchIP); values <= 1, or a
	// plain IP, replay one query at a time.
	Batch int
	// Workers is the number of goroutines replaying batches in
	// parallel; values <= 1 replay serially. Against a RemoteIP the
	// workers pipeline over one connection; against a ShardedIP they
	// spread across the replicas. The IP must be safe for concurrent
	// use when Workers > 1. Ignored under EarlyExit — exiting at the
	// first divergence is the point there, and detection campaigns
	// already parallelise across trials.
	Workers int
	// Tolerance relaxes the output comparison for reduced-precision
	// replay: with Tolerance > 0 an output value matches its reference
	// when |want−got| <= Tolerance (see ValidateOptions.Tolerance for
	// the mode interactions). Zero keeps the bit-exact comparison. A
	// Tolerance opts out of the quantised wire comparison — its
	// raw-value check needs the float outputs.
	Tolerance float64
	// EarlyExit stops the replay at the first divergent test — the
	// Detects behaviour. The report then covers only the scanned
	// prefix: Mismatches is 1, FirstFailure is the first divergent
	// index, and tests past it are not replayed (a fault is usually
	// caught within the first few tests, so early exit saves most of
	// the replay cost).
	EarlyExit bool
	// Wire selects the comparison path. WireAuto (the default) prefers
	// the dialect-native verdict: a QuantizedOutputs suite over an IP
	// with an active quantised wire session (and no Tolerance) compares
	// fixed-point wire frames directly. WireGob and WireF32 force the
	// generic float-tensor comparison on whatever the session delivers.
	// WireQuant requires the quantised path and fails the replay with a
	// descriptive error when the suite or session cannot provide it.
	Wire Wire
}

// Replay is the replay engine behind every validation entry point:
// replay the suite against the IP under cfg and report the verdict.
func (s *Suite) Replay(ip IP, cfg ReplayConfig) (Report, error) {
	if len(s.Inputs) != len(s.Outputs) {
		return Report{}, fmt.Errorf("validate: suite has %d inputs but %d outputs", len(s.Inputs), len(s.Outputs))
	}
	batch := cfg.Batch
	bip, batched := ip.(BatchIP)
	if !batched || batch < 1 {
		batch = 1
	}
	// The quantised wire path: a QuantizedOutputs suite over an active
	// quant-dialect IP replays in wire representation, comparing the
	// received fixed-point frames against the suite's own quantised
	// references — the verdicts are the QuantizedOutputs verdicts by
	// construction. A Tolerance opts out (its raw-value comparison
	// needs the float outputs), falling back to the generic path.
	qip, quantOK := ip.(QuantIP)
	quantOK = quantOK && qip.QuantWire() && s.Mode == QuantizedOutputs && cfg.Tolerance == 0
	var quantPath bool
	switch cfg.Wire {
	case WireAuto:
		quantPath = quantOK
	case WireQuant:
		if !quantOK {
			return Report{}, fmt.Errorf("validate: ReplayConfig.Wire WireQuant needs a quantized-mode suite over an active quantised-dialect IP with no Tolerance (suite mode %s)", s.Mode)
		}
		quantPath = true
	default:
		// WireGob / WireF32: the generic float comparison on whatever
		// frames the session carries.
	}
	var qscale float64
	var qrefs []quant.Frame
	if quantPath {
		var err error
		if qscale, err = quant.Scale(s.Decimals); err != nil {
			return Report{}, fmt.Errorf("validate: quant wire replay: %w", err)
		}
		// Resolve the quantised references once per replay — the sealed
		// suite's load-time cache when valid — so the per-exchange loop
		// ships frames without re-encoding them.
		qrefs = s.replayQuantRefs(qscale)
	}
	if cfg.EarlyExit {
		return s.replayEarlyExit(ip, bip, qip, quantPath, qscale, qrefs, batch, cfg.Tolerance)
	}
	return s.replayFull(ip, bip, qip, quantPath, qscale, qrefs, batch, cfg.Workers, cfg.Tolerance)
}

// replayFull is the full-scan drive loop of the replay engine: every
// test replayed, partial reports merged in index order.
func (s *Suite) replayFull(ip IP, bip BatchIP, qip QuantIP, quantPath bool, qscale float64, qrefs []quant.Frame, batch, workersCfg int, tol float64) (Report, error) {
	n := len(s.Inputs)
	workers := parallel.Workers(workersCfg)
	if !quantPath && batch == 1 && workers <= 1 {
		return s.validateSerial(ip, tol)
	}
	if n == 0 {
		return Report{Passed: true, FirstFailure: -1}, nil
	}

	numBatches := (n + batch - 1) / batch
	type partial struct {
		mismatches, first int
		err               error
		errLo, errHi      int // suite index range of the failed exchange
	}
	parts := make([]partial, parallel.Effective(numBatches, workers))
	parallel.For(numBatches, workers, func(w, lo, hi int) {
		p := &parts[w]
		p.first = -1
		for bi := lo; bi < hi && p.err == nil; bi++ {
			start := bi * batch
			end := min(start+batch, n)
			if quantPath {
				frames, err := s.queryQuantRange(qip, start, end, qrefs)
				if err != nil {
					p.err, p.errLo, p.errHi = err, start, end-1
					return
				}
				for i := start; i < end; i++ {
					if !quantFrameMatches(s.Outputs[i], frames[i-start], qscale) {
						p.mismatches++
						if p.first < 0 {
							p.first = i
						}
					}
				}
				continue
			}
			var got []*tensor.Tensor
			var err error
			if batch > 1 {
				got, err = bip.QueryBatch(s.Inputs[start:end])
				if err == nil && len(got) != end-start {
					err = fmt.Errorf("batch answered %d outputs for %d queries", len(got), end-start)
				}
			} else {
				var out *tensor.Tensor
				if out, err = ip.Query(s.Inputs[start]); err == nil {
					got = []*tensor.Tensor{out}
				}
			}
			if err != nil {
				p.err, p.errLo, p.errHi = err, start, end-1
				return
			}
			for i := start; i < end; i++ {
				if !s.outputsMatch(s.Outputs[i], got[i-start], tol) {
					p.mismatches++
					if p.first < 0 {
						p.first = i
					}
				}
			}
		}
	})

	rep := Report{Passed: true, FirstFailure: -1, Total: n}
	for _, p := range parts {
		// Workers own ascending index ranges, so the first error (and
		// first failure) across parts in slice order is the lowest-index
		// one — the one the serial replay would have hit first. A failed
		// batched exchange is attributed to its whole index range: any
		// query in it may be the culprit.
		if p.err != nil {
			return Report{}, fmt.Errorf("validate: %s: %w", queryRange(p.errLo, p.errHi), p.err)
		}
		rep.Mismatches += p.mismatches
		if p.first >= 0 && (rep.FirstFailure < 0 || p.first < rep.FirstFailure) {
			rep.FirstFailure = p.first
		}
	}
	rep.Passed = rep.Mismatches == 0
	return rep, nil
}

// queryQuantRange runs one quantised wire exchange for suite tests
// [start,end): the pre-resolved reference frames (load-time cache or
// per-replay quantisation, resolved once in Replay) ship as the response
// delta base, and the answer frames return for the direct
// wire-representation comparison.
func (s *Suite) queryQuantRange(qip QuantIP, start, end int, qrefs []quant.Frame) ([]quant.Frame, error) {
	frames, err := qip.QueryQuant(s.Inputs[start:end], qrefs[start:end], s.Decimals)
	if err == nil && len(frames) != end-start {
		err = fmt.Errorf("batch answered %d outputs for %d queries", len(frames), end-start)
	}
	if err != nil {
		return nil, err
	}
	return frames, nil
}

// quantFrameMatches is the per-test verdict of the quantised wire
// path: every received fixed-point value must equal the quantised
// reference — quant.Fixed.Matches, the QuantizedOutputs comparison on
// the wire representation.
func quantFrameMatches(want *tensor.Tensor, got quant.Frame, scale float64) bool {
	if want.Size() != len(got) {
		return false
	}
	for i, v := range want.Data() {
		if !got[i].Matches(v, scale) {
			return false
		}
	}
	return true
}

func (s *Suite) outputsMatch(want, got *tensor.Tensor, tol float64) bool {
	if want.Size() != got.Size() {
		return false
	}
	switch s.Mode {
	case LabelsOnly:
		return want.Argmax() == got.Argmax()
	case QuantizedOutputs:
		scale := math.Pow(10, float64(s.Decimals))
		for i := range want.Data() {
			if math.Round(want.Data()[i]*scale) != math.Round(got.Data()[i]*scale) &&
				!withinTol(want.Data()[i], got.Data()[i], tol) {
				return false
			}
		}
		return true
	default: // ExactOutputs
		for i := range want.Data() {
			if tol > 0 {
				if !withinTol(want.Data()[i], got.Data()[i], tol) {
					return false
				}
			} else if want.Data()[i] != got.Data()[i] {
				return false
			}
		}
		return true
	}
}

// withinTol reports |want−got| <= tol for a positive tol; a zero or
// negative tolerance never matches (the caller falls back to its exact
// comparison).
func withinTol(want, got, tol float64) bool {
	return tol > 0 && math.Abs(want-got) <= tol
}

// Len returns the number of tests in the suite.
func (s *Suite) Len() int { return len(s.Inputs) }

// Detects reports whether replaying the suite against the IP exposes
// any mismatch, returning at the first failing test. Detection
// campaigns use this instead of Validate: a fault is usually caught by
// one of the first tests, so early exit saves most of the replay cost.
// It is Replay with EarlyExit and the generic float comparison.
func (s *Suite) Detects(ip IP) (bool, error) {
	rep, err := s.Replay(ip, ReplayConfig{EarlyExit: true, Wire: WireGob})
	if err != nil {
		return false, err
	}
	return !rep.Passed, nil
}

// detectsSerial is the serial early-exit scan: the index of the first
// divergent test, -1 when every test matches.
func (s *Suite) detectsSerial(ip IP, tol float64) (int, error) {
	for i, x := range s.Inputs {
		got, err := ip.Query(x)
		if err != nil {
			return -1, fmt.Errorf("validate: query %d: %w", i, err)
		}
		if !s.outputsMatch(s.Outputs[i], got, tol) {
			return i, nil
		}
	}
	return -1, nil
}

// DetectsWith is Detects with batched queries: the replay walks the
// suite in order but groups opts.Batch tests per QueryBatch exchange,
// exiting at the first batch containing a mismatch. The boolean answer
// is identical to Detects at any batch size; a fault caught by test i
// costs at most a batch's worth of extra queries past i. Concurrency is
// ignored — early exit is the point of Detects, and detection campaigns
// already parallelise across trials. It is a thin wrapper over Replay
// with EarlyExit set and the default WireAuto comparison, which takes
// the quantised wire path exactly when this method always has.
func (s *Suite) DetectsWith(ip IP, opts ValidateOptions) (bool, error) {
	rep, err := s.Replay(ip, ReplayConfig{Batch: opts.Batch, Tolerance: opts.Tolerance, EarlyExit: true})
	if err != nil {
		return false, err
	}
	return !rep.Passed, nil
}

// replayEarlyExit is the early-exit drive loop of the replay engine:
// walk the suite in order, batch by batch, and stop at the first batch
// containing a divergence. The returned report covers the scanned
// prefix only — Mismatches is 1 and FirstFailure the first divergent
// index — but Total is still the full suite size, and a clean scan
// returns the same all-pass report the full replay would.
func (s *Suite) replayEarlyExit(ip IP, bip BatchIP, qip QuantIP, quantPath bool, qscale float64, qrefs []quant.Frame, batch int, tol float64) (Report, error) {
	n := len(s.Inputs)
	failAt := func(i int) Report {
		return Report{Passed: false, Mismatches: 1, FirstFailure: i, Total: n}
	}
	pass := Report{Passed: true, FirstFailure: -1, Total: n}
	if quantPath {
		for start := 0; start < n; start += batch {
			end := min(start+batch, n)
			frames, err := s.queryQuantRange(qip, start, end, qrefs)
			if err != nil {
				return Report{}, fmt.Errorf("validate: %s: %w", queryRange(start, end-1), err)
			}
			for i := start; i < end; i++ {
				if !quantFrameMatches(s.Outputs[i], frames[i-start], qscale) {
					return failAt(i), nil
				}
			}
		}
		return pass, nil
	}
	if batch == 1 {
		first, err := s.detectsSerial(ip, tol)
		if err != nil {
			return Report{}, err
		}
		if first >= 0 {
			return failAt(first), nil
		}
		return pass, nil
	}
	for start := 0; start < n; start += batch {
		end := min(start+batch, n)
		got, err := bip.QueryBatch(s.Inputs[start:end])
		if err != nil {
			return Report{}, fmt.Errorf("validate: %s: %w", queryRange(start, end-1), err)
		}
		if len(got) != end-start {
			return Report{}, fmt.Errorf("validate: %s: batch answered %d outputs for %d queries", queryRange(start, end-1), len(got), end-start)
		}
		for i := start; i < end; i++ {
			if !s.outputsMatch(s.Outputs[i], got[i-start], tol) {
				return failAt(i), nil
			}
		}
	}
	return pass, nil
}

// Prefix returns a suite consisting of the first n tests (sharing the
// underlying tensors). Greedy generators are prefix-consistent, so this
// is how detection tables grow N without regenerating.
func (s *Suite) Prefix(n int) *Suite {
	if n > len(s.Inputs) {
		n = len(s.Inputs)
	}
	p := &Suite{
		Name:     fmt.Sprintf("%s[:%d]", s.Name, n),
		Inputs:   s.Inputs[:n],
		Outputs:  s.Outputs[:n],
		Mode:     s.Mode,
		Decimals: s.Decimals,
	}
	if s.quantRefsValid() {
		p.quantRefs, p.quantRefDecimals = s.quantRefs[:n], s.quantRefDecimals
	}
	return p
}

// Subset returns a suite view of the selected tests, in the given
// order, sharing the underlying tensors. The sentinel daemon replays
// randomised subsets through this: a subset verdict is the full-suite
// verdict restricted to those indices, so a subset mismatch is a real
// divergence (never a sampling artefact), while a subset pass only
// bounds the evidence by the sample.
func (s *Suite) Subset(indices []int) (*Suite, error) {
	sub := &Suite{
		Name:     fmt.Sprintf("%s[sub:%d]", s.Name, len(indices)),
		Inputs:   make([]*tensor.Tensor, 0, len(indices)),
		Outputs:  make([]*tensor.Tensor, 0, len(indices)),
		Mode:     s.Mode,
		Decimals: s.Decimals,
	}
	refs := s.quantRefsValid()
	if refs {
		sub.quantRefs = make([]quant.Frame, 0, len(indices))
		sub.quantRefDecimals = s.quantRefDecimals
	}
	for _, i := range indices {
		if i < 0 || i >= len(s.Inputs) || i >= len(s.Outputs) {
			return nil, fmt.Errorf("validate: subset index %d out of range (suite has %d tests)", i, s.Len())
		}
		sub.Inputs = append(sub.Inputs, s.Inputs[i])
		sub.Outputs = append(sub.Outputs, s.Outputs[i])
		if refs {
			sub.quantRefs = append(sub.quantRefs, s.quantRefs[i])
		}
	}
	return sub, nil
}
