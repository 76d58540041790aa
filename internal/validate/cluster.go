package validate

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/quant"
	"repro/internal/tensor"
)

// ShardedIP fans queries across N replicas of the same served IP — the
// production shape of the paper's validation scenario, where replay
// traffic from many users spreads over a fleet of identical endpoints.
// Replicas must serve the same parameters; since every replica's
// answers are bit-identical to any other's, routing is invisible to
// validation reports.
//
// Requests rotate round-robin across the healthy replicas. A replica
// whose exchange fails in transport is marked down and the request
// fails over to the remaining replicas; application-level rejections
// (QueryError — a malformed input fails identically everywhere) are
// returned directly without failover.
//
// Down is not forever: each down replica is re-probed half-open — once
// its backoff expires, a single in-flight request is risked on it
// (re-dialling a fresh connection when the fleet was built by
// DialShards), and success returns it to the rotation while failure
// doubles the backoff up to a cap. A restarted server therefore
// rejoins the fleet within one backoff interval, and a still-dead one
// costs at most one probing request per interval. ShardedIP is safe
// for concurrent use when its replicas are (RemoteIP and SnapshotIP are;
// a bare LocalIP is not); concurrent suite replay then shards
// naturally across the fleet.
type ShardedIP struct {
	next atomic.Uint64

	mu        sync.Mutex
	closed    bool
	replicas  []BatchIP
	addrs     []string // replica names in errors/metrics; dial addresses for DialShards fleets
	down      []bool
	probing   []bool
	nextProbe []time.Time
	backoff   []time.Duration
	// quarantined marks replicas pulled from the rotation by validation
	// evidence (a divergent replay attributed to them) rather than by a
	// transport failure. Unlike down, a quarantined replica is never
	// readmitted by the transport-level half-open probe — answering TCP
	// is no evidence its parameters are clean — only by TryReadmit's
	// dedicated re-validation probe, which rides the same backoff
	// schedule.
	quarantined []bool
	quarReason  []string
	lastErr     []string // last transport error per replica, for operators
	// redial reconnects replica i from scratch; nil entries (in-process
	// fleets) probe the existing replica object instead.
	redial []func() (BatchIP, error)
	// baseWire accumulates the byte counters of connections retired by
	// probe re-dials, so per-replica WireStats are cumulative across
	// reconnects instead of resetting with each fresh connection.
	baseWire []WireStats

	stats []*replicaStats // per-replica exchange counters; slice immutable after construction

	probeMin, probeMax time.Duration
}

// Default half-open probe backoff bounds: the first probe of a down
// replica happens after probeBackoffMin, doubling per failed probe up
// to probeBackoffMax.
const (
	probeBackoffMin = 1 * time.Second
	probeBackoffMax = 30 * time.Second
)

// NewShardedIP builds a sharded IP over the given replicas. Without a
// redial path, probing retries the replica objects themselves — right
// for in-process replicas, while fleets of network connections should
// come from DialShards so a probe can reconnect.
func NewShardedIP(replicas ...BatchIP) (*ShardedIP, error) {
	if len(replicas) == 0 {
		return nil, fmt.Errorf("validate: sharded IP needs at least one replica")
	}
	n := len(replicas)
	s := &ShardedIP{
		replicas:    append([]BatchIP(nil), replicas...),
		addrs:       make([]string, n),
		down:        make([]bool, n),
		probing:     make([]bool, n),
		nextProbe:   make([]time.Time, n),
		backoff:     make([]time.Duration, n),
		quarantined: make([]bool, n),
		quarReason:  make([]string, n),
		lastErr:     make([]string, n),
		redial:      make([]func() (BatchIP, error), n),
		baseWire:    make([]WireStats, n),
		stats:       make([]*replicaStats, n),
		probeMin:    probeBackoffMin,
		probeMax:    probeBackoffMax,
	}
	for i := range s.stats {
		s.addrs[i] = fmt.Sprintf("replica-%d", i+1)
		s.stats[i] = &replicaStats{}
	}
	return s, nil
}

// DialShards connects to every addr and returns a ShardedIP over the
// connections. Any dial failure closes the already-open connections and
// fails: a replica that is down at dial time should be dropped from the
// address list, not silently skipped. Replicas that die later are
// re-dialled by the half-open probe, so a restarted server rejoins.
func DialShards(addrs []string, opts DialOptions) (*ShardedIP, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("validate: sharded IP needs at least one address")
	}
	replicas := make([]BatchIP, 0, len(addrs))
	for _, addr := range addrs {
		r, err := DialWith(addr, opts)
		if err != nil {
			for _, open := range replicas {
				open.(*RemoteIP).Close()
			}
			return nil, fmt.Errorf("validate: dial shard %s: %w", addr, err)
		}
		replicas = append(replicas, r)
	}
	s, _ := NewShardedIP(replicas...)
	for i, addr := range addrs {
		addr := addr
		s.addrs[i] = addr
		s.redial[i] = func() (BatchIP, error) { return DialWith(addr, opts) }
	}
	return s, nil
}

// SetProbeBackoff adjusts the half-open probe bounds (defaults 1s/30s):
// a down replica is first probed after min, backing off exponentially
// to max while it stays dead. Call before sharing the ShardedIP across
// goroutines.
func (s *ShardedIP) SetProbeBackoff(min, max time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.probeMin, s.probeMax = min, max
}

// Replicas returns the replica count.
func (s *ShardedIP) Replicas() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.replicas)
}

// Healthy returns how many replicas are currently in the rotation
// (neither marked down nor quarantined).
func (s *ShardedIP) Healthy() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for i := range s.down {
		if !s.down[i] && !s.quarantined[i] {
			n++
		}
	}
	return n
}

// Query implements IP.
func (s *ShardedIP) Query(x *tensor.Tensor) (*tensor.Tensor, error) {
	out, err := s.QueryBatch([]*tensor.Tensor{x})
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// replicaMode is the routing decision for one replica slot.
type replicaMode int

const (
	skipReplica  replicaMode = iota // down, not due for a probe
	useReplica                      // healthy
	probeReplica                    // down and due: risk this request on it
)

// checkout snapshots replica idx and decides how to use it. The
// half-open discipline lives here: at most one request probes a down
// replica at a time (probing flag), and only once its backoff expired.
func (s *ShardedIP) checkout(idx int) (BatchIP, replicaMode) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.quarantined[idx] {
		// Quarantine is validation evidence, not a transport state: live
		// traffic never auto-probes its way back in. Readmission goes
		// through TryReadmit's re-validation probe only.
		return nil, skipReplica
	}
	if !s.down[idx] {
		return s.replicas[idx], useReplica
	}
	if s.closed || s.probing[idx] || time.Now().Before(s.nextProbe[idx]) { //detlint:allow walltime(probe-backoff gate for a downed replica; routing only, replay outputs are clock-free)
		return nil, skipReplica
	}
	s.probing[idx] = true
	return s.replicas[idx], probeReplica
}

// markDown takes replica rep at slot idx out of the rotation. The
// pointer comparison makes stale failures harmless: a request that was
// already in flight on a connection the probe has since replaced must
// not take the fresh replica down with it.
func (s *ShardedIP) markDown(idx int, rep BatchIP) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.replicas[idx] != rep {
		return
	}
	if !s.down[idx] {
		s.down[idx] = true
		s.backoff[idx] = s.probeMin
		s.nextProbe[idx] = time.Now().Add(s.backoff[idx]) //detlint:allow walltime(probe-backoff deadline after a replica failure; routing only)
	}
}

// probeFailed keeps idx down and doubles its backoff up to the cap.
func (s *ShardedIP) probeFailed(idx int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.probing[idx] = false
	if s.backoff[idx] *= 2; s.backoff[idx] > s.probeMax {
		s.backoff[idx] = s.probeMax
	}
	s.nextProbe[idx] = time.Now().Add(s.backoff[idx]) //detlint:allow walltime(probe-backoff deadline doubling after a failed probe; routing only)
}

// probeSucceeded returns idx to the rotation.
func (s *ShardedIP) probeSucceeded(idx int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.probing[idx] = false
	s.down[idx] = false
	s.backoff[idx] = 0
}

// probe risks one request on down replica idx: re-dial a fresh
// connection when the fleet knows how, then send the query half-open.
// A QueryError counts as success for the replica's health — transport
// worked, the query itself is bad everywhere.
func (s *ShardedIP) probe(idx int, rep BatchIP, do func(BatchIP) (any, error)) (any, error) {
	s.mu.Lock()
	redial := s.redial[idx]
	s.mu.Unlock()
	if redial != nil {
		fresh, err := redial()
		if err != nil {
			s.probeFailed(idx)
			return nil, err
		}
		s.retire(idx, rep) // fold the dead connection's byte counters, then close it
		s.mu.Lock()
		if s.closed {
			// Close ran while the re-dial was in flight; it cannot have
			// seen the fresh connection, so it is ours to close — nothing
			// may outlive a closed cluster.
			s.mu.Unlock()
			if c, ok := fresh.(io.Closer); ok {
				c.Close()
			}
			s.probeFailed(idx)
			return nil, fmt.Errorf("validate: sharded IP closed")
		}
		s.replicas[idx] = fresh
		s.mu.Unlock()
		rep = fresh
	}
	t0 := time.Now() //detlint:allow walltime(latency measurement start for the health metrics)
	out, err := do(rep)
	s.observe(idx, time.Since(t0), err) //detlint:allow walltime(latency measurement for the health metrics; not part of the replay result)
	if err != nil {
		var qe *QueryError
		if errors.As(err, &qe) {
			s.probeSucceeded(idx)
		} else {
			s.probeFailed(idx)
		}
		return nil, err
	}
	s.probeSucceeded(idx)
	return out, nil
}

// roundRobin runs one exchange against the next healthy replica,
// failing over to the others on transport errors and half-open-probing
// any down replica whose backoff has expired; the shared engine of
// QueryBatch and QueryQuant.
func (s *ShardedIP) roundRobin(do func(BatchIP) (any, error)) (any, error) {
	s.mu.Lock()
	n := len(s.replicas)
	s.mu.Unlock()
	start := int(s.next.Add(1) - 1)
	var lastErr error
	for i := 0; i < n; i++ {
		idx := (start + i) % n
		rep, mode := s.checkout(idx)
		switch mode {
		case skipReplica:
			continue
		case useReplica:
			t0 := time.Now() //detlint:allow walltime(latency measurement start for the health metrics)
			out, err := do(rep)
			s.observe(idx, time.Since(t0), err) //detlint:allow walltime(latency measurement for the health metrics; not part of the replay result)
			if err == nil {
				return out, nil
			}
			var qe *QueryError
			if errors.As(err, &qe) {
				return nil, err // the query is bad, not the replica
			}
			s.markDown(idx, rep)
			lastErr = err
		case probeReplica:
			out, err := s.probe(idx, rep, do)
			if err == nil {
				return out, nil
			}
			var qe *QueryError
			if errors.As(err, &qe) {
				return nil, err
			}
			lastErr = err
		}
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("no healthy replicas")
	}
	// Name every replica with its state, last transport error and
	// quarantine reason: "all replicas failed" alone gives an operator
	// nothing to act on.
	return nil, fmt.Errorf("validate: all %d replicas failed: %w [%s]", n, lastErr, s.replicaSummary())
}

// replicaSummary renders one line of per-replica detail for the
// all-replicas-failed error: address, state, and the state's cause.
func (s *ShardedIP) replicaSummary() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	parts := make([]string, len(s.replicas))
	for i := range s.replicas {
		state, detail := "healthy", ""
		switch {
		case s.quarantined[i]:
			state, detail = "quarantined", s.quarReason[i]
		case s.down[i]:
			state, detail = "down", s.lastErr[i]
		}
		if detail != "" {
			parts[i] = fmt.Sprintf("%s: %s (%s)", s.addrs[i], state, detail)
		} else {
			parts[i] = fmt.Sprintf("%s: %s", s.addrs[i], state)
		}
	}
	return strings.Join(parts, "; ")
}

// QueryBatch implements BatchIP over the fleet.
func (s *ShardedIP) QueryBatch(xs []*tensor.Tensor) ([]*tensor.Tensor, error) {
	out, err := s.roundRobin(func(rep BatchIP) (any, error) { return rep.QueryBatch(xs) })
	if err != nil {
		return nil, err
	}
	return out.([]*tensor.Tensor), nil
}

// QuantWire reports whether the fleet speaks the quantised v4 dialect.
// Replicas are dialled with one DialOptions, so the first answers for
// all.
func (s *ShardedIP) QuantWire() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if q, ok := s.replicas[0].(QuantIP); ok {
		return q.QuantWire()
	}
	return false
}

// QueryQuant implements QuantIP over the fleet with the same
// round-robin failover as QueryBatch. A replica that does not speak
// the quantised dialect rejects with a QueryError — the whole fleet
// shares one dial configuration, so failover could not help.
func (s *ShardedIP) QueryQuant(xs []*tensor.Tensor, refs []quant.Frame, decimals int) ([]quant.Frame, error) {
	out, err := s.roundRobin(func(rep BatchIP) (any, error) {
		q, ok := rep.(QuantIP)
		if !ok || !q.QuantWire() {
			return nil, &QueryError{Msg: "validate: replica does not speak the quantised wire dialect — dial the fleet with Wire: WireQuant"}
		}
		return q.QueryQuant(xs, refs, decimals)
	})
	if err != nil {
		return nil, err
	}
	return out.([]quant.Frame), nil
}

// Close closes every replica that can be closed. No probe re-dials
// after Close: a re-dial racing it is closed by whichever side sees the
// other's work (the closed flag), so a closed cluster holds no live
// connections.
func (s *ShardedIP) Close() error {
	s.mu.Lock()
	s.closed = true
	replicas := append([]BatchIP(nil), s.replicas...)
	s.mu.Unlock()
	var first error
	for _, r := range replicas {
		if c, ok := r.(io.Closer); ok {
			if err := c.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}
