package validate

import (
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/tensor"
)

// startFleet serves the golden network on n replicas and returns their
// addresses plus the servers (for targeted shutdown).
func startFleet(t *testing.T, n int) ([]*Server, []string) {
	t.Helper()
	servers := make([]*Server, n)
	addrs := make([]string, n)
	for i := range servers {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		servers[i] = Serve(l, goldenNet())
		addrs[i] = servers[i].Addr()
		srv := servers[i]
		t.Cleanup(func() { srv.Close() })
	}
	return servers, addrs
}

// TestShardedMatchesSingleReplica: replaying through a sharded fleet
// must give the same report as a single endpoint — replicas are
// bit-identical, so routing is invisible.
func TestShardedMatchesSingleReplica(t *testing.T) {
	_, addrs := startFleet(t, 3)
	suite := goldenSuite(t, 8, ExactOutputs)

	single, err := Dial(addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	want, err := suite.Validate(single)
	if err != nil {
		t.Fatal(err)
	}

	cluster, err := DialShards(addrs, DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	got, err := suite.ValidateWith(cluster, ValidateOptions{Batch: 3, Concurrency: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("sharded report %+v, single-replica report %+v", got, want)
	}
}

// TestShardedFailover: killing one replica mid-fleet must not fail the
// replay — its traffic fails over to the survivors and the report is
// unchanged.
func TestShardedFailover(t *testing.T) {
	servers, addrs := startFleet(t, 2)
	suite := goldenSuite(t, 10, ExactOutputs)
	cluster, err := DialShards(addrs, DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	// Prove both replicas answer, then kill one.
	if _, err := cluster.QueryBatch(suite.Inputs[:2]); err != nil {
		t.Fatal(err)
	}
	if _, err := cluster.QueryBatch(suite.Inputs[:2]); err != nil {
		t.Fatal(err)
	}
	servers[0].Close()

	rep, err := suite.ValidateWith(cluster, ValidateOptions{Batch: 2, Concurrency: 2})
	if err != nil {
		t.Fatalf("replay with a dead replica: %v", err)
	}
	if !rep.Passed || rep.Total != suite.Len() {
		t.Fatalf("failover replay report: %+v", rep)
	}
	if h := cluster.Healthy(); h != 1 {
		t.Fatalf("Healthy = %d after one replica died, want 1", h)
	}
}

// TestShardedAllReplicasDown: when every replica is gone the error says
// so.
func TestShardedAllReplicasDown(t *testing.T) {
	servers, addrs := startFleet(t, 2)
	cluster, err := DialShards(addrs, DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	for _, s := range servers {
		s.Close()
	}
	_, err = cluster.QueryBatch(testInputs(2, 91))
	if err == nil || !strings.Contains(err.Error(), "all 2 replicas failed") {
		t.Fatalf("all-down error = %v", err)
	}
}

// TestShardedQueryErrorNoFailover: an application-level rejection (bad
// input shape) must come back as a QueryError without marking any
// replica down — the same query would fail identically everywhere.
func TestShardedQueryErrorNoFailover(t *testing.T) {
	_, addrs := startFleet(t, 2)
	cluster, err := DialShards(addrs, DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	var qe *QueryError
	if _, err := cluster.QueryBatch([]*tensor.Tensor{tensor.New(2, 3)}); !errors.As(err, &qe) {
		t.Fatalf("bad-shape error = %v, want QueryError", err)
	}
	if h := cluster.Healthy(); h != 2 {
		t.Fatalf("Healthy = %d after a rejected query, want 2 (no failover)", h)
	}
}

// TestDialShardsPartialFailure: a fleet with one unreachable address
// fails the dial outright instead of silently serving on a subset.
func TestDialShardsPartialFailure(t *testing.T) {
	_, addrs := startFleet(t, 1)
	if _, err := DialShards(append(addrs, "127.0.0.1:1"), DialOptions{}); err == nil {
		t.Fatal("dial with an unreachable shard succeeded")
	}
}

// TestShardedReplicaRecovery: a replica that dies and is restarted on
// the same address must rejoin the rotation via the half-open probe —
// down is a state, not a sentence.
func TestShardedReplicaRecovery(t *testing.T) {
	servers, addrs := startFleet(t, 2)
	suite := goldenSuite(t, 6, ExactOutputs)
	cluster, err := DialShards(addrs, DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	cluster.SetProbeBackoff(10*time.Millisecond, 50*time.Millisecond)

	// Kill replica 0 and drive traffic until the failure is observed.
	servers[0].Close()
	rep, err := suite.ValidateWith(cluster, ValidateOptions{Batch: 2, Concurrency: 2})
	if err != nil || !rep.Passed {
		t.Fatalf("replay with a dead replica: rep=%+v err=%v", rep, err)
	}
	if h := cluster.Healthy(); h != 1 {
		t.Fatalf("Healthy = %d after replica death, want 1", h)
	}

	// While the replica stays dead, probes must keep failing over —
	// queries still succeed on the survivor even after the backoff
	// expires and a probe is risked.
	time.Sleep(20 * time.Millisecond)
	if _, err := cluster.QueryBatch(suite.Inputs[:2]); err != nil {
		t.Fatalf("query while probing a still-dead replica: %v", err)
	}

	// Restart the replica on the same address; within a few backoff
	// intervals a probe re-dials it and it rejoins.
	l, err := net.Listen("tcp", addrs[0])
	if err != nil {
		t.Fatalf("restart replica: %v", err)
	}
	restarted := Serve(l, goldenNet())
	t.Cleanup(func() { restarted.Close() })

	deadline := time.Now().Add(10 * time.Second)
	for cluster.Healthy() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("restarted replica never rejoined the rotation")
		}
		time.Sleep(15 * time.Millisecond)
		if _, err := cluster.QueryBatch(suite.Inputs[:2]); err != nil {
			t.Fatalf("query during recovery: %v", err)
		}
	}

	// The recovered fleet serves the same bit-identical reports.
	rep, err = suite.ValidateWith(cluster, ValidateOptions{Batch: 2, Concurrency: 2})
	if err != nil || !rep.Passed {
		t.Fatalf("replay after recovery: rep=%+v err=%v", rep, err)
	}
}

// TestShardedProbeBacksOff: while a replica stays dead, failed probes
// must space out (exponential backoff) rather than re-dialling on every
// request.
func TestShardedProbeBacksOff(t *testing.T) {
	servers, addrs := startFleet(t, 2)
	cluster, err := DialShards(addrs, DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	cluster.SetProbeBackoff(40*time.Millisecond, 400*time.Millisecond)
	servers[0].Close()

	xs := testInputs(2, 93)
	// Observe the failure; replica 0 goes down with a 40ms first probe.
	for i := 0; i < 2; i++ {
		if _, err := cluster.QueryBatch(xs); err != nil {
			t.Fatal(err)
		}
	}
	if h := cluster.Healthy(); h != 1 {
		t.Fatalf("Healthy = %d, want 1", h)
	}
	// Hammer queries before the backoff expires: no probe may fire, so
	// the down replica's backoff state must not change.
	cluster.mu.Lock()
	firstProbe := cluster.nextProbe[0]
	cluster.mu.Unlock()
	for i := 0; i < 10; i++ {
		if _, err := cluster.QueryBatch(xs); err != nil {
			t.Fatal(err)
		}
	}
	cluster.mu.Lock()
	unchanged := cluster.nextProbe[0].Equal(firstProbe)
	cluster.mu.Unlock()
	if !unchanged {
		t.Fatal("a probe fired before the backoff expired")
	}
	// After the backoff expires a probe fails (server still dead) and
	// the next probe moves further out.
	time.Sleep(60 * time.Millisecond)
	if _, err := cluster.QueryBatch(xs); err != nil {
		t.Fatal(err)
	}
	cluster.mu.Lock()
	backedOff := cluster.backoff[0] >= 80*time.Millisecond && cluster.down[0]
	cluster.mu.Unlock()
	if !backedOff {
		t.Fatal("failed probe did not double the backoff")
	}
}

// TestShardedLocalReplicas: ShardedIP is transport-agnostic — local
// in-process replicas shard the same way (what the benchmarks and any
// embedded multi-worker replay use). SnapshotIP replicas keep the
// concurrent replay race-free.
func TestShardedLocalReplicas(t *testing.T) {
	suite := goldenSuite(t, 6, ExactOutputs)
	cluster, err := NewShardedIP(NewSnapshotIP(goldenNet(), false), NewSnapshotIP(goldenNet(), false))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := suite.ValidateWith(cluster, ValidateOptions{Batch: 2, Concurrency: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Passed {
		t.Fatalf("local sharded replay failed: %+v", rep)
	}
}
