package validate

import (
	"math/rand"
	"net"
	"testing"

	"repro/internal/attack"
	"repro/internal/nn"
)

// perturbedNet returns a clone of the golden network with a small
// random perturbation, so suite replays against it produce a mix of
// passing and failing tests (a report with structure worth comparing).
func perturbedNet(t *testing.T) *nn.Network {
	t.Helper()
	pnet := goldenNet().Clone()
	rng := rand.New(rand.NewSource(9))
	if _, err := attack.RandomNoise(pnet, 2, 0.4, rng); err != nil {
		t.Fatal(err)
	}
	return pnet
}

// replayGrid is the batch × concurrency sweep of the equivalence
// tests; batch sizes straddle the suite length, concurrency straddles
// GOMAXPROCS.
var replayGrid = []ValidateOptions{
	{Batch: 1, Concurrency: 1},
	{Batch: 1, Concurrency: 4},
	{Batch: 3, Concurrency: 1},
	{Batch: 3, Concurrency: 4},
	{Batch: 8, Concurrency: 2},
	{Batch: 64, Concurrency: 4},
}

// TestValidateWithMatchesSerialLocal: the batched/concurrent local
// replay must produce a report bit-identical to the serial single-query
// Validate at every grid point — on a passing suite and on a partially
// failing one.
func TestValidateWithMatchesSerialLocal(t *testing.T) {
	suite := goldenSuite(t, 10, ExactOutputs)
	for _, target := range []*nn.Network{goldenNet(), perturbedNet(t)} {
		want, err := suite.Validate(LocalIP{Net: target})
		if err != nil {
			t.Fatal(err)
		}
		for _, opts := range replayGrid {
			var ip IP = LocalIP{Net: target}
			if opts.Concurrency > 1 {
				ip = NewSnapshotIP(target, false)
			}
			got, err := suite.ValidateWith(ip, opts)
			if err != nil {
				t.Fatalf("opts %+v: %v", opts, err)
			}
			if got != want {
				t.Fatalf("opts %+v: report %+v, serial report %+v", opts, got, want)
			}
		}
	}
}

// TestValidateWithMatchesSerialRemote: the same equivalence over the
// wire — batched pipelined replay against a served (and attacked)
// fleet reports exactly what the serial single-query replay reports.
func TestValidateWithMatchesSerialRemote(t *testing.T) {
	suite := goldenSuite(t, 10, ExactOutputs)
	target := perturbedNet(t)
	for _, replicas := range []int{1, 2} {
		servers := make([]*Server, replicas)
		addrs := make([]string, replicas)
		for i := range servers {
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			servers[i] = Serve(l, target)
			defer servers[i].Close()
			addrs[i] = servers[i].Addr()
		}
		want, err := suite.Validate(LocalIP{Net: target})
		if err != nil {
			t.Fatal(err)
		}
		for _, opts := range replayGrid {
			var ip IP
			if replicas == 1 {
				remote, err := Dial(addrs[0])
				if err != nil {
					t.Fatal(err)
				}
				defer remote.Close()
				ip = remote
			} else {
				cluster, err := DialShards(addrs, DialOptions{})
				if err != nil {
					t.Fatal(err)
				}
				defer cluster.Close()
				ip = cluster
			}
			got, err := suite.ValidateWith(ip, opts)
			if err != nil {
				t.Fatalf("replicas %d opts %+v: %v", replicas, opts, err)
			}
			if got != want {
				t.Fatalf("replicas %d opts %+v: report %+v, serial %+v", replicas, opts, got, want)
			}
		}
	}
}

// TestDetectsWithMatchesDetects: the batched early-exit detection scan
// answers exactly what the single-query scan answers, detected or not.
func TestDetectsWithMatchesDetects(t *testing.T) {
	suite := goldenSuite(t, 10, ExactOutputs)
	for _, target := range []*nn.Network{goldenNet(), perturbedNet(t)} {
		ip := LocalIP{Net: target}
		want, err := suite.Detects(ip)
		if err != nil {
			t.Fatal(err)
		}
		for _, batch := range []int{1, 2, 5, 64} {
			got, err := suite.DetectsWith(ip, ValidateOptions{Batch: batch})
			if err != nil {
				t.Fatalf("batch %d: %v", batch, err)
			}
			if got != want {
				t.Fatalf("batch %d: DetectsWith = %v, Detects = %v", batch, got, want)
			}
		}
	}
}

// TestDetectionRateOverBatchInvariance: campaign rates are identical at
// any batch size — the experiments' Batch knob is purely throughput.
func TestDetectionRateOverBatchInvariance(t *testing.T) {
	suite := goldenSuite(t, 6, ExactOutputs)
	pnet := goldenNet().Clone()
	atk := func(n *nn.Network, rng *rand.Rand) (*attack.Perturbation, error) {
		return attack.RandomNoise(n, 1, 0.3, rng)
	}
	perts, err := Perturbations(pnet, atk, 12, 77)
	if err != nil {
		t.Fatal(err)
	}
	want, err := DetectionRateOver(pnet, suite, perts)
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range []int{2, 4, 32} {
		got, err := DetectionRateOverWith(pnet, suite, perts, ValidateOptions{Batch: batch})
		if err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
		if got != want {
			t.Fatalf("batch %d: rate %+v, single-query rate %+v", batch, got, want)
		}
	}
}

// TestValidateWithEmptySuite: degenerate but legal — an empty suite
// passes at any setting.
func TestValidateWithEmptySuite(t *testing.T) {
	s := &Suite{Name: "empty"}
	rep, err := s.ValidateWith(LocalIP{Net: goldenNet()}, ValidateOptions{Batch: 8, Concurrency: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Passed || rep.Total != 0 || rep.FirstFailure != -1 {
		t.Fatalf("empty replay report: %+v", rep)
	}
}

// TestPooledIPMatchesLocalIP: SnapshotIP at float64 must answer
// bit-identically to LocalIP, batched or not: the frozen snapshot and
// the live network run the same forward walk.
func TestPooledIPMatchesLocalIP(t *testing.T) {
	xs := testInputs(5, 101)
	local := LocalIP{Net: goldenNet()}
	pooled := NewSnapshotIP(goldenNet(), false)
	wantB, err := local.QueryBatch(xs)
	if err != nil {
		t.Fatal(err)
	}
	gotB, err := pooled.QueryBatch(xs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range xs {
		want, err := local.Query(xs[i])
		if err != nil {
			t.Fatal(err)
		}
		for j := range want.Data() {
			if wantB[i].Data()[j] != want.Data()[j] {
				t.Fatalf("LocalIP batched output %d differs from its single query at %d", i, j)
			}
			if gotB[i].Data()[j] != want.Data()[j] {
				t.Fatalf("SnapshotIP output %d differs from LocalIP at %d", i, j)
			}
		}
	}
}
