package validate

import (
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// Validation-throughput benchmarks over real loopback TCP: the same
// 64-test replay driven several ways. ReplaySerial is the v1-shaped
// lockstep replay (one query, one round trip, wait); ReplayBatched
// amortises round trips and rides the batched forward pass over one
// connection; ReplayShardedBatched adds concurrent workers over a
// 2-replica fleet; ReplayF32 swaps in protocol-v3 float32 frames;
// ReplayV4 replays a QuantizedOutputs suite in the protocol-v4
// quantised delta-encoded dialect. The reports are equivalent to the
// serial replay at each dialect's comparison semantics (see
// replay_test.go and netip_v4_test.go); these measure what that buys.
//
// Every remote benchmark also reports bytes/query measured on the
// client connection (WireStats over the timed region), so the wire
// dialects' bandwidth claims are benchmarked numbers: CI's
// bench-regression job fails when bytes/query on the v4 replay path
// grows, exactly as it fails on sec/op regressions.
const benchSuiteLen = 64

func benchSuite(b *testing.B, mode CompareMode) *Suite {
	b.Helper()
	return BuildSuite("bench", goldenNet(), testInputs(benchSuiteLen, 1234), mode)
}

func benchServers(b *testing.B, n int) []string {
	b.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		srv := Serve(l, goldenNet())
		b.Cleanup(func() { srv.Close() })
		addrs[i] = srv.Addr()
	}
	return addrs
}

// wireMeter reports bytes/query over the timed region from any IP that
// exposes WireStats (RemoteIP and ShardedIP both do).
type wireMeter interface{ WireStats() WireStats }

func reportQPS(b *testing.B, queries int, m wireMeter, start WireStats) {
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(queries*b.N)/s, "queries/s")
	}
	if m != nil {
		used := m.WireStats().Sub(start)
		b.ReportMetric(float64(used.Total())/float64(queries*b.N), "bytes/query")
	}
}

func BenchmarkReplaySerial(b *testing.B) {
	suite := benchSuite(b, ExactOutputs)
	addrs := benchServers(b, 1)
	ip, err := Dial(addrs[0])
	if err != nil {
		b.Fatal(err)
	}
	defer ip.Close()
	start := ip.WireStats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := suite.Validate(ip)
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Passed {
			b.Fatal("benchmark replay failed")
		}
	}
	reportQPS(b, suite.Len(), ip, start)
}

func BenchmarkReplayBatched(b *testing.B) {
	suite := benchSuite(b, ExactOutputs)
	addrs := benchServers(b, 1)
	ip, err := Dial(addrs[0])
	if err != nil {
		b.Fatal(err)
	}
	defer ip.Close()
	opts := ValidateOptions{Batch: 16}
	start := ip.WireStats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := suite.ValidateWith(ip, opts)
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Passed {
			b.Fatal("benchmark replay failed")
		}
	}
	reportQPS(b, suite.Len(), ip, start)
}

// BenchmarkReplayF32 is BenchmarkReplayBatched on the reduced-precision
// path: an -f32 server, protocol-v3 float32 frames, and tolerance
// comparison. Against BenchmarkReplayBatched it measures what halving
// the wire payload and the kernel element size buys end to end.
func BenchmarkReplayF32(b *testing.B) {
	suite := benchSuite(b, ExactOutputs)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	srv := ServeWith(l, goldenNet(), ServerOptions{Wire: WireF32})
	b.Cleanup(func() { srv.Close() })
	ip, err := DialWith(srv.Addr(), DialOptions{Wire: WireF32})
	if err != nil {
		b.Fatal(err)
	}
	defer ip.Close()
	opts := ValidateOptions{Batch: 16, Tolerance: 1e-4}
	start := ip.WireStats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := suite.ValidateWith(ip, opts)
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Passed {
			b.Fatal("benchmark replay failed")
		}
	}
	reportQPS(b, suite.Len(), ip, start)
}

// BenchmarkReplayV4 is the quantised-dialect replay: a QuantizedOutputs
// suite over a protocol-v4 session, fixed-point delta-encoded frames,
// verdicts computed on the wire representation. One un-timed warm-up
// replay populates the session's replay-frame cache, so the timed
// region measures the steady-state traffic of validation workloads —
// the same sealed suite replayed over and over, each frame a
// back-reference and each response near-zero deltas against the
// references. Compare bytes/query against BenchmarkReplayBatched (the
// v2 gob float64 dialect) for the compression ratio; the acceptance
// bar is ≥4× fewer bytes/query.
func BenchmarkReplayV4(b *testing.B) {
	suite := benchSuite(b, QuantizedOutputs)
	addrs := benchServers(b, 1)
	ip, err := DialWith(addrs[0], DialOptions{Wire: WireQuant})
	if err != nil {
		b.Fatal(err)
	}
	defer ip.Close()
	opts := ValidateOptions{Batch: 16}
	// Warm the replay-frame cache: steady-state replay is the workload.
	if rep, err := suite.ValidateWith(ip, opts); err != nil || !rep.Passed {
		b.Fatalf("warm-up replay: rep=%+v err=%v", rep, err)
	}
	start := ip.WireStats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := suite.ValidateWith(ip, opts)
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Passed {
			b.Fatal("benchmark replay failed")
		}
	}
	reportQPS(b, suite.Len(), ip, start)
}

// BenchmarkReplayRedial measures what a re-dialling client pays to
// re-establish replay steady state: each iteration dials a fresh
// connection against a persistent warm server, replays the suite once,
// and hangs up — the failover/restart/sentinel-probe pattern. On a v4
// ceiling every connection re-uploads every frame body (per-connection
// cache, cold on arrival); on v5 the shared content-addressed store
// answers hash probes, so bytes/query collapses to back-reference cost.
// The CI bandwidth gate holds the v5 number.
func BenchmarkReplayRedial(b *testing.B) {
	for _, tc := range []struct {
		name string
		maxV byte
	}{
		{"v4", protocolV4},
		{"v5", protocolVersion},
	} {
		b.Run(tc.name, func(b *testing.B) {
			suite := benchSuite(b, QuantizedOutputs)
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			srv := ServeWith(l, goldenNet(), ServerOptions{
				MaxVersion: tc.maxV, FrameStore: NewFrameStore(0, 0),
			})
			b.Cleanup(func() { srv.Close() })
			opts := ValidateOptions{Batch: 16}
			redial := func() WireStats {
				ip, derr := DialWith(srv.Addr(), DialOptions{Wire: WireQuant})
				if derr != nil {
					b.Fatal(derr)
				}
				defer ip.Close()
				rep, verr := suite.ValidateWith(ip, opts)
				if verr != nil || !rep.Passed {
					b.Fatalf("redial replay: rep=%+v err=%v", rep, verr)
				}
				return ip.WireStats()
			}
			redial() // warm the store (and, on v4, nothing — that is the point)
			var used WireStats
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st := redial()
				used.BytesRead += st.BytesRead
				used.BytesWritten += st.BytesWritten
			}
			if s := b.Elapsed().Seconds(); s > 0 {
				b.ReportMetric(float64(suite.Len()*b.N)/s, "queries/s")
			}
			b.ReportMetric(float64(used.Total())/float64(suite.Len()*b.N), "bytes/query")
		})
	}
}

// BenchmarkReplayManyClients is the fleet-throughput scenario: many
// connections each replaying the suite one query at a time — the shape
// sentinel probes and small validators produce — against one server,
// with cross-connection coalescing off (every query a per-sample
// forward on its own clone) and on (same-shape queries gathered across
// connections into one batched forward). Warm sessions, so the wire
// carries back-references; the work is the evaluation dispatch itself.
// The network is dense-dominated (a wide FC stack, untrained — the
// suite's references come from the same instance): batched evaluation
// wins exactly where weight reuse does, one streaming pass over the FC
// matrix answering the whole batch instead of one pass per query. On
// conv-dominated models per-sample forwards have no such reuse to
// recover and coalescing is a wash — dispatch policy only moves
// throughput when the evaluation does. Each client pipelines two
// queries (Concurrency 2) so the fleet keeps 2×clients single-query
// requests outstanding and coalesced batches fill on arrival instead
// of waiting out the window; the cap equals the client count so one
// wave folds into one ForwardBatch.
func BenchmarkReplayManyClients(b *testing.B) {
	const clients = 12
	rng := rand.New(rand.NewSource(4321))
	fc1 := nn.NewDense("fc1", 576, 4096)
	fc2 := nn.NewDense("fc2", 4096, 10)
	fc1.Init(rng)
	fc2.Init(rng)
	manyNet := nn.NewNetwork(nn.NewFlatten("flat"), fc1, nn.NewActivate("act", nn.ReLU), fc2)
	inputs := make([]*tensor.Tensor, 16)
	for i := range inputs {
		inputs[i] = tensor.New(1, 24, 24)
		inputs[i].FillNormal(rng, 0.5, 0.2)
		inputs[i].Clamp(0, 1)
	}
	suite := BuildSuite("bench-many", manyNet, inputs, QuantizedOutputs)
	for _, tc := range []struct {
		name   string
		window time.Duration
	}{
		{"direct", 0},
		{"coalesced", time.Millisecond},
	} {
		b.Run(tc.name, func(b *testing.B) {
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			// Workers 2 so each connection may carry both of its client's
			// pipelined queries at once (the per-connection inflight bound
			// is the pool size); with 12 it would be the batch cap exactly,
			// and any lagging client would force a window stall per wave.
			srv := ServeWith(l, manyNet, ServerOptions{
				Workers:        2,
				FrameStore:     NewFrameStore(0, 0),
				CoalesceWindow: tc.window, CoalesceBatch: 12,
			})
			b.Cleanup(func() { srv.Close() })
			opts := ValidateOptions{Batch: 1, Concurrency: 2}
			ips := make([]*RemoteIP, clients)
			for i := range ips {
				ip, derr := DialWith(srv.Addr(), DialOptions{Wire: WireQuant})
				if derr != nil {
					b.Fatal(derr)
				}
				b.Cleanup(func() { ip.Close() })
				if rep, verr := suite.ValidateWith(ip, opts); verr != nil || !rep.Passed {
					b.Fatalf("warm-up replay: rep=%+v err=%v", rep, verr)
				}
				ips[i] = ip
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var wg sync.WaitGroup
				for _, ip := range ips {
					wg.Add(1)
					go func(ip *RemoteIP) {
						defer wg.Done()
						rep, verr := suite.ValidateWith(ip, opts)
						if verr != nil || !rep.Passed {
							b.Errorf("client replay: rep=%+v err=%v", rep, verr)
						}
					}(ip)
				}
				wg.Wait()
			}
			if s := b.Elapsed().Seconds(); s > 0 {
				b.ReportMetric(float64(clients*suite.Len()*b.N)/s, "queries/s")
			}
		})
	}
}

func BenchmarkReplayShardedBatched(b *testing.B) {
	suite := benchSuite(b, ExactOutputs)
	cluster, err := DialShards(benchServers(b, 2), DialOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer cluster.Close()
	opts := ValidateOptions{Batch: 16, Concurrency: 4}
	start := cluster.WireStats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := suite.ValidateWith(cluster, opts)
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Passed {
			b.Fatal("benchmark replay failed")
		}
	}
	reportQPS(b, suite.Len(), cluster, start)
}
