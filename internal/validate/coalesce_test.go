package validate

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/nn"
)

// Cross-connection coalescing tests: the optimisation must be
// invisible. Verdicts with a coalescing window on are bit-identical to
// verdicts with it off, on every dialect (exact v2, float32 v3,
// quantised v4 and v5), from many concurrent single-query connections
// over real TCP, on intact and attacked networks.

// coalesceWindow is long enough that concurrent single-query clients
// genuinely land in shared batches on a loaded CI box, short enough
// that the grid stays fast.
const coalesceWindow = 2 * time.Millisecond

// startServerCoalesce serves target with the given window (0 = off)
// at the given negotiation ceiling, with a private frame store.
func startServerCoalesce(t *testing.T, target *nn.Network, maxVersion byte, window time.Duration) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := ServeWith(l, target, ServerOptions{
		Workers: 2, Wire: WireF32, MaxVersion: maxVersion,
		FrameStore:     NewFrameStore(0, 0),
		CoalesceWindow: window, CoalesceBatch: 4,
	})
	t.Cleanup(func() { srv.Close() })
	return srv.Addr()
}

// TestCoalescingVerdictIdentityGrid: for each dialect and each target
// (intact, attacked), N concurrent connections each replay the suite
// with Batch 1 — all traffic is single-query, the coalescable shape —
// against a coalescing server and a plain one. Every report must equal
// the plain server's report, which itself must equal the local verdict.
func TestCoalescingVerdictIdentityGrid(t *testing.T) {
	const clients = 4
	dialects := []struct {
		name string
		mode CompareMode
		maxV byte
		dial DialOptions
	}{
		{"v2-exact", ExactOutputs, protocolV2, DialOptions{}},
		{"v3-f32", ExactOutputs, protocolV3, DialOptions{Wire: WireF32}},
		{"v4-quant", QuantizedOutputs, protocolV4, DialOptions{Wire: WireQuant}},
		{"v5-quant", QuantizedOutputs, protocolVersion, DialOptions{Wire: WireQuant}},
	}
	for _, d := range dialects {
		suite := goldenSuite(t, 8, d.mode)
		tol := 0.0
		if d.dial.Wire == WireF32 {
			tol = 1e-4 // float32 fleet vs float64 references
		}
		for _, intact := range []bool{true, false} {
			target := goldenNet()
			if !intact {
				target = perturbedNet(t)
			}
			name := fmt.Sprintf("%s/intact=%v", d.name, intact)
			opts := ValidateOptions{Batch: 1, Tolerance: tol}

			// The reference verdict: same dialect, coalescing off.
			plainAddr := startServerCoalesce(t, target, d.maxV, 0)
			plainIP, err := DialWith(plainAddr, d.dial)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			want, err := suite.ValidateWith(plainIP, opts)
			plainIP.Close()
			if err != nil {
				t.Fatalf("%s: plain replay: %v", name, err)
			}

			// N clients against one coalescing server, concurrently, so
			// their single-query requests actually share batches.
			addr := startServerCoalesce(t, target, d.maxV, coalesceWindow)
			var wg sync.WaitGroup
			errs := make([]error, clients)
			got := make([]Report, clients)
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					ip, derr := DialWith(addr, d.dial)
					if derr != nil {
						errs[c] = derr
						return
					}
					defer ip.Close()
					for round := 0; round < 2; round++ {
						rep, verr := suite.ValidateWith(ip, opts)
						if verr != nil {
							errs[c] = verr
							return
						}
						got[c] = rep
						if rep != want {
							errs[c] = fmt.Errorf("round %d report %+v, plain report %+v", round, rep, want)
							return
						}
					}
				}(c)
			}
			wg.Wait()
			for c, err := range errs {
				if err != nil {
					t.Fatalf("%s client %d: %v", name, c, err)
				}
			}
		}
	}
}

// TestCoalescerBatching: the generic coalescer's own contract — a full
// batch runs without waiting out the window, every member gets its own
// slot back in submission order, and a run error reaches all members.
func TestCoalescerBatching(t *testing.T) {
	var runs int
	var sizes []int
	var mu sync.Mutex
	c := newCoalescer[string, int](time.Hour, 3, func(_ string, xs []int) ([]int, error) {
		mu.Lock()
		runs++
		sizes = append(sizes, len(xs))
		mu.Unlock()
		out := make([]int, len(xs))
		for i, x := range xs {
			out[i] = x * 10
		}
		return out, nil
	})
	var wg sync.WaitGroup
	outs := make([]int, 3)
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out, err := c.submit("[4]", i)
			if err != nil {
				t.Error(err)
			}
			outs[i] = out
		}(i)
	}
	wg.Wait() // an hour-long window would hang here if full-batch flush broke
	for i, out := range outs {
		if out != i*10 {
			t.Fatalf("member %d got %d, want its own slot %d", i, out, i*10)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if runs != 1 || sizes[0] != 3 {
		t.Fatalf("3 submissions ran %d batches of sizes %v, want one batch of 3", runs, sizes)
	}
}

// TestCoalescerWindowFlush: a lone submission is released by the window
// timer, and distinct keys never share a batch.
func TestCoalescerWindowFlush(t *testing.T) {
	var mu sync.Mutex
	var batches [][]string
	c := newCoalescer[string, string](coalesceWindow, 64, func(_ string, xs []string) ([]string, error) {
		mu.Lock()
		batches = append(batches, append([]string(nil), xs...))
		mu.Unlock()
		return xs, nil
	})
	var wg sync.WaitGroup
	for i, shape := range []string{"[2 3]", "[3 2]"} {
		wg.Add(1)
		go func(i int, shape string) {
			defer wg.Done()
			out, err := c.submit(shape, shape)
			if err != nil || out != shape {
				t.Errorf("shape %s: out=%q err=%v", shape, out, err)
			}
		}(i, shape)
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if len(batches) != 2 {
		t.Fatalf("two shapes coalesced into %d batches: %v", len(batches), batches)
	}
	for _, b := range batches {
		if len(b) != 1 {
			t.Fatalf("distinct shapes shared a batch: %v", batches)
		}
	}
}

// TestCoalescerErrorHomogeneity: when the run fails, every member of
// the batch observes the error.
func TestCoalescerErrorHomogeneity(t *testing.T) {
	c := newCoalescer[string, int](time.Hour, 2, func(_ string, xs []int) ([]int, error) {
		return nil, fmt.Errorf("fleet on fire")
	})
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := c.submit("[1]", i); err == nil || err.Error() != "fleet on fire" {
				t.Errorf("member %d error = %v, want the shared run error", i, err)
			}
		}(i)
	}
	wg.Wait()
}
