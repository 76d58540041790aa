package parallel

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestPoolMatchesForPartitioning: Pool.For must produce exactly the
// chunks of the package-level For at the same worker count, so pool
// adopters inherit the deterministic-merge guarantees unchanged.
func TestPoolMatchesForPartitioning(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 7} {
		p := NewPool(workers)
		for _, n := range []int{0, 1, 2, 5, 16, 97} {
			type chunk struct{ w, lo, hi int }
			var mu sync.Mutex
			var got, want []chunk
			p.For(n, func(w, lo, hi int) {
				mu.Lock()
				got = append(got, chunk{w, lo, hi})
				mu.Unlock()
			})
			For(n, workers, func(w, lo, hi int) {
				mu.Lock()
				want = append(want, chunk{w, lo, hi})
				mu.Unlock()
			})
			if len(got) != len(want) {
				t.Fatalf("workers=%d n=%d: pool made %d chunks, For made %d", workers, n, len(got), len(want))
			}
			find := func(cs []chunk, w int) (chunk, bool) {
				for _, c := range cs {
					if c.w == w {
						return c, true
					}
				}
				return chunk{}, false
			}
			for _, wc := range want {
				gc, ok := find(got, wc.w)
				if !ok || gc != wc {
					t.Fatalf("workers=%d n=%d: worker %d chunk %+v, want %+v", workers, n, wc.w, gc, wc)
				}
			}
		}
		p.Close()
	}
}

// TestPoolCoversEveryIndexOnce: across many region shapes, every index
// in [0,n) is visited exactly once.
func TestPoolCoversEveryIndexOnce(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	for _, n := range []int{1, 3, 4, 5, 63, 64, 65} {
		visits := make([]int32, n)
		var mu sync.Mutex
		p.For(n, func(_, lo, hi int) {
			mu.Lock()
			for i := lo; i < hi; i++ {
				visits[i]++
			}
			mu.Unlock()
		})
		for i, v := range visits {
			if v != 1 {
				t.Fatalf("n=%d: index %d visited %d times", n, i, v)
			}
		}
	}
}

// TestPoolPinnedState: per-worker state mutated without synchronisation
// from inside regions must be safe because worker w always runs on the
// same goroutine. Run under -race this is the load-bearing pinning
// test: if chunks for worker w could land on different goroutines, or
// two regions could overlap, the unsynchronised counters below race.
func TestPoolPinnedState(t *testing.T) {
	const workers, rounds, n = 4, 50, 64
	p := NewPool(workers)
	defer p.Close()
	counts := make([]int, workers) // pinned: worker w touches counts[w] only
	for r := 0; r < rounds; r++ {
		p.For(n, func(w, lo, hi int) {
			counts[w] += hi - lo
		})
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != rounds*n {
		t.Fatalf("pinned counters saw %d items, want %d", total, rounds*n)
	}
}

// TestPoolEach: fn(w) runs exactly once per worker id.
func TestPoolEach(t *testing.T) {
	p := NewPool(3)
	defer p.Close()
	seen := make([]int, 3) // pinned per worker
	p.Each(func(w int) { seen[w]++ })
	p.Each(func(w int) { seen[w]++ })
	for w, c := range seen {
		if c != 2 {
			t.Fatalf("worker %d ran Each body %d times, want 2", w, c)
		}
	}
}

// TestPoolActiveCount: a multi-chunk region must register its workers
// in the Active count (nested kernels size themselves from it), and
// deregister on return.
func TestPoolActiveCount(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	var inside int
	var mu sync.Mutex
	p.For(8, func(_, _, _ int) {
		mu.Lock()
		if a := Active(); a > inside {
			inside = a
		}
		mu.Unlock()
	})
	if inside != 4 {
		t.Fatalf("Active inside a 4-worker region = %d, want 4", inside)
	}
	if a := Active(); a != 0 {
		t.Fatalf("Active after region = %d, want 0", a)
	}
}

// TestPoolCloseIdempotent: Close twice must not panic or hang.
func TestPoolCloseIdempotent(t *testing.T) {
	p := NewPool(2)
	p.Close()
	p.Close()
}

// TestPoolForAfterClosePanics documents the misuse contract.
func TestPoolForAfterClosePanics(t *testing.T) {
	p := NewPool(2)
	p.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("For on a closed pool did not panic")
		}
	}()
	p.For(4, func(_, _, _ int) {})
}

// TestPoolSerialInline: a single-chunk region must run inline on the
// caller's goroutine and touch worker id 0, like For's serial path.
func TestPoolSerialInline(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	ran := false
	p.For(1, func(w, lo, hi int) {
		if w != 0 || lo != 0 || hi != 1 {
			t.Fatalf("serial chunk (%d,%d,%d), want (0,0,1)", w, lo, hi)
		}
		ran = true
	})
	if !ran { // no race possible: inline means same goroutine
		t.Fatal("serial region did not run")
	}
}

// TestPoolClaimCoversEveryIndexOnce: every index in [0,n) runs exactly
// once, on a worker id below Effective(n, Workers()).
func TestPoolClaimCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		p := NewPool(workers)
		for _, n := range []int{0, 1, 3, 4, 5, 64, 65} {
			visits := make([]int32, n)
			eff := Effective(n, p.Workers())
			var badWorker atomic.Int32
			badWorker.Store(-1)
			p.Claim(n, func(w, i int) {
				if w < 0 || w >= eff {
					badWorker.Store(int32(w))
				}
				atomic.AddInt32(&visits[i], 1)
			})
			if w := badWorker.Load(); w >= 0 {
				t.Fatalf("workers=%d n=%d: worker id %d outside [0,%d)", workers, n, w, eff)
			}
			for i, v := range visits {
				if v != 1 {
					t.Fatalf("workers=%d n=%d: index %d ran %d times", workers, n, i, v)
				}
			}
		}
		p.Close()
	}
}

// TestPoolClaimActiveCount: a multi-worker Claim region registers its
// workers in the Active count and deregisters them on return.
func TestPoolClaimActiveCount(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	var wrong atomic.Int64
	wrong.Store(-1)
	p.Claim(8, func(_, _ int) {
		if a := Active(); a != 4 {
			wrong.Store(int64(a))
		}
	})
	if got := wrong.Load(); got >= 0 {
		t.Fatalf("Active inside a 4-worker Claim region = %d, want 4", got)
	}
	if a := Active(); a != 0 {
		t.Fatalf("Active after region = %d, want 0", a)
	}
}

// TestPoolClaimAfterClosePanics documents the misuse contract.
func TestPoolClaimAfterClosePanics(t *testing.T) {
	p := NewPool(2)
	p.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("Claim on a closed pool did not panic")
		}
	}()
	p.Claim(4, func(_, _ int) {})
}

// TestPoolClaimBalances: at 2 workers, whichever worker claims index 0
// blocks until every other index has finished. Only dynamic claiming
// completes this — under For's contiguous chunks the blocked worker
// would own indexes 1..n/2-1 itself — and the guard turns a
// regression into a failure instead of a hang.
func TestPoolClaimBalances(t *testing.T) {
	const n = 16
	p := NewPool(2)
	defer p.Close()
	var finished atomic.Int32
	others := make(chan struct{})
	var stuckAt atomic.Int32 // finished count when the guard fired
	stuckAt.Store(-1)
	p.Claim(n, func(_, i int) {
		if i == 0 {
			select {
			case <-others:
			case <-time.After(10 * time.Second):
				stuckAt.Store(finished.Load())
			}
			return
		}
		if finished.Add(1) == n-1 {
			close(others)
		}
	})
	if got := stuckAt.Load(); got >= 0 {
		t.Fatalf("the worker holding index 0 waited 10 s; %d of the other %d indexes had finished", got, n-1)
	}
}
