package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// These are the blocked-kernel property tests: for every kernel in the
// GEMM family, the cache-blocked packed path must be bit-identical to an
// independent reference that states the per-element contract directly —
// element (i,j) accumulates its k terms one at a time in ascending k,
// with the skip-on-zero-A test where the kernel has one — across odd and
// degenerate shapes, both precisions, a worker grid, and blocking
// parameters forced down to degenerate tiny tiles.

// forceBlocking pins the blocking parameters and drops the packing
// threshold to zero so every product (even a 1×1×1) takes the blocked
// packed path, restoring the production values on cleanup. Kernel
// globals are package-level, so these tests must not run in parallel
// with each other.
func forceBlocking(t *testing.T, cols, kTile, rows int) {
	t.Helper()
	prevCols, prevK, prevRows, prevMin := gemmBlockCols, gemmBlockK, gemmBlockRows, gemmPackMinElems
	gemmBlockCols, gemmBlockK, gemmBlockRows, gemmPackMinElems = cols, kTile, rows, 0
	t.Cleanup(func() {
		gemmBlockCols, gemmBlockK, gemmBlockRows, gemmPackMinElems = prevCols, prevK, prevRows, prevMin
	})
}

func randMatOf[E Num](rng *rand.Rand, rows, cols int) *Dense[E] {
	m := NewOf[E](rows, cols)
	for i := range m.Data() {
		// Include exact zeros so the av==0 skip is exercised.
		if rng.Intn(5) == 0 {
			continue
		}
		m.Data()[i] = E(rng.NormFloat64())
	}
	return m
}

func denseEqualBitwise[E Num](t *testing.T, name string, got, want *Dense[E]) {
	t.Helper()
	if got.Size() != want.Size() {
		t.Fatalf("%s: size %d vs %d", name, got.Size(), want.Size())
	}
	for i := range want.Data() {
		if got.Data()[i] != want.Data()[i] {
			t.Fatalf("%s: element %d = %v, want %v (blocked path must be bit-identical)",
				name, i, got.Data()[i], want.Data()[i])
		}
	}
}

// refMatMul is the independent reference for C = A·B: a scalar
// accumulator per element, terms in ascending k, same zero-skip. Scalar
// accumulation in E rounds exactly like the kernel's in-memory
// accumulation, so reference ≡ kernel bit for bit.
func refMatMul[E Num](a, b *Dense[E], m, k, n int) *Dense[E] {
	c := NewOf[E](m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var acc E
			for kk := 0; kk < k; kk++ {
				if av := a.Data()[i*k+kk]; av != 0 {
					acc += av * b.Data()[kk*n+j]
				}
			}
			c.Data()[i*n+j] = acc
		}
	}
	return c
}

// refMatMulTA is the reference for C = Aᵀ·B (A is [k,m]).
func refMatMulTA[E Num](a, b *Dense[E], k, m, n int) *Dense[E] {
	c := NewOf[E](m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var acc E
			for kk := 0; kk < k; kk++ {
				if av := a.Data()[kk*m+i]; av != 0 {
					acc += av * b.Data()[kk*n+j]
				}
			}
			c.Data()[i*n+j] = acc
		}
	}
	return c
}

// refMatMulTB is the reference for C = A·Bᵀ (B is [n,k]); the TB kernel
// has no zero-skip, so neither does the reference.
func refMatMulTB[E Num](a, b *Dense[E], m, k, n int) *Dense[E] {
	c := NewOf[E](m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var acc E
			for kk := 0; kk < k; kk++ {
				acc += a.Data()[i*k+kk] * b.Data()[j*k+kk]
			}
			c.Data()[i*n+j] = acc
		}
	}
	return c
}

// blockGrids are the forced blocking parameters the property tests sweep:
// degenerate 1-wide tiles, tiny odd tiles, and the production shape.
var blockGrids = []struct{ cols, k, rows int }{
	{1, 1, 1},
	{2, 3, 2},
	{5, 2, 3},
	{8, 8, 4},
	{512, 128, 64},
}

func testBlockedGEMM[E Num](t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for _, g := range blockGrids {
		forceBlocking(t, g.cols, g.k, g.rows)
		for _, workers := range []int{1, 3} {
			forceParallel(t, workers)
			for _, s := range gemmShapes {
				a := randMatOf[E](rng, s.m, s.k)
				b := randMatOf[E](rng, s.k, s.n)
				denseEqualBitwise(t, "MatMul/blocked", MatMul(a, b), refMatMul(a, b, s.m, s.k, s.n))

				at := randMatOf[E](rng, s.k, s.m)
				denseEqualBitwise(t, "MatMulTA/blocked", MatMulTA(at, b), refMatMulTA(at, b, s.k, s.m, s.n))

				bt := randMatOf[E](rng, s.n, s.k)
				denseEqualBitwise(t, "MatMulTB/blocked", MatMulTB(a, bt), refMatMulTB(a, bt, s.m, s.k, s.n))

				// Accumulating Into form: the destination value seeds the
				// accumulator BEFORE the ascending-k terms, exactly the
				// kernel's in-memory order.
				seedC := randMatOf[E](rng, s.m, s.n)
				want := seedC.Clone()
				for i := 0; i < s.m; i++ {
					for j := 0; j < s.n; j++ {
						acc := want.Data()[i*s.n+j]
						for kk := 0; kk < s.k; kk++ {
							if av := a.Data()[i*s.k+kk]; av != 0 {
								acc += av * b.Data()[kk*s.n+j]
							}
						}
						want.Data()[i*s.n+j] = acc
					}
				}
				got := seedC.Clone()
				MatMulInto(got, a, b, true)
				denseEqualBitwise(t, "MatMulInto/blocked accumulate", got, want)
			}
		}
	}
}

func TestBlockedGEMMMatchesReferenceF64(t *testing.T) { testBlockedGEMM[float64](t, 71) }
func TestBlockedGEMMMatchesReferenceF32(t *testing.T) { testBlockedGEMM[float32](t, 72) }

// TestBlockedMatchesDirect pins blocked ≡ direct on a shape where tiles
// are larger than, equal to, and smaller than the dimensions, with the
// production tile sizes: only the threshold differs between the runs.
func TestBlockedMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	a := randMatOf[float64](rng, 37, 149)
	b := randMatOf[float64](rng, 149, 273)
	direct := MatMul(a, b) // 149*273 < production threshold → direct path
	forceBlocking(t, 512, 128, 64)
	tensorsEqualBitwise(t, "blocked vs direct", MatMul(a, b), direct)
}

// TestPackedGEMMSteadyStateZeroAlloc pins the scratch-arena contract:
// once the pack pools are warm, the serial blocked kernels allocate
// nothing per call. The budget of 0.5 tolerates a rare pool eviction by
// a concurrent GC without ever accepting a per-call allocation.
func TestPackedGEMMSteadyStateZeroAlloc(t *testing.T) {
	forceBlocking(t, 16, 8, 8)
	rng := rand.New(rand.NewSource(91))
	const m, k, n = 12, 33, 47
	a := randMatOf[float64](rng, m, k)
	b := randMatOf[float64](rng, k, n)
	c := NewOf[float64](m, n)
	serialOnly(func() {
		MatMulInto(c, a, b, false) // warm the pack pool
		if avg := testing.AllocsPerRun(100, func() {
			MatMulInto(c, a, b, false)
		}); avg > 0.5 {
			t.Errorf("steady-state blocked MatMulInto allocates %.2f objects per call, want 0", avg)
		}
	})
}

// TestKernelWorkersOverflowProofFlops is the regression test for the
// saturating flop sizing: an m*k*n product that overflows int must not
// collapse the worker count to 1 (the old raw multiply went negative and
// silently forced huge products onto the serial path).
func TestKernelWorkersOverflowProofFlops(t *testing.T) {
	if gemmFlops(1<<21, 1<<21, 1<<21) != math.MaxInt {
		t.Fatalf("gemmFlops must saturate at MaxInt on overflow, got %d", gemmFlops(1<<21, 1<<21, 1<<21))
	}
	dim := 1 << 21
	if raw := dim * dim * dim; raw >= 0 {
		t.Fatalf("test shape no longer overflows int (raw=%d); pick a bigger one", raw)
	}
	if gemmFlops(0, 5, 5) != 0 || gemmFlops(5, 0, 5) != 0 {
		t.Fatalf("gemmFlops of an empty product must be 0")
	}
	if satMul(math.MaxInt, 2) != math.MaxInt {
		t.Fatalf("satMul must saturate")
	}
	prev := Parallelism()
	SetParallelism(8)
	defer SetParallelism(prev)
	if w := kernelWorkers(1024, gemmFlops(1<<21, 1<<21, 1<<21)); w != 8 {
		t.Fatalf("overflowing flop count sized %d workers, want the full 8", w)
	}
}
