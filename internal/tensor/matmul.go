package tensor

import (
	"fmt"
	"sync/atomic"

	"repro/internal/parallel"
)

// Parallelism of the matrix kernels. Every product here is partitioned
// into disjoint row panels of the output, and each panel is computed
// with exactly the instruction sequence of the serial kernel, so the
// parallel results are bit-identical to serial at any worker count. The
// knob therefore defaults to the whole machine.
var matmulWorkers atomic.Int64

// gemmMinFlopsPerWorker is the serial-fallback threshold: a product is
// split only into panels worth at least this many multiply-adds, so
// small products (where goroutine handoff would dominate) stay on the
// inline serial path. A var, not a const, so tests can force the
// parallel path on tiny shapes.
var gemmMinFlopsPerWorker = 64 * 1024

func init() { matmulWorkers.Store(int64(parallel.Auto())) }

// SetParallelism bounds the worker goroutines the matrix kernels may
// use. Values below 1 force the serial path. It is safe to call
// concurrently with running kernels; in-flight products finish with the
// worker count they started with.
func SetParallelism(n int) { matmulWorkers.Store(int64(parallel.Workers(n))) }

// Parallelism returns the current matrix-kernel worker bound.
func Parallelism() int { return int(matmulWorkers.Load()) }

// kernelWorkers sizes the pool for an [m,n] output costing flops
// multiply-adds: never more workers than output rows, at least
// gemmMinFlopsPerWorker of work per worker, and — when the product runs
// inside an already fanned-out worker pool (batched evaluation inside a
// coverage or training worker) — no more than this kernel's share of the
// machine, so nested fan-out cannot oversubscribe the CPU. Worker count
// never changes results (panels are bit-identical to serial), so the
// sizing is purely a throughput decision.
func kernelWorkers(rows, flops int) int {
	w := Parallelism()
	if outer := parallel.Active(); outer > 1 {
		if w = w / outer; w < 1 {
			w = 1
		}
	}
	if byWork := flops / gemmMinFlopsPerWorker; byWork < w {
		w = byWork
	}
	if w > rows {
		w = rows
	}
	if w < 1 {
		w = 1
	}
	return w
}

// The kernels below are generic over the element type: each
// instantiation accumulates in its own precision (float64 kernels are
// instruction-for-instruction the pre-generic float64 kernels; float32
// kernels multiply, add and skip zeros in float32, halving memory
// traffic on bandwidth-bound products). The row-panel parallel
// guarantee is precision-independent: panels are disjoint and each row
// runs the serial kernel's operation sequence, so results never depend
// on the worker count.

// MatMul returns C = A·B for A of shape [m,k] and B of shape [k,n].
// The inner loop is ordered i-k-j so B is walked row-contiguously, which
// is the standard cache-friendly pure-Go GEMM arrangement.
func MatMul[E Num](a, b *Dense[E]) *Dense[E] {
	m, k, n := gemmDims(a, b)
	c := NewOf[E](m, n)
	gemm(c.data, a.data, b.data, m, k, n, false)
	return c
}

// MatMulInto computes C = A·B into an existing [m,n] tensor, avoiding the
// allocation. If accumulate is true it computes C += A·B instead.
func MatMulInto[E Num](c, a, b *Dense[E], accumulate bool) {
	m, k, n := gemmDims(a, b)
	if c.Rank() != 2 || c.Dim(0) != m || c.Dim(1) != n {
		panic(fmt.Sprintf("tensor: MatMulInto dst shape %v, want [%d %d]", c.Shape(), m, n))
	}
	gemm(c.data, a.data, b.data, m, k, n, accumulate)
}

func gemmDims[E Num](a, b *Dense[E]) (m, k, n int) {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic(fmt.Sprintf("tensor: MatMul needs rank-2 operands, got %v × %v", a.Shape(), b.Shape()))
	}
	m, k = a.Dim(0), a.Dim(1)
	if b.Dim(0) != k {
		panic(fmt.Sprintf("tensor: MatMul inner dimension mismatch %v × %v", a.Shape(), b.Shape()))
	}
	return m, k, b.Dim(1)
}

// gemm computes C (+)= A·B, fanning row panels of C out across the
// worker pool when the product is large enough to pay for it. Workers
// own disjoint row panels and each row is produced by the same
// operation sequence as the serial kernel, so results do not depend on
// the worker count. The panel kernel itself (gemmPanel, gemm.go)
// routes large products through the cache-blocked packed path, which is
// bit-identical to the direct path for any blocking parameters.
func gemm[E Num](c, a, b []E, m, k, n int, accumulate bool) {
	workers := kernelWorkers(m, gemmFlops(m, k, n))
	if workers <= 1 {
		// Serial fast path without the fan-out closure, so steady-state
		// packed GEMM performs zero allocations.
		gemmPanel(c, a, b, 0, m, k, n, accumulate)
		return
	}
	parallel.ForUncounted(m, workers, func(_, lo, hi int) {
		gemmPanel(c, a, b, lo, hi, k, n, accumulate)
	})
}

// MatMulTA returns C = Aᵀ·B for A of shape [k,m] and B of shape [k,n];
// the weight-gradient product of a dense layer backward pass. Row panels
// of C (columns of A) are independent, and every C row accumulates its
// kk terms in ascending order exactly as the serial kernel does, so the
// parallel path is bit-identical.
func MatMulTA[E Num](a, b *Dense[E]) *Dense[E] {
	k, m, n := gemmTADims(a, b)
	c := NewOf[E](m, n)
	gemmTA(c, a, b, k, m, n)
	return c
}

// MatMulTAInto computes C += Aᵀ·B into an existing [m,n] tensor (or
// C = Aᵀ·B when accumulate is false). The batched dense backward uses the
// accumulate form: with A = dOut [B,Out] and B = X [B,In], every weight
// gradient cell receives its per-sample terms in ascending sample order,
// exactly the sequence of the per-sample accumulation loop, so the
// batched gradients are bit-identical to the serial path.
func MatMulTAInto[E Num](c, a, b *Dense[E], accumulate bool) {
	k, m, n := gemmTADims(a, b)
	if c.Rank() != 2 || c.Dim(0) != m || c.Dim(1) != n {
		panic(fmt.Sprintf("tensor: MatMulTAInto dst shape %v, want [%d %d]", c.Shape(), m, n))
	}
	if !accumulate {
		c.Zero()
	}
	gemmTA(c, a, b, k, m, n)
}

func gemmTADims[E Num](a, b *Dense[E]) (k, m, n int) {
	if a.Rank() != 2 || b.Rank() != 2 || a.Dim(0) != b.Dim(0) {
		panic(fmt.Sprintf("tensor: MatMulTA shape mismatch %v × %v", a.Shape(), b.Shape()))
	}
	return a.Dim(0), a.Dim(1), b.Dim(1)
}

// gemmTA accumulates Aᵀ·B into c, which holds the starting values. The
// panel kernel tiles large products so the C panel stays cache-hot
// across the kk sweep; per element the kk terms still arrive in
// ascending order, so tiled ≡ untiled bit for bit.
func gemmTA[E Num](c, a, b *Dense[E], k, m, n int) {
	workers := kernelWorkers(m, gemmFlops(m, k, n))
	if workers <= 1 {
		gemmTAPanel(c.data, a.data, b.data, 0, m, k, m, n)
		return
	}
	parallel.ForUncounted(m, workers, func(_, lo, hi int) {
		gemmTAPanel(c.data, a.data, b.data, lo, hi, k, m, n)
	})
}

// MatMulTB returns C = A·Bᵀ for A of shape [m,k] and B of shape [n,k];
// the input-gradient product of a dense layer backward pass.
func MatMulTB[E Num](a, b *Dense[E]) *Dense[E] {
	m, k, n := gemmTBDims(a, b)
	c := NewOf[E](m, n)
	gemmTB(c, a, b, m, k, n, false)
	return c
}

// MatMulTBInto computes C += A·Bᵀ into an existing [m,n] tensor (or
// C = A·Bᵀ when accumulate is false). Every output cell is one scalar
// dot product added to the destination in a single operation — the same
// sequence as MatMulTB followed by an elementwise add — so accumulating
// layer gradients through it is bit-identical to the allocate-then-add
// form.
func MatMulTBInto[E Num](c, a, b *Dense[E], accumulate bool) {
	m, k, n := gemmTBDims(a, b)
	if c.Rank() != 2 || c.Dim(0) != m || c.Dim(1) != n {
		panic(fmt.Sprintf("tensor: MatMulTBInto dst shape %v, want [%d %d]", c.Shape(), m, n))
	}
	gemmTB(c, a, b, m, k, n, accumulate)
}

func gemmTBDims[E Num](a, b *Dense[E]) (m, k, n int) {
	if a.Rank() != 2 || b.Rank() != 2 || a.Dim(1) != b.Dim(1) {
		panic(fmt.Sprintf("tensor: MatMulTB shape mismatch %v × %v", a.Shape(), b.Shape()))
	}
	return a.Dim(0), a.Dim(1), b.Dim(0)
}

// gemmTB fans row panels of C (+)= A·Bᵀ out across the worker pool.
func gemmTB[E Num](c, a, b *Dense[E], m, k, n int, accumulate bool) {
	workers := kernelWorkers(m, gemmFlops(m, k, n))
	if workers <= 1 {
		gemmTBPanel(c.data, a.data, b.data, 0, m, k, n, accumulate)
		return
	}
	parallel.ForUncounted(m, workers, func(_, lo, hi int) {
		gemmTBPanel(c.data, a.data, b.data, lo, hi, k, n, accumulate)
	})
}

// MatVec returns y = A·x for A of shape [m,n] and x of length n.
func MatVec[E Num](a, x *Dense[E]) *Dense[E] {
	if a.Rank() != 2 || x.Size() != a.Dim(1) {
		panic(fmt.Sprintf("tensor: MatVec shape mismatch %v × %v", a.Shape(), x.Shape()))
	}
	m, n := a.Dim(0), a.Dim(1)
	y := NewOf[E](m)
	workers := kernelWorkers(m, satMul(m, n))
	parallel.ForUncounted(m, workers, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			row := a.data[i*n : i*n+n]
			var s E
			for j, v := range row {
				s += v * x.data[j]
			}
			y.data[i] = s
		}
	})
	return y
}
