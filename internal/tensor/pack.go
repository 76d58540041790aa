package tensor

import (
	"math"
	"sync"
)

// Cache-blocking parameters for the packed GEMM kernels. Blocking is a
// pure traversal-order transform: every output element still receives
// its k terms one at a time in ascending k, with the same skip-on-zero
// test, into the same destination element — so results are bit-identical
// for ANY values of these knobs (the blocked_test property tests pin
// this across forced tiny blocks). They are vars, not consts, exactly so
// tests can force degenerate blocking; production values are sized for
// typical L1/L2 budgets of the pure-Go kernels.
var (
	// gemmBlockCols is the output-column tile width: one packed B panel
	// row and one C row tile (gemmBlockCols elements each) together fit
	// comfortably in L1.
	gemmBlockCols = 512
	// gemmBlockK is the k tile depth: a full packed panel of
	// gemmBlockK×gemmBlockCols B elements stays resident in L2 while the
	// row loop streams over it.
	gemmBlockK = 128
	// gemmBlockRows is the output-row tile height used by the transposed
	// kernels' C tiles.
	gemmBlockRows = 64
	// gemmPackMinElems gates blocking: only products whose streamed
	// operand exceeds this many elements (≈ falls out of L2) take the
	// blocked path; smaller products already run in cache and keep the
	// direct kernels' lower constant factor.
	gemmPackMinElems = 256 * 1024
)

// satMul returns a*b saturated at math.MaxInt for non-negative operands,
// so size and flop products over adversarially large dimensions can
// never overflow into a negative int.
func satMul(a, b int) int {
	if a <= 0 || b <= 0 {
		return 0
	}
	if a > math.MaxInt/b {
		return math.MaxInt
	}
	return a * b
}

// gemmFlops returns the m*k*n multiply-add count of a GEMM, saturated at
// math.MaxInt. Worker sizing must use this instead of a raw m*k*n
// product: the raw multiply can overflow on huge shape requests, and a
// negative flop count would silently clamp the kernel to one worker.
func gemmFlops(m, k, n int) int { return satMul(satMul(m, k), n) }

// Pack buffers, and the convolution kernels' padded copies and
// accumulator rows, are recycled through per-element-type pools so
// steady-state blocked GEMM and convolution perform no scratch
// allocations: after warm-up every worker's packGet is a pool hit.
var (
	packPool64 sync.Pool // holds *[]float64
	packPool32 sync.Pool // holds *[]float32
)

// packGet returns a pack buffer of capacity at least n elements, reusing
// a pooled buffer when one is available.
func packGet[E Num](n int) *[]E {
	var zero E
	var v any
	switch any(zero).(type) {
	case float64:
		v = packPool64.Get()
	case float32:
		v = packPool32.Get()
	}
	if v != nil {
		if buf := v.(*[]E); cap(*buf) >= n {
			return buf
		}
	}
	buf := make([]E, n)
	return &buf
}

// packPut returns a buffer obtained from packGet to its pool; a nil
// buffer is ignored.
func packPut[E Num](buf *[]E) {
	if buf == nil {
		return
	}
	var zero E
	switch any(zero).(type) {
	case float64:
		packPool64.Put(any(buf).(*[]float64))
	case float32:
		packPool32.Put(any(buf).(*[]float32))
	}
}
