package tensor

// The serial panel kernels of the GEMM family. MatMul, MatMulInto,
// MatMulTA and MatMulTB fan row panels of their output out across the
// kernel worker pool (matmul.go), and every panel runs one of the
// kernels below.
//
// Bit-identity invariant (the contract every kernel below preserves, and
// blocked_test pins property-style): for each output element (i,j), the
// k products a[i,kk]*b[kk,j] are accumulated ONE AT A TIME IN ASCENDING
// kk ORDER into that element's own accumulator, with the same
// skip-when-a[i,kk]==0 test. Row/column/k tiling only re-orders WHICH
// element is advanced next — never the order of terms within an element
// — and floating-point addition is deterministic for a fixed order, so
// blocked ≡ unblocked ≡ serial ≡ parallel, bit for bit, for any blocking
// parameters and any worker count.

// gemmPanel computes rows [lo,hi) of the [m,n] product C (+)= A·B, with
// A [m,k] and B [k,n] contiguous: the single serial kernel site behind
// MatMul and MatMulInto. It zeroes the panel when not accumulating,
// then routes to the packed blocked kernel when B is too large to stay
// cache-resident.
func gemmPanel[E Num](c, a, b []E, lo, hi, k, n int, accumulate bool) {
	if !accumulate {
		clear(c[lo*n : hi*n])
	}
	if satMul(k, n) > gemmPackMinElems {
		gemmPanelBlocked(c, a, b, lo, hi, k, n)
		return
	}
	gemmPanelDirect(c, a, b, lo, hi, k, n)
}

// gemmPanelDirect is the in-cache kernel: the historical i-k-j loop (B
// walked row-contiguously).
func gemmPanelDirect[E Num](c, a, b []E, lo, hi, k, n int) {
	for i := lo; i < hi; i++ {
		arow := a[i*k : i*k+k]
		crow := c[i*n : i*n+n]
		for kk, av := range arow {
			if av == 0 {
				continue
			}
			brow := b[kk*n : kk*n+n]
			for j, bv := range brow {
				crow[j] += av * bv
			}
		}
	}
}

// gemmPanelBlocked is the out-of-cache kernel: output columns are tiled
// by gemmBlockCols and k by gemmBlockK, and each [kb×nb] B tile is
// packed into a contiguous pooled buffer that stays L2-resident while
// the row loop streams over it. Tiles are visited in ascending (jc, kc)
// order and the inner loop is ascending kk, so each output element still
// receives its k terms in ascending order — see the invariant above.
func gemmPanelBlocked[E Num](c, a, b []E, lo, hi, k, n int) {
	nbMax := min(gemmBlockCols, n)
	kbMax := min(gemmBlockK, k)
	bufp := packGet[E](nbMax * kbMax)
	pack := (*bufp)[:nbMax*kbMax]
	for jc := 0; jc < n; jc += nbMax {
		nb := min(nbMax, n-jc)
		for kc := 0; kc < k; kc += kbMax {
			kb := min(kbMax, k-kc)
			for kk := 0; kk < kb; kk++ {
				src := b[(kc+kk)*n+jc : (kc+kk)*n+jc+nb]
				copy(pack[kk*nb:kk*nb+nb], src)
			}
			for i := lo; i < hi; i++ {
				arow := a[i*k+kc : i*k+kc+kb]
				crow := c[i*n+jc : i*n+jc+nb]
				for kk, av := range arow {
					if av == 0 {
						continue
					}
					prow := pack[kk*nb : kk*nb+nb]
					for j, bv := range prow {
						crow[j] += av * bv
					}
				}
			}
		}
	}
	packPut(bufp)
}

// gemmTBPanel computes rows [lo,hi) of C (+)= A·Bᵀ. Every output cell is
// one scalar dot product over ascending k followed by a single
// write/add, so the j tiling of the blocked branch (which only keeps a
// stripe of B rows cache-resident across the row panel) cannot change
// any bits.
func gemmTBPanel[E Num](c, a, b []E, lo, hi, k, n int, accumulate bool) {
	if satMul(n, k) <= gemmPackMinElems {
		for i := lo; i < hi; i++ {
			arow := a[i*k : i*k+k]
			crow := c[i*n : i*n+n]
			for j := 0; j < n; j++ {
				brow := b[j*k : j*k+k]
				var s E
				for kk, av := range arow {
					s += av * brow[kk]
				}
				if accumulate {
					crow[j] += s
				} else {
					crow[j] = s
				}
			}
		}
		return
	}
	// Stripe height sized so one stripe of B rows matches the packed
	// panel footprint the MatMul kernel uses.
	jb := (gemmBlockCols * gemmBlockK) / k
	if jb < 1 {
		jb = 1
	}
	for j0 := 0; j0 < n; j0 += jb {
		j1 := min(j0+jb, n)
		for i := lo; i < hi; i++ {
			arow := a[i*k : i*k+k]
			crow := c[i*n : i*n+n]
			for j := j0; j < j1; j++ {
				brow := b[j*k : j*k+k]
				var s E
				for kk, av := range arow {
					s += av * brow[kk]
				}
				if accumulate {
					crow[j] += s
				} else {
					crow[j] = s
				}
			}
		}
	}
}

// gemmTAPanel computes rows [lo,hi) of C += Aᵀ·B. The blocked branch
// tiles the panel's C rows and columns so the C tile stays cache-hot
// across the kk sweep; within a tile kk still ascends for every element,
// preserving the invariant.
func gemmTAPanel[E Num](c, a, b []E, lo, hi, k, m, n int) {
	if satMul(hi-lo, n) <= gemmPackMinElems {
		for kk := 0; kk < k; kk++ {
			arow := a[kk*m : kk*m+m]
			brow := b[kk*n : kk*n+n]
			for i := lo; i < hi; i++ {
				av := arow[i]
				if av == 0 {
					continue
				}
				crow := c[i*n : i*n+n]
				for j, bv := range brow {
					crow[j] += av * bv
				}
			}
		}
		return
	}
	for i0 := lo; i0 < hi; i0 += gemmBlockRows {
		i1 := min(i0+gemmBlockRows, hi)
		for j0 := 0; j0 < n; j0 += gemmBlockCols {
			j1 := min(j0+gemmBlockCols, n)
			for kk := 0; kk < k; kk++ {
				arow := a[kk*m : kk*m+m]
				brow := b[kk*n+j0 : kk*n+j1]
				for i := i0; i < i1; i++ {
					av := arow[i]
					if av == 0 {
						continue
					}
					crow := c[i*n+j0 : i*n+j1]
					for j, bv := range brow {
						crow[j] += av * bv
					}
				}
			}
		}
	}
}
