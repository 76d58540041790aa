// Fixture for the poolcontract analyzer: per-worker pinning vs
// shared-state mutation inside parallel region callbacks.
package poolcontract

import "parallel"

// pinnedReduce is the approved pattern: per-worker slots indexed by
// the worker id, folded in order after the region.
func pinnedReduce(p *parallel.Pool, xs []float64) float64 {
	sums := make([]float64, p.Workers())
	p.For(len(xs), func(w, lo, hi int) {
		for i := lo; i < hi; i++ {
			sums[w] += xs[i]
		}
	})
	var total float64
	for w := 0; w < len(sums); w++ {
		total += sums[w]
	}
	return total
}

// sharedScalar mutates a captured scalar from every worker: a data
// race, and even lock-guarded the fold order would be
// schedule-dependent.
func sharedScalar(p *parallel.Pool, xs []float64) float64 {
	var total float64
	p.For(len(xs), func(w, lo, hi int) {
		for i := lo; i < hi; i++ {
			total += xs[i] // want `assigns to captured variable total`
		}
	})
	return total
}

// sharedAppend grows a captured slice from inside the region.
func sharedAppend(p *parallel.Pool, xs []int) []int {
	var out []int
	p.For(len(xs), func(w, lo, hi int) {
		for i := lo; i < hi; i++ {
			out = append(out, xs[i]*2) // want `assigns to captured variable out`
		}
	})
	return out
}

// capturedIndex writes through an index that is independent of the
// region: every worker hits the same slot.
func capturedIndex(p *parallel.Pool, xs []float64) []float64 {
	out := make([]float64, len(xs))
	j := 0
	p.For(len(xs), func(w, lo, hi int) {
		out[j] = xs[0] // want `writes out\[j\] through captured state with no worker-local index`
	})
	return out
}

// elementWrites through region-local indices are the point of the
// exact partitioning contract: chunk w owns [lo,hi).
func elementWrites(p *parallel.Pool, xs, ys []float64) {
	p.For(len(xs), func(w, lo, hi int) {
		for i := lo; i < hi; i++ {
			ys[i] = 2 * xs[i]
		}
	})
}

// eachInit refreshes per-worker pinned state on its own goroutine.
func eachInit(p *parallel.Pool, scratch [][]float64) {
	p.Each(func(w int) {
		scratch[w] = make([]float64, 16)
	})
}

// packageFor checks the package-level region with a captured counter.
func packageFor(n int) int {
	count := 0
	parallel.For(n, func(w, lo, hi int) {
		count++ // want `assigns to captured variable count`
	})
	return count
}

// structField mutation through captured state without a worker-local
// index is shared mutation too.
type tally struct{ hits int }

func structField(p *parallel.Pool, t *tally, n int) {
	p.For(n, func(w, lo, hi int) {
		t.hits = n // want `writes t.hits through captured state with no worker-local index`
	})
}

// pinnedField is fine: the path to the field goes through the worker
// id.
func pinnedField(p *parallel.Pool, ts []tally, n int) {
	p.For(n, func(w, lo, hi int) {
		ts[w].hits = n
	})
}

// locals inside the callback are no one's business.
func localsOnly(p *parallel.Pool, n int) {
	p.For(n, func(w, lo, hi int) {
		acc := 0
		for i := lo; i < hi; i++ {
			acc += i
		}
		_ = acc
	})
}

// annotated demonstrates the escape hatch.
func annotated(p *parallel.Pool, n int) int {
	mode := 0
	p.For(n, func(w, lo, hi int) {
		mode = 1 //detlint:allow poolcontract(fixture: every worker writes the same constant)
	})
	return mode
}

// claimWorkerFold folds into per-worker slots inside a Claim region:
// which items a worker claims depends on the schedule, so the worker
// id pins nothing and the fold order is schedule-dependent.
func claimWorkerFold(p *parallel.Pool, xs []float64) float64 {
	acc := make([]float64, p.Workers())
	p.Claim(len(xs), func(w, i int) {
		acc[w] += xs[i] // want `Claim callback writes acc\[w\] through captured state with no index derived from the item`
	})
	var total float64
	for _, a := range acc {
		total += a
	}
	return total
}

// claimSharedScalar mutates a captured scalar from every worker.
func claimSharedScalar(p *parallel.Pool, xs []float64) float64 {
	var total float64
	p.Claim(len(xs), func(w, i int) {
		total += xs[i] // want `assigns to captured variable total`
	})
	return total
}

// claimLocalIndex writes through a local that is not computed from
// the item index: every item hits the same slot.
func claimLocalIndex(p *parallel.Pool, xs, ys []float64) {
	p.Claim(len(xs), func(w, i int) {
		k := len(ys) - 1
		ys[k] = xs[i] // want `Claim callback writes ys\[k\]`
	})
}

// claimPerItem writes per-item slots, directly and through locals
// computed from the item index, and keeps per-worker scratch local:
// the result is combined by index after the region.
func claimPerItem(p *parallel.Pool, xs, ys []float64, pairs [][2]float64, scratch [][]float64) {
	p.Claim(len(xs), func(w, i int) {
		buf := scratch[w]
		buf[0] = xs[i]
		ys[i] = 2 * buf[0]
		row, col := i/2, i%2
		pairs[row][col] = xs[i]
		for k, x := range xs[i : i+1] {
			ys[i+k] += x
		}
	})
}
