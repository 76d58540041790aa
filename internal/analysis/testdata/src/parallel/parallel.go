// Package parallel is a stub of repro/internal/parallel for
// poolcontract fixtures: same shapes, serial execution. The analyzer
// matches the Pool type and For/Claim/Each by package-path tail, so this
// stub exercises the same code paths as the real pool.
package parallel

// Pool mimics the real worker pool's dispatch surface.
type Pool struct{ n int }

func NewPool(workers int) *Pool {
	if workers < 1 {
		workers = 1
	}
	return &Pool{n: workers}
}

func (p *Pool) Workers() int { return p.n }

// For partitions [0,n) and runs the callback per chunk.
func (p *Pool) For(n int, fn func(worker, start, end int)) {
	if n > 0 {
		fn(0, 0, n)
	}
}

// Claim runs the callback once per index.
func (p *Pool) Claim(n int, fn func(worker, i int)) {
	for i := 0; i < n; i++ {
		fn(0, i)
	}
}

// Each runs fn once per worker.
func (p *Pool) Each(fn func(worker int)) {
	for w := 0; w < p.n; w++ {
		fn(w)
	}
}

// For is the package-level one-shot region.
func For(n int, fn func(worker, start, end int)) {
	if n > 0 {
		fn(0, 0, n)
	}
}
