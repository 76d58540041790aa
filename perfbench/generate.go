package main

import (
	"bytes"
	"fmt"
	"slices"
	"time"

	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/coverage"
	"repro/internal/data"
	"repro/internal/validate"
)

// The generate workload is the IP vendor's job: the combined method
// (§IV-D) on both Table I substitutes, then the reference outputs and
// the seal.
type generateWL struct {
	seed int64
	key  []byte
	beds []*testbed
	// sealed checks that an operation run again seals the same suites.
	sealed *repeats[[][]byte]
	// last holds the generator results of the latest operation.
	last []*core.Result
}

func newGenerate(seed int64) (*generateWL, error) {
	return newGenerateWith(seed, []bedConfig{genMNIST, genCIFAR}, nil)
}

// newGenerateWith trains one testbed per configuration; a tracer
// records the data and training calls.
func newGenerateWith(seed int64, cfgs []bedConfig, tr *tracer) (*generateWL, error) {
	g := &generateWL{seed: seed, key: []byte(fmt.Sprintf("vendor-key-%d", seed)), sealed: newRepeats(func(a, b [][]byte) bool { return slices.EqualFunc(a, b, bytes.Equal) })}
	op := tr.newOp()
	for _, cfg := range cfgs {
		bed, err := buildBed(cfg, seed, tr, op)
		if err != nil {
			return nil, err
		}
		g.beds = append(g.beds, bed)
	}
	g.last = make([]*core.Result, len(g.beds))
	return g, nil
}

// genOptions are the generator settings: the evaluation defaults with
// the pinned worker count and the given seed.
func genOptions(bed *testbed, seed int64) core.Options {
	opts := core.DefaultOptions(bed.cfg.budget)
	opts.Parallelism = workers
	opts.Coverage = bed.cov
	opts.Seed = seedFor(seed, 21)
	return opts
}

// genInput is what the vendor feeds the generator for one suite.
type genInput struct {
	pool *data.Dataset
	opts core.Options
}

// input draws operation i's selection pool and synthesis seed for bed.
func (g *generateWL) input(bed *testbed, i int) genInput {
	s := opSeed(g.seed, i)
	return genInput{pool: bed.draw(bed.cfg.poolN, seedFor(s, 12)), opts: genOptions(bed, s)}
}

// generation is one sealed suite with the generator's result.
type generation struct {
	res    *core.Result
	sealed []byte
}

// generateSuite runs the combined method on bed, computes the
// reference outputs and seals the suite. With a tracer each call is a
// span of op.
func generateSuite(bed *testbed, in genInput, key []byte, tr *tracer, op, parent int) (*generation, error) {
	sp := tr.begin("core.Combined", op, parent)
	res, err := core.Combined(bed.net, in.pool, in.opts)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("validate.BuildSuite", op, parent)
	suite := validate.BuildSuite(bed.cfg.name, bed.net, res.Tests, validate.ExactOutputs)
	tr.end(sp)
	sp = tr.begin("validate.Seal", op, parent)
	sealed, err := sealBytes(suite, key)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	return &generation{res: res, sealed: sealed}, nil
}

func (g *generateWL) op(i int) (opResult, error) { return g.tracedOp(nil, i) }

// checkGeneration verifies one generated suite against computations
// made apart from the generator: the seal, the coverage recomputed
// test by test on a fresh copy of the model through the other
// extraction path, the monotone coverage curve, and the verdicts on the
// golden model and on a copy with a final-layer bias moved.
func checkGeneration(bed *testbed, gen *generation, key []byte) error {
	res := gen.res
	if len(res.Tests) != bed.cfg.budget || len(res.Curve) != len(res.Tests) {
		return fmt.Errorf("%d tests and %d curve points for a budget of %d", len(res.Tests), len(res.Curve), bed.cfg.budget)
	}
	suite, err := checkSealed(gen.sealed, key)
	if err != nil {
		return err
	}
	for j := 1; j < len(res.Curve); j++ {
		if res.Curve[j] < res.Curve[j-1] {
			return fmt.Errorf("coverage curve decreases at test %d: %v < %v", j, res.Curve[j], res.Curve[j-1])
		}
	}
	// The generator extracts per sample (its default); recompute with
	// the batched BackwardSample path on a fresh copy.
	sets := coverage.ParamSetsOf(bed.net.Clone(), res.Tests, bed.cov, 1, coverage.DefaultBatch)
	union := bitset.New(bed.net.NumParams())
	for _, s := range sets {
		union.UnionWith(s)
	}
	if !union.Equal(res.Covered) {
		return fmt.Errorf("recomputed coverage %d params, generator reports %d", union.Count(), res.Covered.Count())
	}
	if got := union.Fraction(); got != res.FinalCoverage() {
		return fmt.Errorf("recomputed coverage %v, curve ends at %v", got, res.FinalCoverage())
	}
	return checkVerdicts(suite, bed)
}

// checkVerdicts replays suite on the golden model (must pass) and on a
// copy with a final-layer bias moved (must fail), in process.
func checkVerdicts(suite *validate.Suite, bed *testbed) error {
	rep, err := suite.Validate(validate.LocalIP{Net: bed.net.Clone()})
	if err != nil {
		return err
	}
	if !rep.Passed {
		return fmt.Errorf("suite fails on the golden model: %v", rep)
	}
	bad, err := biasMoved(bed.net, 0.5)
	if err != nil {
		return err
	}
	if rep, err = suite.Validate(validate.LocalIP{Net: bad}); err != nil {
		return err
	}
	if rep.Passed {
		return fmt.Errorf("suite passes a model with a final-layer bias moved")
	}
	return nil
}

// runChecks runs operation 0 again; it must seal the same suites.
func (g *generateWL) runChecks() (int, int, error) {
	r, err := g.op(0)
	return r.ops, r.failed, err
}

func (g *generateWL) report(m *measured) {
	fmt.Printf("  generate_s %.4f s (median of %d, both suites)\n", median(m.opTimes).Seconds(), len(m.opTimes))
	for i, bed := range g.beds {
		res := g.last[i]
		fmt.Printf("  generate_%s_s %.4f s: %d tests, coverage %.4f, switch point %d (latest operation)\n",
			bed.cfg.name, median(m.parts[bed.cfg.name]).Seconds(), len(res.Tests), res.FinalCoverage(), res.SwitchPoint)
	}
	fmt.Printf("  measured phase: %.0f MB allocated, %d GC cycles\n", m.allocMB, m.gcCycles)
}

func (g *generateWL) close() {}

// tracedOp runs operation i: it generates, references and seals both
// suites, then checks them outside the timed region. With a tracer
// every call into core and validate is a span, the CPU time of each
// generation is recorded for the worker utilisation, and the user-side
// open is added after the timed region.
func (g *generateWL) tracedOp(tr *tracer, i int) (opResult, error) {
	r := opResult{parts: map[string]time.Duration{}}
	ins := make([]genInput, len(g.beds))
	for j, bed := range g.beds {
		ins[j] = g.input(bed, i)
	}
	op := tr.newOp()
	root := tr.begin("perfbench.generate", op, -1)
	gens := make([]*generation, len(g.beds))
	t0 := time.Now()
	for j, bed := range g.beds {
		tj, c0 := time.Now(), cpuTime()
		gen, err := generateSuite(bed, ins[j], g.key, tr, op, root)
		if err != nil {
			return r, err
		}
		r.parts[bed.cfg.name] = time.Since(tj)
		gens[j] = gen
		g.last[j] = gen.res
		if tr != nil {
			tr.addValue("core.cpu_s", (cpuTime() - c0).Seconds())
			tr.addValue("core.wall_s", r.parts[bed.cfg.name].Seconds())
		}
	}
	r.elapsed = time.Since(t0)
	// The user's side, outside the timed region: open each suite.
	for _, gen := range gens {
		if tr == nil {
			break
		}
		sp := tr.begin("validate.OpenSuite", op, root)
		_, err := validate.OpenSuite(bytes.NewReader(gen.sealed), g.key)
		tr.end(sp)
		if err != nil {
			return r, err
		}
	}
	tr.end(root)
	sealed := make([][]byte, len(gens))
	for j, bed := range g.beds {
		sealed[j] = gens[j].sealed
		r.items++
		r.ops++
		if err := checkGeneration(bed, gens[j], g.key); err != nil {
			fmt.Printf("check failed: generate %s: %v\n", bed.cfg.name, err)
			r.failed++
		}
	}
	if !g.sealed.same(i, sealed) {
		fmt.Printf("check failed: operation %d sealed different suites when run again\n", i)
		r.failed = r.ops
	}
	return r, nil
}
