package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"time"

	"repro/internal/core"
	"repro/internal/coverage"
	"repro/internal/data"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/parallel"
	"repro/internal/quant"
	"repro/internal/tensor"
	"repro/internal/validate"
)

// Replay workload sizes: the served network is the one-conv-block net
// of internal/validate's own replay benchmarks (1×10×10 input, 4
// channels, 10 classes), so that the protocol, not the forward pass,
// does most of the work.
const (
	replayHW      = 10
	replayChans   = 4
	replayTrainN  = 200
	replayPoolN   = 128
	replayVendor  = 96 // tests the vendor generates
	replayTests   = 64 // tests per suite, drawn from the vendor's by the seed
	replayBatch   = 16 // queries per exchange
	replayRedial  = 8  // rounds per quantised connection
	replayDecimal = 6  // quantised-suite precision
)

// replayWL is the IP user's job: a closed-loop validator alternating an
// exact-mode replay over the v2 float64 dialect with a quantized-mode
// replay over the v5 quantised dialect, against one served replica.
type replayWL struct {
	golden *nn.Network
	exact  *validate.Suite // opened from its sealed bytes
	quant  *validate.Suite
	srv    *validate.Server
	store  *validate.FrameStore

	exactIP, quantIP *validate.RemoteIP

	// The quantised references the traced run ships with each exchange.
	quantRefs  []quant.Frame
	quantScale float64

	// Wire traffic and query counts of the measured phase, per dialect;
	// quantWire holds the traffic of quantised connections since closed.
	quantWire            validate.WireStats
	exactQ, quantQ       int
	exactBase, quantBase validate.WireStats
	redials              int

	// faultDelta is how far the faulty replica of runChecks moves its
	// final-layer bias.
	faultDelta float64
}

// replayFixture is the vendor half of the replay set-up: the trained
// served network and its two sealed suites.
type replayFixture struct {
	net                      *nn.Network
	exactSealed, quantSealed []byte
	key                      []byte
}

// buildReplayFixture trains the served network and generates the
// vendor's tests from modelSeed; the run's seed draws which of them,
// in which order, each suite carries.
func buildReplayFixture(seed int64, tr *tracer) (*replayFixture, error) {
	op := tr.newOp()
	sp := tr.begin("data.build", op, -1)
	ds := data.Digits(replayTrainN, replayHW, replayHW, seedFor(modelSeed, 31))
	tr.end(sp)
	net := models.Tiny(nn.ReLU, 1, replayHW, replayHW, replayChans, ds.Classes, seedFor(modelSeed, 32))
	if err := fit(net, ds, 2, modelSeed, tr, op); err != nil {
		return nil, err
	}
	opts := core.DefaultOptions(replayVendor)
	opts.Parallelism = workers
	opts.Coverage = coverage.DefaultConfig(net)
	opts.Seed = seedFor(modelSeed, 33)
	res, err := core.Combined(net, ds.Subset(replayPoolN), opts)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seedFor(seed, 34)))
	draw := func() []*tensor.Tensor {
		xs := make([]*tensor.Tensor, replayTests)
		for i, j := range rng.Perm(len(res.Tests))[:replayTests] {
			xs[i] = res.Tests[j]
		}
		return xs
	}
	f := &replayFixture{net: net, key: []byte(fmt.Sprintf("replay-key-%d", seed))}
	exact := validate.BuildSuite("replay-exact", net, draw(), validate.ExactOutputs)
	qs := validate.BuildSuite("replay-quant", net, draw(), validate.QuantizedOutputs)
	qs.Decimals = replayDecimal
	if f.exactSealed, err = sealBytes(exact, f.key); err != nil {
		return nil, err
	}
	if f.quantSealed, err = sealBytes(qs, f.key); err != nil {
		return nil, err
	}
	return f, nil
}

func newReplay(seed int64) (*replayWL, error) { return newReplayTraced(seed, nil) }

func newReplayTraced(seed int64, tr *tracer) (*replayWL, error) {
	f, err := buildReplayFixture(seed, tr)
	if err != nil {
		return nil, err
	}
	w := &replayWL{golden: f.net, faultDelta: 0.5}
	if w.exact, err = validate.OpenSuite(bytes.NewReader(f.exactSealed), f.key); err != nil {
		return nil, err
	}
	if w.quant, err = validate.OpenSuite(bytes.NewReader(f.quantSealed), f.key); err != nil {
		return nil, err
	}
	if w.quantScale, err = quant.Scale(w.quant.Decimals); err != nil {
		return nil, err
	}
	for _, o := range w.quant.Outputs {
		w.quantRefs = append(w.quantRefs, quant.QuantizeFrame(o.Data(), w.quantScale))
	}
	w.store = validate.NewFrameStore(0, 0)
	if w.srv, err = serve(f.net, w.store); err != nil {
		return nil, err
	}
	if w.exactIP, err = validate.DialWith(w.srv.Addr(), validate.DialOptions{Wire: validate.WireGob}); err != nil {
		w.close()
		return nil, err
	}
	if err := w.dialQuant(); err != nil {
		w.close()
		return nil, err
	}
	// Warm-up stays in set-up: the handshakes, the gob type exchange and
	// the first frame uploads.
	if err := w.warm(); err != nil {
		w.close()
		return nil, err
	}
	w.exactBase, w.quantBase = w.exactIP.WireStats(), w.quantIP.WireStats()
	return w, nil
}

func serve(network *nn.Network, store *validate.FrameStore) (*validate.Server, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	return validate.ServeWith(l, network, validate.ServerOptions{Workers: workers, FrameStore: store}), nil
}

func (w *replayWL) dialQuant() error {
	ip, err := validate.DialWith(w.srv.Addr(), validate.DialOptions{Wire: validate.WireQuant})
	if err != nil {
		return err
	}
	w.quantIP = ip
	return nil
}

func (w *replayWL) warm() error {
	for _, c := range []struct {
		s  *validate.Suite
		ip *validate.RemoteIP
	}{{w.exact, w.exactIP}, {w.quant, w.quantIP}} {
		rep, err := c.s.Replay(c.ip, replayConfig)
		if err != nil {
			return err
		}
		if !rep.Passed {
			return fmt.Errorf("warm-up replay of %s fails on the golden replica: %v", c.s.Name, rep)
		}
	}
	return nil
}

// replayConfig is the validator's replay setting: batched exchanges,
// two pipelined workers.
var replayConfig = validate.ReplayConfig{Batch: replayBatch, Workers: workers}

// redialQuant closes the quantised connection, keeping its traffic, and
// dials a fresh one; the server's shared frame store then answers its
// probes.
func (w *replayWL) redialQuant() error {
	w.quantWire = addWire(w.quantWire, w.quantIP.WireStats().Sub(w.quantBase))
	w.quantIP.Close()
	if err := w.dialQuant(); err != nil {
		return err
	}
	w.quantBase = validate.WireStats{}
	w.redials++
	return nil
}

func addWire(a, b validate.WireStats) validate.WireStats {
	return validate.WireStats{BytesRead: a.BytesRead + b.BytesRead, BytesWritten: a.BytesWritten + b.BytesWritten}
}

// redials reports whether round i starts with a re-dial of the
// quantised connection: every replayRedial rounds, by round index, so
// that both runs of a round a traced run makes twice find the
// connection in the same state.
func redials(i int) bool { return i > 0 && i%replayRedial == 0 }

func (w *replayWL) op(i int) (opResult, error) {
	r := opResult{parts: map[string]time.Duration{}, ops: 2}
	t0 := time.Now()
	exactRep, err := w.exact.Replay(w.exactIP, replayConfig)
	if err != nil {
		return r, err
	}
	t1 := time.Now()
	if redials(i) {
		if err := w.redialQuant(); err != nil {
			return r, err
		}
	}
	quantRep, err := w.quant.Replay(w.quantIP, replayConfig)
	if err != nil {
		return r, err
	}
	r.elapsed = time.Since(t0)
	r.parts["exact"], r.parts["quant"] = t1.Sub(t0), r.elapsed-t1.Sub(t0)
	r.items = exactRep.Total + quantRep.Total
	w.exactQ += exactRep.Total
	w.quantQ += quantRep.Total
	for _, rep := range []validate.Report{exactRep, quantRep} {
		if !rep.Passed || rep.Total != replayTests {
			fmt.Printf("check failed: replay against the golden replica: %v\n", rep)
			r.failed++
		}
	}
	return r, nil
}

// runChecks replays each dialect once against a second replica serving
// a copy with a final-layer bias moved (both must fail), and compares
// one exact-dialect exchange bit for bit with an in-process forward
// pass.
func (w *replayWL) runChecks() (int, int, error) {
	failed := 0
	bad, err := biasMoved(w.golden, w.faultDelta)
	if err != nil {
		return 0, 0, err
	}
	badSrv, err := serve(bad, validate.NewFrameStore(0, 0))
	if err != nil {
		return 0, 0, err
	}
	defer badSrv.Close()
	for _, c := range []struct {
		s    *validate.Suite
		wire validate.Wire
	}{{w.exact, validate.WireGob}, {w.quant, validate.WireQuant}} {
		ip, err := validate.DialWith(badSrv.Addr(), validate.DialOptions{Wire: c.wire})
		if err != nil {
			return 0, 0, err
		}
		rep, err := c.s.Replay(ip, replayConfig)
		ip.Close()
		if err != nil {
			return 0, 0, err
		}
		if rep.Passed {
			fmt.Printf("check failed: %s passes against a replica with a final-layer bias moved\n", c.s.Name)
			failed++
		}
	}
	if err := checkExchange(w.exactIP, w.exact, w.golden); err != nil {
		fmt.Printf("check failed: %v\n", err)
		failed++
	}
	return 3, failed, nil
}

// checkExchange sends one batch of suite inputs over ip and compares
// the answers bit for bit with an in-process forward pass on a copy of
// golden.
func checkExchange(ip validate.BatchIP, s *validate.Suite, golden *nn.Network) error {
	xs := s.Inputs[:replayBatch]
	got, err := ip.QueryBatch(xs)
	if err != nil {
		return err
	}
	local := golden.Clone()
	for i, x := range xs {
		if !sameBits(got[i], local.Forward(x)) {
			return fmt.Errorf("exchange output %d differs from the in-process forward pass", i)
		}
	}
	return nil
}

// wireTotals returns the measured phase's traffic per dialect.
func (w *replayWL) wireTotals() (exact, quant validate.WireStats) {
	return w.exactIP.WireStats().Sub(w.exactBase), addWire(w.quantWire, w.quantIP.WireStats().Sub(w.quantBase))
}

func (w *replayWL) report(m *measured) {
	exact, quant := w.wireTotals()
	fmt.Printf("  replay_qps %.1f queries/s\n", float64(m.items)/m.busy.Seconds())
	fmt.Printf("  replay_exact_p50_ms %.4f ms (n=%d)\n", ms(median(m.parts["exact"])), len(m.parts["exact"]))
	fmt.Printf("  replay_quant_p50_ms %.4f ms (n=%d, %d re-dials)\n", ms(median(m.parts["quant"])), len(m.parts["quant"]), w.redials)
	fmt.Printf("  exact_bytes_per_query %.1f bytes\n", float64(exact.Total())/float64(w.exactQ))
	fmt.Printf("  quant_bytes_per_query %.1f bytes\n", float64(quant.Total())/float64(w.quantQ))
	st := w.store.Stats()
	fmt.Printf("  frame store: %d hits, %d misses\n", st.Hits, st.Misses)
}

func (w *replayWL) close() {
	if w.exactIP != nil {
		w.exactIP.Close()
	}
	if w.quantIP != nil {
		w.quantIP.Close()
	}
	if w.srv != nil {
		w.srv.Close()
	}
}

// tracedOp is one replay round driven exchange by exchange, the way
// Suite.Replay drives it (contiguous batch ranges over parallel.For on
// two workers sharing the one connection), with a span per exchange
// and per replay.
func (w *replayWL) tracedOp(tr *tracer, i int) (opResult, error) {
	r := opResult{ops: 2}
	op := tr.newOp()
	t0 := time.Now()
	root := tr.begin("perfbench.replay", op, -1)
	sp := tr.begin("validate.replay.exact", op, root)
	exactBad, err := w.exchanges(func(lo, hi int) (int, error) {
		id := tr.begin("validate.QueryBatch", op, sp)
		got, err := w.exactIP.QueryBatch(w.exact.Inputs[lo:hi])
		tr.end(id)
		if err != nil {
			return 0, err
		}
		bad := 0
		for i := lo; i < hi; i++ {
			if !sameBits(got[i-lo], w.exact.Outputs[i]) {
				bad++
			}
		}
		return bad, nil
	})
	tr.end(sp)
	if err != nil {
		return r, err
	}
	if redials(i) {
		id := tr.begin("validate.DialWith", op, root)
		err := w.redialQuant()
		tr.end(id)
		if err != nil {
			return r, err
		}
	}
	sp = tr.begin("validate.replay.quant", op, root)
	quantBad, err := w.exchanges(func(lo, hi int) (int, error) {
		id := tr.begin("validate.QueryQuant", op, sp)
		frames, err := w.quantIP.QueryQuant(w.quant.Inputs[lo:hi], w.quantRefs[lo:hi], w.quant.Decimals)
		tr.end(id)
		if err != nil {
			return 0, err
		}
		bad := 0
		for i := lo; i < hi; i++ {
			want := w.quant.Outputs[i].Data()
			if len(frames[i-lo]) != len(want) {
				bad++
				continue
			}
			for j, v := range want {
				if !frames[i-lo][j].Matches(v, w.quantScale) {
					bad++
					break
				}
			}
		}
		return bad, nil
	})
	tr.end(sp)
	if err != nil {
		return r, err
	}
	tr.end(root)
	r.elapsed = time.Since(t0)
	r.items = 2 * len(w.exact.Inputs)
	w.exactQ += len(w.exact.Inputs)
	w.quantQ += len(w.quant.Inputs)
	for _, bad := range []int{exactBad, quantBad} {
		if bad > 0 {
			fmt.Printf("check failed: %d mismatched tests against the golden replica\n", bad)
			r.failed++
		}
	}
	return r, nil
}

// exchanges splits the suite into replayBatch-sized exchanges and runs
// them as contiguous ranges on the pinned workers, summing the
// mismatches each exchange reports.
func (w *replayWL) exchanges(fn func(lo, hi int) (int, error)) (int, error) {
	n := len(w.exact.Inputs)
	batches := (n + replayBatch - 1) / replayBatch
	bad := make([]int, workers)
	errs := make([]error, workers)
	parallel.For(batches, workers, func(k, lo, hi int) {
		for b := lo; b < hi && errs[k] == nil; b++ {
			var m int
			m, errs[k] = fn(b*replayBatch, min((b+1)*replayBatch, n))
			bad[k] += m
		}
	})
	total := 0
	for k := range bad {
		if errs[k] != nil {
			return 0, errs[k]
		}
		total += bad[k]
	}
	return total, nil
}
