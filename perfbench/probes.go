package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/coverage"
	"repro/internal/experiments"
	"repro/internal/nn"
	"repro/internal/quant"
	"repro/internal/tensor"
	"repro/internal/validate"
)

// probeBatch is the batch size of the batched module probes, the
// generators' default evaluation batch.
const probeBatch = coverage.DefaultBatch

type metricSet map[string]metric

func (m metricSet) put(name string, v float64, unit string) { m[name] = metric{v, unit} }

// timeCalls calls fn repeatedly, each call a span called name of one
// operation, for at least five calls and 20 ms (at most 2000 calls),
// and returns the median call time.
func timeCalls(tr *tracer, name string, fn func()) time.Duration {
	op := tr.newOp()
	var ds []time.Duration
	start := time.Now()
	for len(ds) < 5 || (time.Since(start) < 20*time.Millisecond && len(ds) < 2000) {
		sp := tr.begin(name, op, -1)
		t0 := time.Now()
		fn()
		ds = append(ds, time.Since(t0))
		tr.end(sp)
	}
	return median(ds)
}

// timeLoop times n calls of fn inside one span and returns the time per
// call, for calls too short to time one by one.
func timeLoop(tr *tracer, name string, n int, fn func()) time.Duration {
	sp := tr.begin(name, tr.newOp(), -1)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn()
	}
	d := time.Since(t0)
	tr.end(sp)
	return d / time.Duration(n)
}

// allocKB returns the heap bytes fn allocates, in KiB.
func allocKB(fn func()) float64 {
	a0 := readMem().TotalAlloc
	fn()
	return float64(readMem().TotalAlloc-a0) / 1024
}

// layerMetrics measures the per-layer metrics: the set-up figures of
// the traced workload, module probes on the fixtures, and medians of
// the spans the traced operations recorded.
func layerMetrics(f *fixtures, tr *tracer, sf setupFigures) (metricSet, error) {
	m := metricSet{}
	m.put("data.build_ms", sf.dataMS, "ms")
	m.put("train.fit_ms", sf.fitMS, "ms")
	m.put("train.alloc_mb", sf.allocMB, "MB")

	mnist, cifar := f.gen.beds[0], f.gen.beds[1]
	if err := probeKernels(m, tr, cifar); err != nil {
		return nil, err
	}
	if err := probeLayers(m, tr, cifar); err != nil {
		return nil, err
	}
	for i, bed := range []*testbed{mnist, cifar} {
		probeGenerator(m, tr, bed, f.gen.last[i], f.gen.seed)
	}
	m.put("core.worker_utilisation", tr.sum("core.cpu_s")/(tr.sum("core.wall_s")*float64(workers)), "ratio")
	probeBitset(m, tr, cifar)

	m.put("validate.build_suite_ms", ms(median(tr.perOpSums("validate.BuildSuite"))), "ms")
	m.put("validate.seal_ms", ms(median(tr.perOpSums("validate.Seal"))), "ms")
	m.put("validate.open_ms", ms(median(tr.perOpSums("validate.OpenSuite"))), "ms")
	if err := probeReplay(m, tr, f.rep); err != nil {
		return nil, err
	}
	m.put("validate.detect_us", us(tr.medianOf("validate.DetectsWith")), "us")
	for _, kind := range experiments.CampaignKinds {
		m.put("attack."+kind+"_ms", ms(tr.medianOf("attack."+kind)), "ms")
	}
	m.put("experiments.worker_utilisation", f.camp.utilisation, "ratio")
	return m, nil
}

// layerInputs returns the input of every layer of net for x, running
// the per-sample or the batched forward pass; the last entry is the
// logits.
func layerInputs(net *nn.Network, x *tensor.Tensor, batched bool) []*tensor.Tensor {
	ins := []*tensor.Tensor{x.Clone()}
	for _, l := range net.LayerStack {
		if batched {
			x = l.(nn.BatchLayer).ForwardBatch(x)
		} else {
			x = l.Forward(x)
		}
		ins = append(ins, x.Clone())
	}
	return ins
}

// probeSamples returns one pool sample and a stacked batch of
// probeBatch pool samples of bed.
func probeSamples(bed *testbed) (*tensor.Tensor, *tensor.Tensor) {
	xs := make([]*tensor.Tensor, probeBatch)
	for i := range xs {
		xs[i] = bed.pool.Samples[i%bed.pool.Len()].X
	}
	return xs[0], tensor.Stack(xs)
}

func findLayer(net *nn.Network, name string) (int, error) {
	for i, l := range net.LayerStack {
		if l.Name() == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("network has no layer %q", name)
}

// probeKernels times the tensor kernels of the CIFAR-substitute's conv2
// and fc1 products at B=1 and B=probeBatch. GFLOP/s count two flops per
// multiply-add of the product's shape.
func probeKernels(m metricSet, tr *tracer, bed *testbed) error {
	net := bed.net.Clone()
	x1, xb := probeSamples(bed)
	ins1, insB := layerInputs(net, x1, false), layerInputs(net, xb, true)
	ci, err := findLayer(net, "conv2")
	if err != nil {
		return err
	}
	fi, err := findLayer(net, "fc1")
	if err != nil {
		return err
	}
	conv := net.LayerStack[ci].(*nn.Conv2D)
	fc := net.LayerStack[fi].(*nn.Dense)
	g := conv.Geom()
	hw := g.OutH * g.OutW
	for _, b := range []int{1, probeBatch} {
		in := ins1[ci]
		im2col := func() *tensor.Tensor { return tensor.Im2Col(in, g) }
		fcIn := ins1[fi].Reshape(1, fc.In)
		if b > 1 {
			in = insB[ci]
			im2col = func() *tensor.Tensor { return tensor.Im2ColBatch(in, g) }
			fcIn = insB[fi].Reshape(b, fc.In)
		}
		sfx := fmt.Sprintf(".b%d", b)
		m.put("tensor.im2col_us.conv2"+sfx, us(timeCalls(tr, "tensor.Im2Col", func() { im2col() })), "us")
		col := im2col()
		d := timeCalls(tr, "tensor.MatMul", func() { tensor.MatMul(conv.Weight.W, col) })
		flops := 2 * float64(conv.OutC) * float64(col.Dim(0)) * float64(b*hw)
		m.put("tensor.gemm_us.conv2"+sfx, us(d), "us")
		m.put("tensor.gemm_gflops.conv2"+sfx, flops/d.Seconds()/1e9, "GFLOP/s")
		d = timeCalls(tr, "tensor.MatMulTB", func() { tensor.MatMulTB(fcIn, fc.Weight.W) })
		flops = 2 * float64(b) * float64(fc.In) * float64(fc.Out)
		m.put("tensor.gemm_us.fc1"+sfx, us(d), "us")
		m.put("tensor.gemm_gflops.fc1"+sfx, flops/d.Seconds()/1e9, "GFLOP/s")
	}
	return nil
}

// probeLayers times every layer of the CIFAR-substitute on its own:
// the per-sample forward pass, and per sample at B=probeBatch the
// batched forward, the per-sample parameter backward and the input-only
// backward. It also measures the heap each whole-network pass allocates
// per sample, and the time of one network clone.
func probeLayers(m metricSet, tr *tracer, bed *testbed) error {
	net := bed.net.Clone()
	x1, xb := probeSamples(bed)
	ins1, insB := layerInputs(net, x1, false), layerInputs(net, xb, true)
	rng := rand.New(rand.NewSource(7))
	grad := func(like *tensor.Tensor) *tensor.Tensor {
		g := tensor.New(like.Shape()...)
		g.FillNormal(rng, 0, 1)
		return g
	}
	perSample := func(d time.Duration) float64 { return us(d) / probeBatch }
	for i, l := range net.LayerStack {
		bl := l.(nn.BatchLayer)
		name := "nn." + l.Name()
		dOutB := grad(insB[i+1])
		m.put(name+".forward_us", us(timeCalls(tr, name+".Forward", func() { l.Forward(ins1[i]) })), "us")
		m.put(name+".forward_batch_us", perSample(timeCalls(tr, name+".ForwardBatch", func() { bl.ForwardBatch(insB[i]) })), "us")
		bl.ForwardBatch(insB[i])
		b := 0
		m.put(name+".backward_sample_us", us(timeCalls(tr, name+".BackwardSample", func() {
			bl.BackwardSample(b, dOutB.Sample(b))
			b = (b + 1) % probeBatch
		})), "us")
		m.put(name+".backward_input_us", perSample(timeCalls(tr, name+".BackwardBatchInput", func() { bl.BackwardBatchInput(dOutB) })), "us")
		bl.ReleaseBatchState()
	}
	dLogitsB := grad(insB[len(insB)-1])
	const reps = 4
	m.put("nn.forward.alloc_kb", allocKB(func() {
		for r := 0; r < reps; r++ {
			net.Forward(x1)
		}
	})/reps, "KB")
	m.put("nn.forward_batch.alloc_kb", allocKB(func() {
		for r := 0; r < reps; r++ {
			net.ForwardBatch(xb)
		}
	})/(reps*probeBatch), "KB")
	m.put("nn.backward_sample.alloc_kb", allocKB(func() {
		for b := 0; b < probeBatch; b++ {
			net.BackwardSample(b, dLogitsB.Sample(b))
		}
	})/probeBatch, "KB")
	m.put("nn.backward_input.alloc_kb", allocKB(func() { net.BackwardBatchInput(dLogitsB) })/probeBatch, "KB")
	m.put("nn.clone_ms", ms(timeCalls(tr, "nn.Clone", func() { net.Clone() })), "ms")
	return nil
}

// probeGenerator measures activation extraction over bed's pool at the
// generator's settings (pinned workers, per-sample extraction), one
// Algorithm 2 round (one §IV-D probe), and the share of probes whose
// batch entered the suite in last, the latest generation.
func probeGenerator(m metricSet, tr *tracer, bed *testbed, last *core.Result, seed int64) {
	name := bed.cfg.name
	xs := make([]*tensor.Tensor, bed.pool.Len())
	for i, s := range bed.pool.Samples {
		xs[i] = s.X
	}
	var kb float64
	d := timeCallsN(tr, "coverage.ParamSetsOf/"+name, 3, func() {
		kb = allocKB(func() { coverage.ParamSetsOf(bed.net, xs, bed.cov, workers, 1) })
	})
	m.put("coverage."+name+".extract_ms", ms(d)/float64(len(xs)), "ms")
	m.put("coverage."+name+".extract_alloc_kb", kb/float64(len(xs)), "KB")

	// The probe runs against the residual of the latest generation's
	// final coverage, like the generator's last probe.
	opts := genOptions(bed, seed)
	opts.MaxTests = bed.pool.Classes
	d = timeCallsN(tr, "core.SynthesisFrom/"+name, 3, func() {
		core.SynthesisFrom(bed.net, bed.inShape, bed.pool.Classes, opts, last.Covered)
	})
	m.put("core."+name+".probe_ms", ms(d), "ms")
	probes, used := bed.cfg.budget, 0
	if last.SwitchPoint >= 0 {
		probes, used = last.SwitchPoint+1, 1
	}
	m.put("core."+name+".probe_used_ratio", float64(used)/float64(probes), "ratio")
}

// timeCallsN is timeCalls with a fixed number of calls, for calls long
// enough that a few give a steady median.
func timeCallsN(tr *tracer, name string, n int, fn func()) time.Duration {
	op := tr.newOp()
	ds := make([]time.Duration, n)
	for i := range ds {
		sp := tr.begin(name, op, -1)
		t0 := time.Now()
		fn()
		ds[i] = time.Since(t0)
		tr.end(sp)
	}
	return median(ds)
}

// probeBitset times the greedy inner step: the gain of one candidate
// set against the covered set at the model's parameter count.
func probeBitset(m metricSet, tr *tracer, bed *testbed) {
	n := bed.net.NumParams()
	rng := rand.New(rand.NewSource(3))
	a, b := bitset.New(n), bitset.New(n)
	for i := 0; i < n; i++ {
		if rng.Intn(2) == 0 {
			a.Set(i)
		}
		if rng.Intn(3) == 0 {
			b.Set(i)
		}
	}
	sink := 0
	d := timeLoop(tr, "bitset.AndNotCount", 20000, func() { sink += a.AndNotCount(b) })
	if sink < 0 {
		panic("unreachable")
	}
	m.put("bitset.gain_ns", float64(d.Nanoseconds()), "ns")
}

// probeReplay reports the client-side exchange times and replay tails
// the traced replay rounds recorded, the same batch through an
// in-process LocalIP, the frame store's hit ratio, the bytes per query
// of each dialect, and the quantised frame codec per value.
func probeReplay(m metricSet, tr *tracer, w *replayWL) error {
	m.put("validate.exact_exchange_us", us(tr.medianOf("validate.QueryBatch")), "us")
	m.put("validate.quant_exchange_us", us(tr.medianOf("validate.QueryQuant")), "us")
	local := validate.LocalIP{Net: w.golden.Clone()}
	xs := w.exact.Inputs[:replayBatch]
	m.put("validate.local_batch_us", us(timeCalls(tr, "validate.LocalIP.QueryBatch", func() { local.QueryBatch(xs) })), "us")
	for _, d := range []string{"exact", "quant"} {
		m.put("validate."+d+"_replay_tail_ms", ms(tail(tr.durations("validate.replay."+d))), "ms")
	}
	st := w.store.Stats()
	m.put("validate.store_hit_ratio", float64(st.Hits)/float64(max(1, st.Hits+st.Misses)), "ratio")
	exact, quantW := w.wireTotals()
	m.put("validate.exact_bytes_per_query", float64(exact.Total())/float64(max(1, w.exactQ)), "bytes")
	m.put("validate.quant_bytes_per_query", float64(quantW.Total())/float64(max(1, w.quantQ)), "bytes")

	// The codec on the suite's own output frames, delta-encoded against
	// their references as the quantised replay sends them.
	values := 0
	frames := make([]quant.Frame, len(w.quant.Outputs))
	for i, o := range w.quant.Outputs {
		frames[i] = quant.QuantizeFrame(o.Data(), w.quantScale)
		values += len(frames[i])
	}
	const reps = 200
	var buf []byte
	d := timeLoop(tr, "quant.encode", reps, func() {
		for i, o := range w.quant.Outputs {
			buf = quant.AppendFrame(buf[:0], quant.QuantizeFrame(o.Data(), w.quantScale), w.quantRefs[i])
		}
	})
	m.put("quant.encode_ns_per_value", float64(d.Nanoseconds())/float64(values), "ns")
	enc := make([][]byte, len(frames))
	for i, f := range frames {
		enc[i] = quant.AppendFrame(nil, f, w.quantRefs[i])
	}
	var derr error
	d = timeLoop(tr, "quant.DecodeFrame", reps, func() {
		for i, e := range enc {
			if _, _, err := quant.DecodeFrame(e, len(frames[i]), w.quantRefs[i]); err != nil {
				derr = err
			}
		}
	})
	m.put("quant.decode_ns_per_value", float64(d.Nanoseconds())/float64(values), "ns")
	return derr
}
