package train

import (
	"testing"

	"repro/internal/data"
	"repro/internal/models"
	"repro/internal/nn"
)

func parallelTestbed(t *testing.T) (*nn.Network, *data.Dataset) {
	t.Helper()
	net, err := models.CIFAR(16, 16, 0.05).Build(3)
	if err != nil {
		t.Fatal(err)
	}
	return net, data.Objects(90, 16, 16, 11)
}

func fitOnce(t *testing.T, parallelism int) *nn.Network {
	return fitOnceWith(t, parallelism, gradChunk)
}

func fitOnceWith(t *testing.T, parallelism int, chunk func(*nn.Network, *data.Dataset, []int) []float64) *nn.Network {
	t.Helper()
	net, ds := parallelTestbed(t)
	_, err := fit(net, ds, Config{
		Epochs:      2,
		BatchSize:   16,
		Optimizer:   NewAdam(0.002),
		Seed:        5,
		Parallelism: parallelism,
	}, chunk)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// perSampleChunk is gradChunk's reference: the sample-at-a-time loop,
// one forward and one backward pass per sample, in order.
func perSampleChunk(net *nn.Network, ds *data.Dataset, idxs []int) []float64 {
	losses := make([]float64, len(idxs))
	for i, idx := range idxs {
		s := ds.Samples[idx]
		loss, dLogits := nn.SoftmaxCrossEntropy(net.Forward(s.X), s.Label)
		net.Backward(dLogits)
		losses[i] = loss
	}
	return losses
}

// TestFitBatchedMatchesPerSample: batched minibatch evaluation must
// produce a bit-identical model to the sample-at-a-time loop — the
// batched engine accumulates every gradient cell's per-sample terms in
// the same order — both serially and under worker fan-out.
func TestFitBatchedMatchesPerSample(t *testing.T) {
	for _, workers := range []int{1, 4} {
		perSample := fitOnceWith(t, workers, perSampleChunk)
		batched := fitOnceWith(t, workers, gradChunk)
		for i := 0; i < perSample.NumParams(); i++ {
			if perSample.ParamAt(i) != batched.ParamAt(i) {
				t.Fatalf("workers %d: param %d differs between per-sample and batched training: %v vs %v",
					workers, i, perSample.ParamAt(i), batched.ParamAt(i))
			}
		}
	}
}

// TestAccuracyBatchedMatchesPerSample pins the batched evaluator to the
// per-sample classifier answers.
func TestAccuracyBatchedMatchesPerSample(t *testing.T) {
	net, ds := parallelTestbed(t)
	correct := 0
	for _, s := range ds.Samples {
		if net.Predict(s.X) == s.Label {
			correct++
		}
	}
	want := float64(correct) / float64(ds.Len())
	if got := Accuracy(net, ds); got != want {
		t.Fatalf("batched Accuracy = %v, per-sample %v", got, want)
	}
}

// TestFitParallelDeterministic: the parallel trainer must be a pure
// function of (seed, parallelism) — two runs at the same worker count
// produce bit-identical parameters.
func TestFitParallelDeterministic(t *testing.T) {
	a := fitOnce(t, 4)
	b := fitOnce(t, 4)
	for i := 0; i < a.NumParams(); i++ {
		if a.ParamAt(i) != b.ParamAt(i) {
			t.Fatalf("param %d differs between identical parallel runs: %v vs %v",
				i, a.ParamAt(i), b.ParamAt(i))
		}
	}
}

// TestFitParallelConverges: the parallel trainer must actually learn —
// same testbed, same budget, accuracy in the same band as serial.
func TestFitParallelConverges(t *testing.T) {
	serial := fitOnce(t, 1)
	par := fitOnce(t, 4)
	_, ds := parallelTestbed(t)
	accSerial, accPar := Accuracy(serial, ds), Accuracy(par, ds)
	if accPar < accSerial-0.15 {
		t.Fatalf("parallel training accuracy %.3f far below serial %.3f", accPar, accSerial)
	}
}

// TestFitParallelismOneIsSerialPath: Parallelism 1 and 0 must both take
// the exact serial path and produce bit-identical results.
func TestFitParallelismOneIsSerialPath(t *testing.T) {
	a := fitOnce(t, 0)
	b := fitOnce(t, 1)
	for i := 0; i < a.NumParams(); i++ {
		if a.ParamAt(i) != b.ParamAt(i) {
			t.Fatalf("param %d differs between Parallelism 0 and 1", i)
		}
	}
}
