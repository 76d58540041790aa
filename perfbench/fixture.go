package main

import (
	"bytes"
	"fmt"
	"math"

	"repro/internal/coverage"
	"repro/internal/data"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/tensor"
	"repro/internal/train"
	"repro/internal/validate"
)

// bedConfig sizes one trained testbed. Every size the benchmark uses
// is one of the named configurations below; README.md lists them.
type bedConfig struct {
	name   string  // "mnist" (Tanh, digits) or "cifar" (ReLU, objects)
	hw     int     // input height and width
	scale  float64 // Table I width scale
	trainN int     // training samples
	poolN  int     // Algorithm 1 selection pool
	epochs int
	budget int // test budget Nt of the generator
}

// The Table I substitutes of the generate workload and the Tanh
// testbed of the campaign workload (replay.go sizes the served network).
var (
	genMNIST = bedConfig{name: "mnist", hw: 20, scale: 0.25, trainN: 200, poolN: 60, epochs: 2, budget: 6}
	genCIFAR = bedConfig{name: "cifar", hw: 20, scale: 0.12, trainN: 200, poolN: 60, epochs: 2, budget: 6}
	campBed  = bedConfig{name: "mnist", hw: 20, scale: 0.12, trainN: 160, poolN: 60, epochs: 2, budget: 8}
)

// testbed is a trained model with its data, ready for generation.
type testbed struct {
	cfg  bedConfig
	net  *nn.Network
	pool *data.Dataset // drawn from the run's seed
	// draw generates n samples of the testbed's dataset from a seed.
	draw    func(n int, seed int64) *data.Dataset
	cov     coverage.Config
	inShape []int
}

// seedFor derives the seed of one input from the run's seed.
func seedFor(seed int64, salt int64) int64 { return seed*1000003 + salt }

// opSeed is the seed of operation i's inputs. Each operation of a run
// draws its own inputs, so a run's median is taken over many draws of
// the workload's user-side inputs, not over the one draw a seed makes.
func opSeed(seed int64, i int) int64 { return seedFor(seed, 1000+int64(i)) }

// modelSeed trains every model and, where a workload measures what
// happens downstream of a suite, generates that suite. The models are
// the IP under test and stay the same in every run: what a trained
// model costs to generate for, replay or attack depends on its weights
// (ReLU sparsity meets the GEMM zero-skips, the attackers search longer
// on some models) by more than the benchmark's bounds, so a seed that
// retrained them would measure the seed. The run's seed draws what each
// workload's user feeds the program, per operation (opSeed): the
// vendor's selection pools and synthesis restarts, the campaign's
// victims and attack trials; and, once per run, the validator's suite
// make-up.
const modelSeed = 1

// buildBed generates the training set and trains the model of cfg,
// then draws the selection pool from poolSeed. With a tracer it records
// the data and training calls as spans of op.
func buildBed(cfg bedConfig, poolSeed int64, tr *tracer, op int) (*testbed, error) {
	var (
		gen  func(n int, seed int64) *data.Dataset
		arch models.Arch
	)
	switch cfg.name {
	case "mnist":
		gen = func(n int, s int64) *data.Dataset { return data.Digits(n, cfg.hw, cfg.hw, s) }
		arch = models.MNIST(cfg.hw, cfg.hw, cfg.scale)
	case "cifar":
		gen = func(n int, s int64) *data.Dataset { return data.Objects(n, cfg.hw, cfg.hw, s) }
		arch = models.CIFAR(cfg.hw, cfg.hw, cfg.scale)
	default:
		return nil, fmt.Errorf("unknown testbed %q", cfg.name)
	}
	sp := tr.begin("data.build", op, -1)
	ds := gen(cfg.trainN, seedFor(modelSeed, 11))
	pool := gen(cfg.poolN, seedFor(poolSeed, 12))
	tr.end(sp)
	net, err := arch.Build(seedFor(modelSeed, 13))
	if err != nil {
		return nil, err
	}
	if err := fit(net, ds, cfg.epochs, modelSeed, tr, op); err != nil {
		return nil, err
	}
	return &testbed{
		cfg:     cfg,
		net:     net,
		pool:    pool,
		draw:    gen,
		cov:     coverage.DefaultConfig(net),
		inShape: []int{ds.C, ds.H, ds.W},
	}, nil
}

// fit trains net on ds with Adam on the pinned worker count.
func fit(net *nn.Network, ds *data.Dataset, epochs int, seed int64, tr *tracer, op int) error {
	a0 := readMem().TotalAlloc
	sp := tr.begin("train.fit", op, -1)
	_, err := train.Fit(net, ds, train.Config{
		Epochs:      epochs,
		BatchSize:   16,
		Optimizer:   train.NewAdam(0.003),
		Seed:        seedFor(seed, 14),
		Parallelism: workers,
	})
	tr.end(sp)
	tr.addValue("train.alloc_mb", float64(readMem().TotalAlloc-a0)/(1<<20))
	return err
}

// biasMoved returns a copy of net with the first bias of its final
// layer moved by delta: the planted fault every replay check must
// catch.
func biasMoved(net *nn.Network, delta float64) (*nn.Network, error) {
	bad := net.Clone()
	for i := len(bad.LayerStack) - 1; i >= 0; i-- {
		if d, ok := bad.LayerStack[i].(*nn.Dense); ok {
			d.Bias.W.Data()[0] += delta
			return bad, nil
		}
	}
	return nil, fmt.Errorf("network has no dense layer")
}

// sealBytes seals suite under key.
func sealBytes(suite *validate.Suite, key []byte) ([]byte, error) {
	var buf bytes.Buffer
	if err := suite.Seal(&buf, key); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// checkSealed opens sealed under key and checks that a copy with one
// byte flipped is refused; it returns the opened suite.
func checkSealed(sealed, key []byte) (*validate.Suite, error) {
	suite, err := validate.OpenSuite(bytes.NewReader(sealed), key)
	if err != nil {
		return nil, fmt.Errorf("sealed suite does not open under its key: %w", err)
	}
	bad := append([]byte(nil), sealed...)
	bad[len(bad)/2] ^= 0x01
	if _, err := validate.OpenSuite(bytes.NewReader(bad), key); err == nil {
		return nil, fmt.Errorf("sealed suite with a flipped byte still opens")
	}
	return suite, nil
}

// sameBits reports whether two tensors hold bit-identical values.
func sameBits(a, b *tensor.Tensor) bool {
	if a.Size() != b.Size() {
		return false
	}
	bd := b.Data()
	for i, v := range a.Data() {
		if math.Float64bits(v) != math.Float64bits(bd[i]) {
			return false
		}
	}
	return true
}
