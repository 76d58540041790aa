// Package repro is the public API of the reproduction of "On Functional
// Test Generation for Deep Neural Network IPs" (Luo, Li, Wei, Xu — DATE
// 2019).
//
// The library lets an IP vendor generate a small functional test suite
// that activates as many network parameters as possible (so parameter
// tampering propagates to the outputs), seal it, and ship it with a
// black-box DNN IP; the IP user replays the suite and compares outputs
// to detect fault-injection attacks.
//
// The heavy machinery lives in internal packages and is re-exported
// here through aliases, so downstream code only imports this package:
//
//	net, _ := repro.NewCIFARModel(20, 20, 0.25, 1)
//	train := repro.Objects(800, 20, 20, 2)
//	repro.Train(net, train, repro.TrainConfig{Epochs: 8})
//	suite, _ := repro.GenerateSuite(net, train, 30)
//	report, _ := suite.Validate(repro.LocalIP{Net: net})
package repro

import (
	"fmt"
	"io"
	"math/rand"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/coverage"
	"repro/internal/data"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/sentinel"
	"repro/internal/tensor"
	"repro/internal/train"
	"repro/internal/validate"
)

// Re-exported core types. The aliases give external importers access to
// the internal implementations through this package's API.
type (
	// Tensor is a dense numeric array (images are [C,H,W] in [0,1]).
	Tensor = tensor.Tensor
	// Network is a feed-forward CNN with forward/backward passes and a
	// flat parameter registry.
	Network = nn.Network
	// Dataset is a labelled image collection.
	Dataset = data.Dataset
	// GenResult is a generated validation set with its coverage curve.
	GenResult = core.Result
	// GenOptions configures the test generators.
	GenOptions = core.Options
	// Suite is a vendor validation artefact (inputs + reference outputs).
	Suite = validate.Suite
	// Report is the outcome of replaying a suite against an IP.
	Report = validate.Report
	// IP is the black-box interface an IP user holds.
	IP = validate.IP
	// LocalIP adapts an in-process Network to IP.
	LocalIP = validate.LocalIP
	// RemoteIP is a TCP client for a served IP.
	RemoteIP = validate.RemoteIP
	// Server hosts a network as a black-box IP endpoint (Serve/ServeWith).
	Server = validate.Server
	// ShardedIP fans queries across a fleet of replicas with failover,
	// half-open probing, per-replica introspection and quarantine.
	ShardedIP = validate.ShardedIP
	// ReplicaStatus snapshots one fleet replica's routing state and
	// counters (ShardedIP.ReplicaStatuses).
	ReplicaStatus = validate.ReplicaStatus
	// ReplayConfig is the one replay configuration every validation
	// entry point feeds into Suite.Replay.
	ReplayConfig = validate.ReplayConfig
	// ValidateOptions tunes ValidateWith/DetectsWith (the legacy
	// spelling of ReplayConfig's batch/workers/tolerance fields).
	ValidateOptions = validate.ValidateOptions
	// Wire names a wire dialect of the served-IP protocol family.
	Wire = validate.Wire
	// DialOptions bounds and configures the client side of a served-IP
	// connection, including the requested Wire dialect.
	DialOptions = validate.DialOptions
	// ServerOptions configures a served IP endpoint, including the Wire
	// dialect it is provisioned for.
	ServerOptions = validate.ServerOptions
	// WireStats counts the bytes a client exchanged with its server.
	WireStats = validate.WireStats
	// FrameStore is the process-wide content-addressed store protocol-v5
	// sessions probe before uploading frame bodies (ServerOptions.FrameStore
	// injects one; Server.FrameStore returns the handle in use).
	FrameStore = validate.FrameStore
	// FrameStoreStats snapshots a FrameStore's occupancy and
	// hit/miss/insert/eviction/conflict counters.
	FrameStoreStats = validate.FrameStoreStats
	// Perturbation records an applied parameter attack.
	Perturbation = attack.Perturbation
	// CoverageConfig sets the parameter-activation threshold.
	CoverageConfig = coverage.Config
	// SentinelConfig configures the continuous fleet-validation daemon.
	SentinelConfig = sentinel.Config
	// Sentinel is the continuous fleet-validation daemon: scheduled
	// trickle replays under a query budget, replica attribution,
	// quarantine/readmission, and HTTP observability.
	Sentinel = sentinel.Sentinel
	// SentinelAlert is the structured incident record a sentinel raises
	// on a divergent round.
	SentinelAlert = sentinel.Alert
)

// Wire dialects, mirroring the CLI's -wire gob|f32|quant flag.
const (
	// WireAuto defers the dialect choice (DialOptions: gob;
	// ReplayConfig: the session-native comparison).
	WireAuto = validate.WireAuto
	// WireGob is protocol v2: gob-framed float64 tensors, bit-exact.
	WireGob = validate.WireGob
	// WireF32 is protocol v3: float32 frames at half the bandwidth.
	WireF32 = validate.WireF32
	// WireQuant is the quantised dialect: delta-encoded replay frames,
	// negotiated at protocol v5 (v4 framing plus content-addressed frame
	// probes against the server's shared store) and downgrading to the
	// per-connection v4 path against older servers.
	WireQuant = validate.WireQuant
)

// ParseWire maps a -wire flag spelling onto the Wire enum.
var ParseWire = validate.ParseWire

// NewSentinel builds the continuous fleet-validation daemon; drive it
// with Run and observe it over Handler's /metrics and /status.
var NewSentinel = sentinel.New

// Dataset constructors (procedural substitutes for MNIST, CIFAR-10 and
// the Fig. 2 probe sets; see DESIGN.md for the substitution rationale).
var (
	// Digits generates MNIST-like grayscale digit images.
	Digits = data.Digits
	// Objects generates CIFAR-like colour object images.
	Objects = data.Objects
	// Noise generates Gaussian-noise probe images.
	Noise = data.Noise
	// Natural generates out-of-distribution image-like probes.
	Natural = data.Natural
)

// NewMNISTModel builds the paper's Table I MNIST architecture (Tanh)
// for h×w inputs at the given width scale (1 = paper widths).
func NewMNISTModel(h, w int, scale float64, seed int64) (*Network, error) {
	return models.MNIST(h, w, scale).Build(seed)
}

// NewCIFARModel builds the paper's Table I CIFAR-10 architecture (ReLU).
func NewCIFARModel(h, w int, scale float64, seed int64) (*Network, error) {
	return models.CIFAR(h, w, scale).Build(seed)
}

// TrainConfig controls Train.
type TrainConfig struct {
	Epochs    int     // default 8
	BatchSize int     // default 16
	LR        float64 // default 0.002 (Adam)
	Seed      int64
	// Parallelism fans each minibatch's gradient accumulation out
	// across this many workers; <= 1 is serial. Deterministic for a
	// fixed (Seed, Parallelism).
	Parallelism int
}

// Train fits the network on the dataset with Adam and softmax
// cross-entropy, returning the final training accuracy.
func Train(net *Network, ds *Dataset, cfg TrainConfig) (float64, error) {
	if cfg.Epochs <= 0 {
		cfg.Epochs = 8
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 16
	}
	if cfg.LR <= 0 {
		cfg.LR = 0.002
	}
	res, err := train.Fit(net, ds, train.Config{
		Epochs:      cfg.Epochs,
		BatchSize:   cfg.BatchSize,
		Optimizer:   train.NewAdam(cfg.LR),
		Seed:        cfg.Seed,
		Parallelism: cfg.Parallelism,
	})
	if err != nil {
		return 0, err
	}
	return res.TrainAccuracy, nil
}

// Accuracy returns the network's classification accuracy on ds.
func Accuracy(net *Network, ds *Dataset) float64 { return train.Accuracy(net, ds) }

// DefaultCoverage returns the activation threshold appropriate for the
// network's activation functions (exact-nonzero for ReLU, relative ε
// for Tanh/Sigmoid).
func DefaultCoverage(net *Network) CoverageConfig { return coverage.DefaultConfig(net) }

// ValidationCoverage returns the fraction of parameters activated by at
// least one of the test inputs (paper Eq. 4).
func ValidationCoverage(net *Network, tests []*Tensor) float64 {
	return coverage.VC(net, tests, coverage.DefaultConfig(net))
}

// GenerateTests runs the paper's combined method (§IV-D): greedy
// selection from the training set until its marginal coverage per test
// drops below gradient-based synthesis, then synthesis.
func GenerateTests(net *Network, trainSet *Dataset, n int) (*GenResult, error) {
	opts := core.DefaultOptions(n)
	opts.Coverage = coverage.DefaultConfig(net)
	return core.Combined(net, trainSet, opts)
}

// SelectTests runs Algorithm 1 only (greedy training-set selection).
func SelectTests(net *Network, trainSet *Dataset, n int) (*GenResult, error) {
	opts := core.DefaultOptions(n)
	opts.Coverage = coverage.DefaultConfig(net)
	return core.SelectFromTraining(net, trainSet, opts)
}

// SynthesizeTests runs Algorithm 2 only (gradient-based generation).
func SynthesizeTests(net *Network, inShape []int, classes, n int) (*GenResult, error) {
	opts := core.DefaultOptions(n)
	opts.Coverage = coverage.DefaultConfig(net)
	return core.GradientGenerate(net, inShape, classes, opts)
}

// GenerateSuite is the full vendor step: generate n tests with the
// combined method and package them with reference outputs.
func GenerateSuite(net *Network, trainSet *Dataset, n int) (*Suite, error) {
	res, err := GenerateTests(net, trainSet, n)
	if err != nil {
		return nil, fmt.Errorf("repro: generate suite: %w", err)
	}
	return validate.BuildSuite("repro", net, res.Tests, validate.ExactOutputs), nil
}

// BuildSuite packages arbitrary test inputs with reference outputs.
func BuildSuite(name string, net *Network, tests []*Tensor) *Suite {
	return validate.BuildSuite(name, net, tests, validate.ExactOutputs)
}

// Attack convenience wrappers; each returns the applied perturbation,
// which Revert undoes.

// AttackSBA applies the single bias attack of Liu et al. [5].
func AttackSBA(net *Network, magnitude float64, seed int64) (*Perturbation, error) {
	return attack.SBA(net, magnitude, rand.New(rand.NewSource(seed)))
}

// AttackGDA applies the gradient descent attack of Liu et al. [5]
// against a victim input.
func AttackGDA(net *Network, victim *Tensor, label int, seed int64) (*Perturbation, bool, error) {
	return attack.GDA(net, victim, label, attack.DefaultGDAConfig(), rand.New(rand.NewSource(seed)))
}

// AttackRandom perturbs count random parameters with Gaussian noise.
func AttackRandom(net *Network, count int, sigma float64, seed int64) (*Perturbation, error) {
	return attack.RandomNoise(net, count, sigma, rand.New(rand.NewSource(seed)))
}

// AttackBitFlip flips one random float32 bit in count random parameters.
func AttackBitFlip(net *Network, count int, seed int64) (*Perturbation, error) {
	return attack.BitFlip(net, count, rand.New(rand.NewSource(seed)))
}

// AttackTargetedBitFlip flips the given stored-float32 bit (31 sign,
// 30–23 exponent, 22–0 mantissa) in count random parameters —
// rowhammer-style targeted corruption.
func AttackTargetedBitFlip(net *Network, count int, bit uint, seed int64) (*Perturbation, error) {
	return attack.TargetedBitFlip(net, count, bit, rand.New(rand.NewSource(seed)))
}

// AttackTrojan implants a backdoor that steers trigger to the target
// class by a closed-form last-layer edit preserving predictions on
// every clean input; success reports whether the trigger reached the
// target.
func AttackTrojan(net *Network, trigger *Tensor, target int, cleans []*Tensor) (*Perturbation, bool, error) {
	return attack.Trojan(net, trigger, target, cleans, attack.DefaultTrojanConfig())
}

// AttackQuantEvade optimises an edit that moves raw output bits on
// the probes while every probed output stays in its rounding bucket
// at the given decimals — evading QuantizedOutputs replay while
// ExactOutputs replay still catches it.
func AttackQuantEvade(net *Network, probes []*Tensor, decimals int, seed int64) (*Perturbation, error) {
	return attack.QuantEvade(net, attack.QuantEvadeConfig{
		Decimals: decimals, InBucket: true, Probes: probes,
	}, rand.New(rand.NewSource(seed)))
}

// SetKernelParallelism bounds the worker goroutines the tensor matrix
// kernels may use (default: the whole machine). The kernels partition
// output rows, so results are bit-identical at any setting; values
// below 1 force fully serial kernels.
var SetKernelParallelism = tensor.SetParallelism

// Serve hosts the network as a black-box IP on the listener,
// evaluating queries concurrently on one frozen snapshot of it; see
// validate.Serve. ServeWith bounds how many run at once.
var (
	Serve     = validate.Serve
	ServeWith = validate.ServeWith
)

// NewFrameStore builds a bounded content-addressed frame store to
// share between fleets (or isolate per fleet) via
// ServerOptions.FrameStore; zero bounds take the package defaults.
var NewFrameStore = validate.NewFrameStore

// Dial connects to a served IP; DialWith adds connection and response
// deadlines, and DialShards fans a fleet of replicas into one sharded
// IP with failover.
var (
	Dial       = validate.Dial
	DialWith   = validate.DialWith
	DialShards = validate.DialShards
)

// OpenSuite opens a sealed suite, verifying integrity.
var OpenSuite = validate.OpenSuite

// EncodeNetwork / DecodeNetwork serialise models.
var (
	DecodeNetwork = nn.Decode
)

// EncodeNetwork writes the network in gob form.
func EncodeNetwork(net *Network, w io.Writer) error {
	return net.Encode(w)
}
