// Command dnnval drives the vendor/user validation workflow of Fig. 1
// from the command line.
//
// Subcommands:
//
//	train    - build and train a model, write it to a .gob file
//	generate - generate a functional test suite for a model, seal it
//	attack   - apply a parameter attack to a stored model, or sweep a
//	           detection-rate campaign over the attack zoo
//	           (-magnitude-grid; kinds × modes × magnitudes over seeded
//	           trials, bit-reproducible at any worker count, with JSON
//	           output and a regression gate against stored floors)
//	validate - replay a sealed suite against a model file or served IP
//	           (batched queries, concurrent workers, sharded replicas,
//	           -wire gob|f32|quant selecting the v2/v3/v4+v5 dialect)
//	serve    - host a model as a black-box IP over TCP, optionally as a
//	           fleet of replicas with concurrent per-replica workers
//	           (speaks wire protocols v2-v5; -max-wire pins the ceiling,
//	           -coalesce batches single queries across connections, and
//	           all replicas share one content-addressed frame store)
//	sentinel - continuous fleet validation: trickle-replay random suite
//	           subsets against a live fleet on a schedule under a query
//	           budget, attribute divergence to replicas, quarantine and
//	           readmit them, expose /metrics + /status over HTTP, and
//	           POST alerts to a webhook (-alert-url)
//	info     - print a model summary and per-layer parameter counts
//
// Run `dnnval <subcommand> -h` for flags. Datasets are procedural and
// regenerated from seeds, so no data files are needed.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/signal"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/coverage"
	"repro/internal/data"
	"repro/internal/experiments"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/parallel"
	"repro/internal/quant"
	"repro/internal/sentinel"
	"repro/internal/tensor"
	"repro/internal/train"
	"repro/internal/validate"
)

// parseCompareMode maps the -mode flag to a suite comparison mode.
func parseCompareMode(mode string) (validate.CompareMode, error) {
	switch mode {
	case "exact":
		return validate.ExactOutputs, nil
	case "quantized":
		return validate.QuantizedOutputs, nil
	case "labels":
		return validate.LabelsOnly, nil
	default:
		return 0, fmt.Errorf("unknown -mode %q (want exact, quantized or labels)", mode)
	}
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("dnnval: ")
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "train":
		err = cmdTrain(os.Args[2:])
	case "generate":
		err = cmdGenerate(os.Args[2:])
	case "attack":
		err = cmdAttack(os.Args[2:])
	case "validate":
		err = cmdValidate(os.Args[2:])
	case "serve":
		err = cmdServe(os.Args[2:])
	case "sentinel":
		err = cmdSentinel(os.Args[2:])
	case "info":
		err = cmdInfo(os.Args[2:])
	default:
		usage()
	}
	if err != nil {
		log.Fatal(err)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: dnnval {train|generate|attack|validate|serve|sentinel|info} [flags]")
	os.Exit(2)
}

func loadModel(path string) (*nn.Network, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return nn.Decode(f)
}

func saveModel(path string, network *nn.Network) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return network.Encode(f)
}

// modelDataset builds the named dataset and checks that network takes
// its inputs, naming -data and -size when it does not.
func modelDataset(network *nn.Network, kind string, n, size int, seed int64) (*data.Dataset, error) {
	ds, err := dataset(kind, n, size, size, seed)
	if err != nil {
		return nil, err
	}
	if shape := []int{ds.C, ds.H, ds.W}; !takes(network, shape) {
		return nil, fmt.Errorf("-data %s -size %d gives inputs %v, but the model takes %v", kind, size, shape, network.InputShape())
	}
	return ds, nil
}

// checkSuite returns an error naming -suite unless network takes every
// input of suite.
func checkSuite(network *nn.Network, suite *validate.Suite, path string) error {
	for _, x := range suite.Inputs {
		if !takes(network, x.Shape()) {
			return fmt.Errorf("-suite %s holds inputs %v, but the model takes %v", path, x.Shape(), network.InputShape())
		}
	}
	return nil
}

// takes reports whether network accepts one input of the given shape:
// its input shape exactly, or the input size alone when its first
// layer with a geometry is dense.
func takes(network *nn.Network, shape []int) bool {
	want := network.InputShape()
	if len(want) == 1 {
		size := 1
		for _, d := range shape {
			size *= d
		}
		return size == want[0]
	}
	return want == nil || slices.Equal(want, shape)
}

// dataset builds the named procedural dataset sized for the model kind.
func dataset(kind string, n, h, w int, seed int64) (*data.Dataset, error) {
	switch kind {
	case "digits":
		return data.Digits(n, h, w, seed), nil
	case "objects":
		return data.Objects(n, h, w, seed), nil
	default:
		return nil, fmt.Errorf("unknown dataset %q (want digits or objects)", kind)
	}
}

func cmdTrain(args []string) error {
	fs := flag.NewFlagSet("train", flag.ExitOnError)
	arch := fs.String("arch", "cifar", "architecture: mnist (Tanh) or cifar (ReLU)")
	size := fs.Int("size", 20, "input height/width")
	scale := fs.Float64("scale", 0.25, "width scale of the Table I stacks")
	n := fs.Int("n", 800, "training samples")
	epochs := fs.Int("epochs", 8, "training epochs")
	lr := fs.Float64("lr", 0.002, "Adam learning rate")
	seed := fs.Int64("seed", 1, "random seed")
	par := fs.Int("parallel", 1, "training worker goroutines; the default 1 keeps the model a machine-independent function of -seed, >1 is deterministic per (seed, parallel) but depends on the chosen worker count")
	out := fs.String("o", "model.gob", "output model file")
	fs.Parse(args)

	var a models.Arch
	var ds *data.Dataset
	switch *arch {
	case "mnist":
		a = models.MNIST(*size, *size, *scale)
		ds = data.Digits(*n, *size, *size, *seed+100)
	case "cifar":
		a = models.CIFAR(*size, *size, *scale)
		ds = data.Objects(*n, *size, *size, *seed+100)
	default:
		return fmt.Errorf("unknown arch %q", *arch)
	}
	network, err := a.Build(*seed)
	if err != nil {
		return err
	}
	res, err := train.Fit(network, ds, train.Config{
		Epochs:      *epochs,
		BatchSize:   16,
		Optimizer:   train.NewAdam(*lr),
		Seed:        *seed,
		Logf:        log.Printf,
		Parallelism: *par,
	})
	if err != nil {
		return err
	}
	log.Printf("trained %s: accuracy %.1f%%, %d parameters", a.Name, 100*res.TrainAccuracy, network.NumParams())
	return saveModel(*out, network)
}

func cmdGenerate(args []string) error {
	fs := flag.NewFlagSet("generate", flag.ExitOnError)
	model := fs.String("model", "model.gob", "model file")
	dsKind := fs.String("data", "objects", "training data: digits or objects")
	size := fs.Int("size", 20, "input height/width")
	n := fs.Int("n", 30, "number of functional tests (Nt)")
	pool := fs.Int("pool", 300, "training pool size for Algorithm 1")
	seed := fs.Int64("seed", 1, "random seed")
	method := fs.String("method", "combined", "generator: combined, select, gradient")
	par := fs.Int("parallel", parallel.Auto(), "worker goroutines (suite is bit-identical at any value)")
	batch := fs.Int("batch", 0, "evaluation batch size per worker: 0 = default, 1 = one input at a time (suite is bit-identical at any value)")
	mode := fs.String("mode", "exact", "comparison mode sealed into the suite: exact (bit-identical outputs, the paper's setting), quantized (outputs rounded to -decimals; enables the v4 quantised wire replay), labels (argmax only)")
	decimals := fs.Int("decimals", 6, "decimal precision of -mode quantized")
	key := fs.String("key", "", "seal the suite with this key (hex-free shared secret)")
	out := fs.String("o", "suite.bin", "output suite file")
	fs.Parse(args)

	cmpMode, err := parseCompareMode(*mode)
	if err != nil {
		return err
	}
	if *decimals < 0 || *decimals > quant.MaxDecimals {
		return fmt.Errorf("-decimals %d out of range [0,%d]", *decimals, quant.MaxDecimals)
	}

	network, err := loadModel(*model)
	if err != nil {
		return err
	}
	ds, err := modelDataset(network, *dsKind, *pool, *size, *seed+100)
	if err != nil {
		return err
	}
	opts := core.DefaultOptions(*n)
	opts.Coverage = coverage.DefaultConfig(network)
	opts.Seed = *seed
	opts.Parallelism = *par
	opts.Batch = *batch

	var res *core.Result
	switch *method {
	case "combined":
		res, err = core.Combined(network, ds, opts)
	case "select":
		res, err = core.SelectFromTraining(network, ds, opts)
	case "gradient":
		res, err = core.GradientGenerate(network, []int{ds.C, ds.H, ds.W}, ds.Classes, opts)
	default:
		return fmt.Errorf("unknown method %q", *method)
	}
	if err != nil {
		return err
	}
	log.Printf("%d tests, validation coverage %.1f%% (switch point %d)",
		len(res.Tests), 100*res.FinalCoverage(), res.SwitchPoint)

	suite := validate.BuildSuite("dnnval", network, res.Tests, cmpMode)
	suite.Decimals = *decimals
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	if *key == "" {
		return fmt.Errorf("a -key is required to seal the suite")
	}
	return suite.Seal(f, []byte(*key))
}

func cmdAttack(args []string) error {
	fs := flag.NewFlagSet("attack", flag.ExitOnError)
	model := fs.String("model", "model.gob", "model file")
	kind := fs.String("kind", "sba", "attack kind: sba, gda, random, bitflip, tbitflip, trojan, subround; with -magnitude-grid, a comma list (or \"all\") of campaign kinds including adaptive")
	magnitude := fs.Float64("magnitude", 5, "attack magnitude: sba bias offset, trojan margin scale, subround headroom as a fraction of the acceptance slack")
	count := fs.Int("count", 1, "parameters for random/bitflip/tbitflip")
	sigma := fs.Float64("sigma", 0.5, "random perturbation std")
	bit := fs.Int("bit", 31, "stored float32 bit tbitflip targets: 31 sign, 30-23 exponent, 22-0 mantissa")
	dsKind := fs.String("data", "objects", "victim/probe data: digits or objects")
	size := fs.Int("size", 20, "input height/width")
	seed := fs.Int64("seed", 1, "random seed; a campaign is bit-reproducible from (-seed, grid) alone at any -workers")
	out := fs.String("o", "", "output model file (default: overwrite input; unused in campaign mode)")
	decimals := fs.Int("decimals", 3, "rounding boundary the subround attacker hides under, and the campaign's quantized-mode precision")
	tol := fs.Float64("tol", 0, "replay tolerance the subround/adaptive attackers target instead of the rounding boundary (0 = bit-exact)")

	// Campaign mode: sweep detection rate vs magnitude instead of
	// applying one edit.
	grid := fs.String("magnitude-grid", "", "comma-separated magnitudes; selects campaign mode (detection-rate sweep, model left untouched)")
	modes := fs.String("mode", "exact,quantized,labels", "comma-separated suite comparison modes the campaign sweeps")
	trials := fs.Int("trials", 20, "seeded trials per campaign cell")
	workers := fs.Int("workers", 0, "campaign worker goroutines (0 = whole machine; tables are identical at any value)")
	pool := fs.Int("pool", 80, "victim pool size for campaign gda/trojan/adaptive trials")
	suiteN := fs.Int("suite-n", 12, "tests in the campaign's in-process suite (ignored with -suite)")
	suitePath := fs.String("suite", "", "sealed suite the campaign replays instead of building one in-process (requires -key)")
	key := fs.String("key", "", "sealing key of -suite")
	jsonOut := fs.String("json", "", "write the campaign result as JSON to this file")
	gatePath := fs.String("gate", "", "check campaign detection rates against the floors in this baseline file; any cell below its floor is an error")
	emit := fs.String("emit-baseline", "", "write the campaign's detection-rate floors to this file (the -gate format)")
	fs.Parse(args)

	network, err := loadModel(*model)
	if err != nil {
		return err
	}
	if *grid != "" {
		return runAttackCampaign(network, attackCampaignFlags{
			kinds: *kind, grid: *grid, modes: *modes,
			trials: *trials, workers: *workers, seed: *seed,
			decimals: *decimals, tol: *tol,
			dsKind: *dsKind, size: *size, pool: *pool, suiteN: *suiteN,
			suitePath: *suitePath, key: *key,
			jsonOut: *jsonOut, gatePath: *gatePath, emit: *emit,
		})
	}
	rng := rand.New(rand.NewSource(*seed))
	var p *attack.Perturbation
	switch *kind {
	case "sba":
		p, err = attack.SBA(network, *magnitude, rng)
	case "gda":
		var ds *data.Dataset
		ds, err = modelDataset(network, *dsKind, 10, *size, *seed+100)
		if err != nil {
			return err
		}
		v := ds.Samples[0]
		var success bool
		p, success, err = attack.GDA(network, v.X, v.Label, attack.DefaultGDAConfig(), rng)
		if err == nil {
			log.Printf("GDA misclassification achieved: %v", success)
		}
	case "random":
		p, err = attack.RandomNoise(network, *count, *sigma, rng)
	case "bitflip":
		p, err = attack.BitFlip(network, *count, rng)
	case "tbitflip":
		if *bit < 0 {
			return fmt.Errorf("-bit %d out of range [0,31]", *bit)
		}
		p, err = attack.TargetedBitFlip(network, *count, uint(*bit), rng)
	case "trojan":
		var ds *data.Dataset
		ds, err = modelDataset(network, *dsKind, 12, *size, *seed+100)
		if err != nil {
			return err
		}
		cleans := make([]*tensor.Tensor, 0, len(ds.Samples)-1)
		for _, s := range ds.Samples[1:] {
			cleans = append(cleans, s.X)
		}
		trigger := ds.Samples[0].X
		target := (network.Predict(trigger) + 1) % ds.Classes
		var success bool
		p, success, err = attack.Trojan(network, trigger, target, cleans, attack.TrojanConfig{Margin: 0.5 * *magnitude})
		if err == nil {
			log.Printf("trojan implanted (trigger steered to class %d): %v", target, success)
		}
	case "subround":
		var ds *data.Dataset
		ds, err = modelDataset(network, *dsKind, 8, *size, *seed+200)
		if err != nil {
			return err
		}
		probes := make([]*tensor.Tensor, 0, len(ds.Samples))
		for _, s := range ds.Samples {
			probes = append(probes, s.X)
		}
		p, err = attack.QuantEvade(network, attack.QuantEvadeConfig{
			Decimals: *decimals, Tol: *tol, Headroom: *magnitude, Probes: probes,
		}, rng)
	default:
		return fmt.Errorf("unknown attack %q", *kind)
	}
	if err != nil {
		return err
	}
	log.Printf("applied %s", p)
	dst := *out
	if dst == "" {
		dst = *model
	}
	return saveModel(dst, network)
}

// attackCampaignFlags carries cmdAttack's campaign-mode flag values.
type attackCampaignFlags struct {
	kinds, grid, modes      string
	trials, workers         int
	seed                    int64
	decimals                int
	tol                     float64
	dsKind                  string
	size, pool, suiteN      int
	suitePath, key          string
	jsonOut, gatePath, emit string
}

// runAttackCampaign sweeps detection rate vs attack magnitude per suite
// mode: the tentpole `dnnval attack -kind <k> -magnitude-grid ...`
// driver. The model file is read, never written.
func runAttackCampaign(network *nn.Network, f attackCampaignFlags) error {
	if f.decimals < 0 || f.decimals > quant.MaxDecimals {
		return fmt.Errorf("-decimals %d out of range [0,%d]", f.decimals, quant.MaxDecimals)
	}
	cfg := experiments.CampaignConfig{
		Trials: f.trials, Seed: f.seed, Workers: f.workers,
		Decimals: f.decimals, Tol: f.tol,
	}
	if f.kinds == "all" {
		cfg.Kinds = experiments.CampaignKinds
	} else {
		cfg.Kinds = strings.Split(f.kinds, ",")
	}
	for _, m := range strings.Split(f.modes, ",") {
		cm, err := parseCompareMode(strings.TrimSpace(m))
		if err != nil {
			return err
		}
		cfg.Modes = append(cfg.Modes, cm)
	}
	for _, s := range strings.Split(f.grid, ",") {
		mag, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err != nil {
			return fmt.Errorf("bad -magnitude-grid entry %q: %w", s, err)
		}
		cfg.Magnitudes = append(cfg.Magnitudes, mag)
	}

	victims, err := modelDataset(network, f.dsKind, f.pool, f.size, f.seed+100)
	if err != nil {
		return err
	}
	var suite *validate.Suite
	if f.suitePath != "" {
		if f.key == "" {
			return fmt.Errorf("a -key is required to open the suite")
		}
		sf, err := os.Open(f.suitePath)
		if err != nil {
			return err
		}
		defer sf.Close()
		if suite, err = validate.OpenSuite(sf, []byte(f.key)); err != nil {
			return err
		}
		if err := checkSuite(network, suite, f.suitePath); err != nil {
			return err
		}
	} else {
		// No sealed suite given: build one on the model in-process. The
		// campaign overrides its mode and decimals per cell anyway.
		probes, err := modelDataset(network, f.dsKind, f.suiteN, f.size, f.seed+200)
		if err != nil {
			return err
		}
		tests := make([]*tensor.Tensor, 0, len(probes.Samples))
		for _, s := range probes.Samples {
			tests = append(tests, s.X)
		}
		suite = validate.BuildSuite("campaign", network, tests, validate.ExactOutputs)
	}

	res, err := experiments.RunCampaign(network, suite, victims, cfg)
	if err != nil {
		return err
	}
	fmt.Println(res.Render())
	if f.jsonOut != "" {
		raw, err := res.JSON()
		if err != nil {
			return err
		}
		if err := os.WriteFile(f.jsonOut, append(raw, '\n'), 0o644); err != nil {
			return err
		}
	}
	if f.emit != "" {
		if err := os.WriteFile(f.emit, []byte(res.BaselineLines()), 0o644); err != nil {
			return err
		}
	}
	if f.gatePath != "" {
		baseline, err := os.ReadFile(f.gatePath)
		if err != nil {
			return err
		}
		if err := res.CheckFloors(string(baseline)); err != nil {
			return err
		}
		log.Printf("detection gate passed: every %s floor held", f.gatePath)
	}
	return nil
}

// parseDialect maps the -wire and -f32 flags onto one dialect: -f32
// alone asks for the v3 float32 frames, -wire f32 implies -f32, and
// -wire gob contradicts it.
func parseDialect(wire string, f32 *bool) (validate.Wire, error) {
	dialect, err := validate.ParseWire(wire)
	if err != nil {
		return 0, fmt.Errorf("unknown -wire %q (want gob, f32 or quant)", wire)
	}
	switch dialect {
	case validate.WireGob:
		if *f32 {
			return 0, fmt.Errorf("-wire gob requests the v2 float64 dialect, which -f32 contradicts: drop one of the two flags")
		}
	case validate.WireAuto:
		if *f32 {
			dialect = validate.WireF32
		}
	case validate.WireF32:
		*f32 = true
	}
	return dialect, nil
}

func cmdValidate(args []string) error {
	fs := flag.NewFlagSet("validate", flag.ExitOnError)
	model := fs.String("model", "", "model file to validate (local mode)")
	addr := fs.String("addr", "", "served IP address(es), comma-separated for a sharded replica fleet (remote mode)")
	suitePath := fs.String("suite", "suite.bin", "sealed suite file")
	key := fs.String("key", "", "suite sealing key")
	batch := fs.Int("batch", 0, "queries per batched exchange (<=1 single queries; report is identical at any value)")
	workers := fs.Int("workers", 1, "concurrent replay workers (pipelined per connection, spread across replicas)")
	timeout := fs.Duration("timeout", 0, "per-response wait bound in remote mode (0 = default)")
	f32 := fs.Bool("f32", false, "replay on the float32 inference path (protocol v3 float32 frames in remote mode); requires -tol")
	wire := fs.String("wire", "", "remote wire dialect: gob (protocol v2 float64 frames, the default), f32 (v3 float32 frames, same as -f32), quant (v5 quantised delta-encoded frames probing the server's shared frame store, downgrading to per-connection v4 against older servers; a quantized-mode suite replays with verdicts identical to local validation)")
	tol := fs.Float64("tol", 0, "accept outputs within this absolute tolerance of the recorded references (0 = bit-exact, the paper's setting)")
	cacheFrames := fs.Int("cache-frames", 0, "quant-wire replay-frame cache bound in frames on a v5 session (0 = the compiled default, 256)")
	cacheBytes := fs.Int("cache-bytes", 0, "quant-wire replay-frame cache bound in bytes on a v5 session (0 = the compiled default, 8 MiB)")
	fs.Parse(args)

	dialect, err := parseDialect(*wire, f32)
	if err != nil {
		return err
	}
	quantWire := dialect == validate.WireQuant
	if quantWire && *addr == "" {
		return fmt.Errorf("-wire quant selects the v4 network dialect and needs -addr; local replay of a quantized suite already compares quantised")
	}
	if *key == "" {
		return fmt.Errorf("a -key is required to open the suite")
	}
	f, err := os.Open(*suitePath)
	if err != nil {
		return err
	}
	defer f.Close()
	suite, err := validate.OpenSuite(f, []byte(*key))
	if err != nil {
		return err
	}
	// Quantised and labels-only suites already tolerate sub-rounding
	// deviation, so -f32 without -tol is only a guaranteed failure for
	// the bit-exact comparison mode.
	if *f32 && *tol <= 0 && suite.Mode == validate.ExactOutputs {
		return fmt.Errorf("-f32 computes in float32, which cannot match float64 references bit-exactly: pass -tol (1e-4 is a sound default for these models)")
	}
	if quantWire && suite.Mode != validate.QuantizedOutputs {
		return fmt.Errorf("-wire quant compares fixed-point wire frames, which needs a quantized-mode suite (generate -mode quantized); this suite is %s", suite.Mode)
	}

	var ip validate.IP
	switch {
	case *addr != "":
		addrs := strings.Split(*addr, ",")
		opts := validate.DialOptions{
			ReadTimeout: *timeout, Wire: dialect, F32: *f32, Decimals: suite.Decimals,
			CacheFrames: *cacheFrames, CacheBytes: *cacheBytes,
		}
		if len(addrs) > 1 {
			cluster, err := validate.DialShards(addrs, opts)
			if err != nil {
				return err
			}
			defer cluster.Close()
			ip = cluster
		} else {
			remote, err := validate.DialWith(addrs[0], opts)
			if err != nil {
				return err
			}
			defer remote.Close()
			ip = remote
		}
	case *model != "":
		network, err := loadModel(*model)
		if err != nil {
			return err
		}
		if err := checkSuite(network, suite, *suitePath); err != nil {
			return err
		}
		// Concurrent local replay needs per-worker clones; the serial
		// float64 case keeps the allocation-free direct path.
		switch {
		case *f32:
			ip = validate.NewPooledF32IP(network, *workers)
		case *workers > 1:
			ip = validate.NewPooledIP(network, *workers)
		default:
			ip = validate.LocalIP{Net: network}
		}
	default:
		return fmt.Errorf("need -model or -addr")
	}

	rep, err := suite.ValidateWith(ip, validate.ValidateOptions{Batch: *batch, Concurrency: *workers, Tolerance: *tol})
	if err != nil {
		return err
	}
	fmt.Println(rep)
	if !rep.Passed {
		os.Exit(1)
	}
	return nil
}

func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	model := fs.String("model", "model.gob", "model file")
	addr := fs.String("addr", "127.0.0.1:7077", "listen address of the first replica")
	replicas := fs.Int("replicas", 1, "replica endpoints to serve, on consecutive ports from -addr")
	workers := fs.Int("workers", 0, "network clones (= concurrent queries) per replica; 0 = whole machine")
	f32 := fs.Bool("f32", false, "additionally host a float32 inference fleet per replica: protocol-v3 clients (dnnval validate -f32) are served reduced-precision, v2 clients stay bit-exact float64")
	maxWire := fs.Int("max-wire", 0, "highest wire protocol version to negotiate, 0 = the build's highest (v5, so -wire quant clients probe the shared frame store); pin to 2-4 to serve exactly as an older build would (interop/rollback)")
	cacheFrames := fs.Int("cache-frames", 0, "per-session replay-frame cache bound in frames for v5 sessions (0 = the compiled default, 256)")
	cacheBytes := fs.Int("cache-bytes", 0, "per-session replay-frame cache bound in bytes for v5 sessions (0 = the compiled default, 8 MiB)")
	storeFrames := fs.Int("store-frames", 0, "shared content-addressed frame store bound in frames, one store across all replicas (0 = the default, 1024)")
	storeBytes := fs.Int("store-bytes", 0, "shared content-addressed frame store bound in bytes (0 = the default, 32 MiB)")
	coalesce := fs.Duration("coalesce", 0, "gather same-shape single queries from different connections for up to this window into one batched forward pass (0 = off; verdicts are identical either way)")
	coalesceBatch := fs.Int("coalesce-batch", 0, "queries per coalesced batch before it flushes early (0 = the default, 32)")
	fs.Parse(args)

	if *replicas < 1 {
		return fmt.Errorf("need at least one replica, got %d", *replicas)
	}
	if *maxWire != 0 && (*maxWire < 2 || *maxWire > 5) {
		return fmt.Errorf("-max-wire %d out of range: this build speaks v2-v5 (0 = highest)", *maxWire)
	}
	network, err := loadModel(*model)
	if err != nil {
		return err
	}
	host, portStr, err := net.SplitHostPort(*addr)
	if err != nil {
		return fmt.Errorf("bad -addr: %w", err)
	}
	port, err := strconv.Atoi(portStr)
	if err != nil {
		return fmt.Errorf("bad -addr port: %w", err)
	}
	if port == 0 && *replicas > 1 {
		return fmt.Errorf("-replicas needs a fixed base port, not :0")
	}

	// One content-addressed frame store across the whole fleet process:
	// a sealed suite's frames are stored once no matter how many
	// replicas and re-dials touch them.
	store := validate.NewFrameStore(*storeFrames, *storeBytes)
	servers := make([]*validate.Server, 0, *replicas)
	for i := 0; i < *replicas; i++ {
		l, err := net.Listen("tcp", net.JoinHostPort(host, strconv.Itoa(port+i)))
		if err != nil {
			for _, s := range servers {
				s.Close()
			}
			return fmt.Errorf("replica %d: %w", i, err)
		}
		srvWire := validate.WireAuto
		if *f32 {
			srvWire = validate.WireF32
		}
		srv := validate.ServeWith(l, network, validate.ServerOptions{
			Workers: *workers, Wire: srvWire, MaxVersion: byte(*maxWire),
			CacheFrames: *cacheFrames, CacheBytes: *cacheBytes,
			FrameStore:     store,
			CoalesceWindow: *coalesce, CoalesceBatch: *coalesceBatch,
		})
		servers = append(servers, srv)
		log.Printf("serving IP replica %d/%d on %s", i+1, *replicas, srv.Addr())
	}
	log.Printf("validate against the fleet with: dnnval validate -addr %s", fleetAddrs(servers))

	// Block until interrupted, then drain every replica gracefully:
	// in-flight requests are answered before the endpoints go away.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Printf("shutting down %d replica(s)", len(servers))
	for _, s := range servers {
		s.Close()
	}
	return nil
}

// cmdSentinel runs the continuous fleet-validation daemon of the
// sentinel package against a served fleet: scheduled trickle replays
// under a query budget, per-replica attribution on divergence,
// quarantine/readmission, and HTTP observability.
func cmdSentinel(args []string) error {
	fs := flag.NewFlagSet("sentinel", flag.ExitOnError)
	addr := fs.String("addr", "", "served IP address(es) of the fleet, comma-separated (as printed by dnnval serve)")
	suitePath := fs.String("suite", "suite.bin", "sealed suite file")
	key := fs.String("key", "", "suite sealing key")
	interval := fs.Duration("interval", 30*time.Second, "time between validation rounds")
	sample := fs.Int("sample", 16, "suite tests replayed per round, drawn from a seeded per-round permutation")
	qps := fs.Float64("qps", 0, "cap on sentinel queries per second — the standing query budget (0 = unpaced)")
	batch := fs.Int("batch", 4, "queries per batched exchange")
	tol := fs.Float64("tol", 0, "accept outputs within this absolute tolerance (required with -f32 on an exact-mode suite)")
	wire := fs.String("wire", "", "wire dialect: gob (v2, default), f32 (v3), quant (v4; needs a quantized-mode suite)")
	f32 := fs.Bool("f32", false, "replay on the float32 inference path; requires -tol on an exact-mode suite")
	seed := fs.Int64("seed", 1, "sampling seed; any round is reproducible from (-seed, round number) alone")
	httpAddr := fs.String("http", "127.0.0.1:0", "observability listen address serving /metrics and /status (\"\" disables)")
	alertURL := fs.String("alert-url", "", "webhook URL POSTed each alert as JSON with capped retry (\"\" disables); outcomes surface in /metrics")
	rounds := fs.Uint64("rounds", 0, "stop after this many rounds (0 = run until interrupted)")
	reprobe := fs.Duration("reprobe", time.Second, "minimum backoff before a down or quarantined replica is re-probed (doubles per failure, capped at 30s or this value if larger)")
	timeout := fs.Duration("timeout", 0, "per-response wait bound (0 = default)")
	fs.Parse(args)

	if *addr == "" {
		return fmt.Errorf("sentinel watches a served fleet: -addr is required")
	}
	if *key == "" {
		return fmt.Errorf("a -key is required to open the suite")
	}
	dialect, err := parseDialect(*wire, f32)
	if err != nil {
		return err
	}
	f, err := os.Open(*suitePath)
	if err != nil {
		return err
	}
	defer f.Close()
	suite, err := validate.OpenSuite(f, []byte(*key))
	if err != nil {
		return err
	}
	if *f32 && *tol <= 0 && suite.Mode == validate.ExactOutputs {
		return fmt.Errorf("-f32 computes in float32, which cannot match float64 references bit-exactly: pass -tol (1e-4 is a sound default for these models)")
	}
	if dialect == validate.WireQuant && suite.Mode != validate.QuantizedOutputs {
		return fmt.Errorf("-wire quant compares fixed-point wire frames, which needs a quantized-mode suite (generate -mode quantized); this suite is %s", suite.Mode)
	}

	addrs := strings.Split(*addr, ",")
	fleet, err := validate.DialShards(addrs, validate.DialOptions{ReadTimeout: *timeout, Wire: dialect, F32: *f32, Decimals: suite.Decimals})
	if err != nil {
		return err
	}
	defer fleet.Close()
	maxBackoff := 30 * time.Second
	if *reprobe > maxBackoff {
		maxBackoff = *reprobe
	}
	fleet.SetProbeBackoff(*reprobe, maxBackoff)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	sen, err := sentinel.New(sentinel.Config{
		Suite:     suite,
		Fleet:     fleet,
		Interval:  *interval,
		Sample:    *sample,
		QPS:       *qps,
		Batch:     *batch,
		Tolerance: *tol,
		Wire:      dialect,
		Seed:      *seed,
		AlertURL:  *alertURL,
		OnAlert: func(a sentinel.Alert) {
			// One machine-parseable line per incident: the alert record
			// is the sentinel's product, so it ships whole.
			if b, jerr := json.Marshal(a); jerr == nil {
				log.Printf("ALERT %s", b)
			}
		},
		OnRound: func(r sentinel.RoundResult) {
			if *rounds > 0 && r.Round >= *rounds {
				cancel()
			}
		},
		Logf: log.Printf,
	})
	if err != nil {
		return err
	}

	var hsrv *http.Server
	if *httpAddr != "" {
		l, lerr := net.Listen("tcp", *httpAddr)
		if lerr != nil {
			return fmt.Errorf("observability listener: %w", lerr)
		}
		hsrv = &http.Server{Handler: sen.Handler()}
		go hsrv.Serve(l)
		defer hsrv.Close()
		log.Printf("sentinel observability on http://%s (/metrics, /status)", l.Addr())
	}

	log.Printf("sentinel watching %d replica(s) at %s: every %v, sample %d, seed %d", len(addrs), *addr, *interval, *sample, *seed)
	err = sen.Run(ctx)
	if errors.Is(err, context.Canceled) {
		st := sen.Status()
		log.Printf("sentinel stopped after %d round(s): %d pass, %d fail, %d error, %d alert(s), %d readmission(s)",
			st.Rounds, st.Passes, st.Fails, st.Errors, st.AlertsTotal, st.Readmissions)
		return nil
	}
	return err
}

// fleetAddrs renders the serve fleet as a -addr value.
func fleetAddrs(servers []*validate.Server) string {
	addrs := make([]string, len(servers))
	for i, s := range servers {
		addrs[i] = s.Addr()
	}
	return strings.Join(addrs, ",")
}

func cmdInfo(args []string) error {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	model := fs.String("model", "model.gob", "model file")
	fs.Parse(args)

	network, err := loadModel(*model)
	if err != nil {
		return err
	}
	fmt.Printf("layers: %d, parameters: %d\n", len(network.LayerStack), network.NumParams())
	for _, p := range network.Params() {
		fmt.Printf("  %-12s %7d values\n", p.Name, p.W.Size())
	}
	return nil
}
