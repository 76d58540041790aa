// Command paperbench regenerates every table and figure of the paper's
// evaluation section on the scaled testbeds and prints them as text.
//
// Usage:
//
//	paperbench [-fast] [-trials N] [-budget N] [-probes N]
//
// -fast switches to the reduced test-size configuration (seconds instead
// of minutes). The output order follows the paper: Table I, Fig. 2,
// Fig. 3, Fig. 4, Table II, Table III, then the ablations A1–A4.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/attack"
	"repro/internal/experiments"
	"repro/internal/validate"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("paperbench: ")

	fast := flag.Bool("fast", false, "use the reduced test-size configuration")
	trials := flag.Int("trials", 200, "perturbation trials per detection cell")
	budget := flag.Int("budget", 60, "test budget for the Fig. 3 curves")
	probes := flag.Int("probes", 100, "probe images per Fig. 2 set")
	par := flag.Int("parallel", 0, "worker goroutines for training and generation (0 = serial training + whole-machine generation; generated suites are bit-identical at any value)")
	batch := flag.Int("batch", 0, "evaluation batch size per worker for suite generation (0 = default batch, 1 = one input at a time; suites are bit-identical at any value)")
	tol := flag.Float64("tol", 1e-4, "replay tolerance for the float32 precision report")
	flag.Parse()

	start := time.Now()
	mp, cp := experiments.DefaultMNISTParams(), experiments.DefaultCIFARParams()
	if *fast {
		mp, cp = experiments.FastMNISTParams(), experiments.FastCIFARParams()
		if *probes > 30 {
			*probes = 30
		}
		if *trials > 60 {
			*trials = 60
		}
		if *budget > 25 {
			*budget = 25
		}
	}
	mp.Parallelism, cp.Parallelism = *par, *par
	mp.Batch, cp.Batch = *batch, *batch

	fmt.Println("== Reproduction of: On Functional Test Generation for DNN IPs (DATE 2019) ==")
	fmt.Printf("configuration: fast=%v trials=%d budget=%d probes=%d\n\n", *fast, *trials, *budget, *probes)

	mnist, err := experiments.NewMNISTSetup(mp)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("[%6.1fs] trained %s (accuracy %.1f%%, %d params)\n",
		time.Since(start).Seconds(), mnist.Name, 100*mnist.Accuracy, mnist.Net.NumParams())
	cifar, err := experiments.NewCIFARSetup(cp)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("[%6.1fs] trained %s (accuracy %.1f%%, %d params)\n\n",
		time.Since(start).Seconds(), cifar.Name, 100*cifar.Accuracy, cifar.Net.NumParams())

	fmt.Println(experiments.RunTable1(mnist, cifar).Render())

	// Precision column: where the float32 serving path stands relative
	// to the float64 reference the suites are recorded at.
	prec, err := experiments.RunPrecision([]*experiments.Setup{mnist, cifar}, *probes, *tol)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(prec.Render())

	// Wire bandwidth columns: the measured bytes/query of replaying the
	// same QuantizedOutputs suite over each protocol dialect (v2 gob,
	// v3 float32, v4 quantised delta-encoded), steady state on loopback.
	wire, err := experiments.RunWire([]*experiments.Setup{mnist, cifar}, *probes, *tol)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(wire.Render())

	for _, s := range []*experiments.Setup{mnist, cifar} {
		f := experiments.RunFig2(s, *probes)
		fmt.Println(f.Render())
		fmt.Printf("  paper ordering (training > natural > noise): %v; noise lowest: %v\n\n", f.Ordered(), f.NoiseLowest())
	}

	fig3, err := experiments.RunFig3(cifar, *budget)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(fig3.Render())

	fig4 := experiments.RunFig4(mnist, 40)
	fmt.Println(fig4.Render(4))

	det := experiments.DefaultDetectionParams()
	det.Trials = *trials
	det.Batch = *batch
	// The Tanh model needs quantised comparison: with saturating
	// activations every parameter moves the float64 output, so the
	// paper's exact check detects everything trivially. Quantised
	// outputs model a fixed-point hardware IP.
	detMNIST := det
	detMNIST.Mode = validate.QuantizedOutputs
	detMNIST.Decimals = 1
	// The small Tanh model propagates faults densely (no hard gating),
	// so the perturbations are scaled down to keep Table II informative.
	detMNIST.SBAMagnitude = 0.8
	detMNIST.RandomSigma = 0.15
	detMNIST.GDA = attack.GDAConfig{Steps: 8, LR: 0.02, TopK: 10}
	t2, err := experiments.RunDetection(mnist, detMNIST)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Table II — %s\n%s  proposed ≥ baseline in every cell: %v\n\n", "MNIST substitute", t2.Render(), t2.ProposedWins())

	t3, err := experiments.RunDetection(cifar, det)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Table III — %s\n%s  proposed ≥ baseline in every cell: %v\n\n", "CIFAR substitute", t3.Render(), t3.ProposedWins())

	a1, err := experiments.RunAblationSwitch(cifar, *budget/2, []int{5, 15})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(a1.Render())

	a2, err := experiments.RunAblationInit(cifar, 20)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(a2.Render())

	a3 := experiments.RunAblationEpsilon(mnist, []float64{1e-8, 1e-4, 1e-2, 5e-2, 1e-1}, 20)
	fmt.Println(a3.Render())

	a4, err := experiments.RunAblationCompare(cifar, 20, *trials)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(a4.Render())

	fmt.Printf("total runtime: %.1fs\n", time.Since(start).Seconds())
	os.Exit(0)
}
