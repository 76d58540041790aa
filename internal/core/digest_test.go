package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/coverage"
	"repro/internal/data"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/train"
)

// digestFile holds one SHA-256 digest per generator configuration of
// digestCases, recorded with the T-step synthesis loops of
// fixedpoint_test.go and with every input extracted, repeats included.
const digestFile = "result_digests.txt"

// resultDigest hashes everything a generator decides: the switch
// point, each test's shape and float64 bits, labels, sources, the
// coverage curve's bits and the covered set.
func resultDigest(r *Result) string {
	h := sha256.New()
	var buf []byte
	put := func(v uint64) { buf = binary.LittleEndian.AppendUint64(buf[:0], v); h.Write(buf) }
	put(uint64(int64(r.SwitchPoint)))
	put(uint64(len(r.Tests)))
	for i, x := range r.Tests {
		for _, d := range x.Shape() {
			put(uint64(d))
		}
		for _, v := range x.Data() {
			put(math.Float64bits(v))
		}
		put(uint64(int64(r.Labels[i])))
		put(uint64(r.Sources[i]))
		put(math.Float64bits(r.Curve[i]))
	}
	put(uint64(r.Covered.Len()))
	r.Covered.ForEach(func(i int) { put(uint64(i)) })
	return hex.EncodeToString(h.Sum(nil))
}

// digestCells are the two worker/batch settings each configuration is
// checked at: per-sample synthesis and extraction on one worker, and
// batched synthesis over four workers' class chunks. Independence from
// the rest of the grid is pinned by the parallel and pool tests.
var digestCells = []struct{ workers, batch int }{{1, 1}, {4, 3}}

// digestBed is a trained network with its selection pool and
// activation threshold.
type digestBed struct {
	name string
	net  *nn.Network
	pool *data.Dataset
	cov  coverage.Config
}

// digestBeds are the networks the digests cover. The package's ReLU
// digits net (exact-zero threshold) with its 80-sample pool: at a
// budget of 17 its zero-init Combined switches at test 5 and its
// Gaussian-init Combined never does, and neither result depends on
// Clamp. A Tanh digits net (relative threshold) trained for one epoch,
// with a pool of two samples: its Combined runs out of samples and
// switches at test 2, and each of the ten probe inputs it then takes
// differs between Clamp on and off, so they pin the synthesis steps.
var digestBeds = sync.OnceValue(func() []digestBed {
	tanh := models.Small(nn.Tanh, 1, 12, 12, 4, 8, 16, 10, 211)
	if _, err := train.Fit(tanh, data.Digits(120, 12, 12, 212), train.Config{
		Epochs: 1, BatchSize: 16, Optimizer: train.NewAdam(0.003), Seed: 2,
	}); err != nil {
		panic(err)
	}
	return []digestBed{
		{"relu", trainedDigitsNet(), digitsTrainSet(), coverage.Config{}},
		{"tanh", tanh, data.Digits(2, 12, 12, 213), coverage.DefaultConfig(tanh)},
	}
})

// digestCase is one generator configuration: a bed, a method, Init and
// Clamp, with DefaultOptions(17) otherwise.
type digestCase struct {
	name string
	run  func(workers, batch int) (*Result, error)
}

// digestCases is each bed × Combined and GradientGenerate × Init ×
// Clamp.
func digestCases() []digestCase {
	var cases []digestCase
	for _, bed := range digestBeds() {
		inShape := []int{bed.pool.C, bed.pool.H, bed.pool.W}
		for _, method := range []string{"combined", "gradient"} {
			for _, init := range []InitMode{ZeroInit, GaussianInit} {
				for _, clamp := range []bool{true, false} {
					opts := DefaultOptions(17)
					opts.Coverage = bed.cov
					opts.Seed = 5
					opts.Init = init
					opts.Clamp = clamp
					run := func(workers, batch int) (*Result, error) {
						o := opts
						o.Parallelism, o.Batch = workers, batch
						if method == "gradient" {
							return GradientGenerate(bed.net, inShape, bed.pool.Classes, o)
						}
						return Combined(bed.net, bed.pool, o)
					}
					name := fmt.Sprintf("%s/%s/init=%d/clamp=%t", bed.name, method, init, clamp)
					cases = append(cases, digestCase{name, run})
				}
			}
		}
	}
	return cases
}

// readDigests parses the stored name → digest lines.
func readDigests(t *testing.T) map[string]string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", digestFile))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		name, sum, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("malformed digest line %q", line)
		}
		want[name] = sum
	}
	return want
}

// TestResultsMatchStoredDigests pins the generators against results
// recorded from the earlier step loop, not only against themselves:
// every configuration of digestCases must hash to its stored digest at
// both digestCells. A fixed point that was detected too early, or an
// activation set reused for an input that is not a bit-for-bit repeat,
// changes a digest. So that the grid pins synthesis arithmetic that
// Combined keeps, some Combined configuration's digest must differ
// between Clamp on and off.
func TestResultsMatchStoredDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// Go compiles x*y+z to one fused rounding on arm64, ppc64le,
		// s390x and riscv64, never on amd64, so the stored bits are
		// amd64's.
		t.Skipf("digests were recorded on amd64; on %s fused multiply-adds may change the bits (arm64 fuses them)", runtime.GOARCH)
	}
	want := readDigests(t)
	cases := digestCases()
	if len(want) != len(cases) {
		t.Fatalf("%d stored digests, %d cases", len(want), len(cases))
	}
	clampMatters := false
	for _, c := range cases {
		if strings.Contains(c.name, "/combined/") && strings.HasSuffix(c.name, "clamp=true") {
			off := strings.TrimSuffix(c.name, "true") + "false"
			clampMatters = clampMatters || want[c.name] != want[off]
		}
		for _, cell := range digestCells {
			res, err := c.run(cell.workers, cell.batch)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			if got := resultDigest(res); got != want[c.name] {
				t.Errorf("%s workers=%d batch=%d: digest %s, stored %s", c.name, cell.workers, cell.batch, got, want[c.name])
			}
		}
	}
	if !clampMatters {
		t.Error("every stored Combined digest is the same with Clamp on and off, so none pins a probe's synthesis arithmetic")
	}
}
