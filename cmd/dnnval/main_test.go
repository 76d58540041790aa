package main

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/validate"
)

// buildCLI compiles dnnval once into a temp dir shared by the tests.
func buildCLI(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "dnnval")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("build dnnval: %v\n%s", err, out)
	}
	return bin
}

func run(t *testing.T, bin string, args ...string) (string, error) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	out, err := cmd.CombinedOutput()
	return string(out), err
}

func TestCLIWorkflow(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI workflow is slow")
	}
	bin := buildCLI(t)
	dir := t.TempDir()
	model := filepath.Join(dir, "model.gob")
	suite := filepath.Join(dir, "suite.bin")

	// train (tiny configuration to keep the test quick)
	out, err := run(t, bin, "train", "-arch", "cifar", "-size", "16", "-scale", "0.05",
		"-n", "120", "-epochs", "2", "-o", model)
	if err != nil {
		t.Fatalf("train: %v\n%s", err, out)
	}
	if _, err := os.Stat(model); err != nil {
		t.Fatalf("model not written: %v", err)
	}

	// info
	out, err = run(t, bin, "info", "-model", model)
	if err != nil {
		t.Fatalf("info: %v\n%s", err, out)
	}
	if !strings.Contains(out, "parameters:") || !strings.Contains(out, "conv1.W") {
		t.Fatalf("info output:\n%s", out)
	}

	// generate (sealed)
	out, err = run(t, bin, "generate", "-model", model, "-data", "objects", "-size", "16",
		"-n", "6", "-pool", "60", "-key", "k1", "-o", suite)
	if err != nil {
		t.Fatalf("generate: %v\n%s", err, out)
	}
	if !strings.Contains(out, "validation coverage") {
		t.Fatalf("generate output:\n%s", out)
	}

	// validate the pristine model — must pass (exit 0)
	out, err = run(t, bin, "validate", "-model", model, "-suite", suite, "-key", "k1")
	if err != nil {
		t.Fatalf("validate pristine: %v\n%s", err, out)
	}
	if !strings.Contains(out, "PASS") {
		t.Fatalf("validate output:\n%s", out)
	}

	// wrong key must fail
	if _, err = run(t, bin, "validate", "-model", model, "-suite", suite, "-key", "k2"); err == nil {
		t.Fatal("wrong key accepted")
	}

	// attack the stored model, then validation must fail (exit 1)
	attacked := filepath.Join(dir, "attacked.gob")
	out, err = run(t, bin, "attack", "-model", model, "-kind", "sba", "-magnitude", "5", "-o", attacked)
	if err != nil {
		t.Fatalf("attack: %v\n%s", err, out)
	}
	out, err = run(t, bin, "validate", "-model", attacked, "-suite", suite, "-key", "k1")
	if err == nil {
		t.Fatalf("attacked model passed validation:\n%s", out)
	}
	if !strings.Contains(out, "FAIL") {
		t.Fatalf("validate output after attack:\n%s", out)
	}
}

// freePorts reserves n consecutive-enough free TCP ports by probing a
// random base until n consecutive ports bind.
func freePorts(t *testing.T, n int) int {
	t.Helper()
	for attempt := 0; attempt < 50; attempt++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			continue
		}
		base := l.Addr().(*net.TCPAddr).Port
		l.Close()
		ok := true
		for i := 0; i < n; i++ {
			li, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", base+i))
			if err != nil {
				ok = false
				break
			}
			li.Close()
		}
		if ok {
			return base
		}
	}
	t.Fatal("could not find consecutive free ports")
	return 0
}

// TestCLIServeValidate drives the serving stack end to end: train a
// tiny model, generate a sealed suite, serve the model as a 2-replica
// fleet, validate remotely with batched sharded replay, and shut the
// fleet down gracefully with SIGTERM.
func TestCLIServeValidate(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI workflow is slow")
	}
	bin := buildCLI(t)
	dir := t.TempDir()
	model := filepath.Join(dir, "model.gob")
	suite := filepath.Join(dir, "suite.bin")

	if out, err := run(t, bin, "train", "-arch", "cifar", "-size", "16", "-scale", "0.05",
		"-n", "120", "-epochs", "2", "-o", model); err != nil {
		t.Fatalf("train: %v\n%s", err, out)
	}
	if out, err := run(t, bin, "generate", "-model", model, "-data", "objects", "-size", "16",
		"-n", "6", "-pool", "60", "-key", "k1", "-o", suite); err != nil {
		t.Fatalf("generate: %v\n%s", err, out)
	}

	// Port reservation is probe-then-close, so another process can grab
	// a port between the probe and serve's bind (TOCTOU); retry the
	// whole serve startup on fresh ports when that happens.
	var serve *exec.Cmd
	var base int
	started := false
	for attempt := 0; attempt < 5 && !started; attempt++ {
		base = freePorts(t, 2)
		serve = exec.Command(bin, "serve", "-model", model, "-f32",
			"-addr", fmt.Sprintf("127.0.0.1:%d", base), "-replicas", "2", "-workers", "2")
		stderr, err := serve.StderrPipe()
		if err != nil {
			t.Fatal(err)
		}
		if err := serve.Start(); err != nil {
			t.Fatal(err)
		}
		// Wait for both replicas to come up (the server logs each); a
		// lost port race shows up as early exit with a bind error.
		up := make(chan bool, 1)
		go func() {
			sc := bufio.NewScanner(stderr)
			for sc.Scan() {
				if strings.Contains(sc.Text(), "replica 2/2") {
					up <- true
					return
				}
				if strings.Contains(sc.Text(), "address already in use") {
					up <- false
					return
				}
			}
			up <- false
		}()
		select {
		case ok := <-up:
			if ok {
				started = true
			} else {
				serve.Process.Kill()
				serve.Wait()
			}
		case <-time.After(30 * time.Second):
			t.Fatal("serve fleet did not come up")
		}
	}
	if !started {
		t.Fatal("serve fleet lost the port race on every attempt")
	}
	defer serve.Process.Kill()

	addrs := fmt.Sprintf("127.0.0.1:%d,127.0.0.1:%d", base, base+1)
	out, err := run(t, bin, "validate", "-addr", addrs, "-suite", suite, "-key", "k1",
		"-batch", "4", "-workers", "2")
	if err != nil {
		t.Fatalf("remote sharded validate: %v\n%s", err, out)
	}
	if !strings.Contains(out, "PASS") {
		t.Fatalf("remote validate output:\n%s", out)
	}

	// The same fleet serves the float32 path to -f32 clients: protocol
	// v3 float32 frames, accepted under an explicit tolerance.
	out, err = run(t, bin, "validate", "-addr", addrs, "-suite", suite, "-key", "k1",
		"-f32", "-tol", "1e-4", "-batch", "4", "-workers", "2")
	if err != nil {
		t.Fatalf("remote f32 validate: %v\n%s", err, out)
	}
	if !strings.Contains(out, "PASS") {
		t.Fatalf("remote f32 validate output:\n%s", out)
	}

	// -f32 without -tol is a user error with a helpful message, not a
	// silently failing replay.
	out, err = run(t, bin, "validate", "-addr", addrs, "-suite", suite, "-key", "k1", "-f32")
	if err == nil || !strings.Contains(out, "-tol") {
		t.Fatalf("f32 without tol: err=%v out:\n%s", err, out)
	}

	// A quantized-mode suite replays over the v4 quantised wire with
	// verdicts identical to local QuantizedOutputs validation.
	qsuite := filepath.Join(dir, "qsuite.bin")
	if out, err := run(t, bin, "generate", "-model", model, "-data", "objects", "-size", "16",
		"-n", "6", "-pool", "60", "-mode", "quantized", "-decimals", "5", "-key", "k1", "-o", qsuite); err != nil {
		t.Fatalf("generate quantized: %v\n%s", err, out)
	}
	out, err = run(t, bin, "validate", "-addr", addrs, "-suite", qsuite, "-key", "k1",
		"-wire", "quant", "-batch", "4", "-workers", "2")
	if err != nil {
		t.Fatalf("remote quant-wire validate: %v\n%s", err, out)
	}
	if !strings.Contains(out, "PASS") {
		t.Fatalf("remote quant-wire validate output:\n%s", out)
	}

	// The quantised dialect also rides the float32 fleet this serve
	// hosts (-wire quant -f32: v4 frames, float32 evaluation). Whether
	// float32 rounding survives the suite's quantisation depends on the
	// model, so the guaranteed property is verdict identity with the
	// local float32 quantised replay, not PASS.
	localOut, localErr := run(t, bin, "validate", "-model", model, "-suite", qsuite, "-key", "k1",
		"-f32", "-batch", "4")
	remoteOut, remoteErr := run(t, bin, "validate", "-addr", addrs, "-suite", qsuite, "-key", "k1",
		"-wire", "quant", "-f32", "-batch", "4")
	if (localErr == nil) != (remoteErr == nil) ||
		strings.Contains(localOut, "PASS") != strings.Contains(remoteOut, "PASS") {
		t.Fatalf("quant-wire f32 verdict differs from local f32 replay:\nlocal (%v):\n%s\nremote (%v):\n%s",
			localErr, localOut, remoteErr, remoteOut)
	}

	// -wire quant needs a quantized-mode suite — an exact suite is a
	// user error with a helpful message.
	out, err = run(t, bin, "validate", "-addr", addrs, "-suite", suite, "-key", "k1", "-wire", "quant")
	if err == nil || !strings.Contains(out, "quantized") {
		t.Fatalf("quant wire with exact suite: err=%v out:\n%s", err, out)
	}

	// Local float32 replay takes the same flags without a server.
	out, err = run(t, bin, "validate", "-model", model, "-suite", suite, "-key", "k1",
		"-f32", "-tol", "1e-4", "-workers", "2", "-batch", "4")
	if err != nil {
		t.Fatalf("local f32 validate: %v\n%s", err, out)
	}
	if !strings.Contains(out, "PASS") {
		t.Fatalf("local f32 validate output:\n%s", out)
	}

	// Graceful shutdown: SIGTERM must drain and exit cleanly.
	if err := serve.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- serve.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve exited uncleanly after SIGTERM: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("serve did not exit after SIGTERM")
	}
}

// TestCLIAttackCampaign drives the detection-rate campaign end to end:
// table on stdout, JSON artifact, baseline emission and the regression
// gate, with worker-count independence of the whole pipeline.
func TestCLIAttackCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI workflow is slow")
	}
	bin := buildCLI(t)
	dir := t.TempDir()
	model := filepath.Join(dir, "model.gob")
	if out, err := run(t, bin, "train", "-arch", "cifar", "-size", "16", "-scale", "0.05",
		"-n", "120", "-epochs", "2", "-o", model); err != nil {
		t.Fatalf("train: %v\n%s", err, out)
	}

	jsonPath := filepath.Join(dir, "campaign.json")
	basePath := filepath.Join(dir, "baseline.txt")
	campaign := func(workers string, extra ...string) []string {
		args := []string{"attack", "-model", model, "-kind", "sba,subround",
			"-magnitude-grid", "0.5,2", "-mode", "exact,quantized", "-trials", "2",
			"-size", "16", "-pool", "30", "-suite-n", "6", "-workers", workers}
		return append(args, extra...)
	}
	out1, err := run(t, bin, campaign("1", "-json", jsonPath, "-emit-baseline", basePath)...)
	if err != nil {
		t.Fatalf("campaign: %v\n%s", err, out1)
	}
	for _, want := range []string{"sba m=0.5", "subround m=2", "exact", "quantized"} {
		if !strings.Contains(out1, want) {
			t.Fatalf("campaign table missing %q:\n%s", want, out1)
		}
	}
	raw, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatalf("campaign JSON not written: %v", err)
	}
	for _, want := range []string{`"kind": "sba"`, `"mode": "quantized"`, `"cells"`} {
		if !strings.Contains(string(raw), want) {
			t.Fatalf("campaign JSON missing %q:\n%s", want, raw)
		}
	}

	// The sweep is a pure function of (seed, grid): more workers, same
	// table.
	out4, err := run(t, bin, campaign("4")...)
	if err != nil {
		t.Fatalf("campaign workers=4: %v\n%s", err, out4)
	}
	if out1 != out4 {
		t.Fatalf("campaign table differs between 1 and 4 workers:\n%s\nvs\n%s", out1, out4)
	}

	// A precision the quantised comparison cannot represent is an
	// error naming the flag, not a table of forfeits.
	out, err := run(t, bin, campaign("0", "-decimals", "20")...)
	if err == nil || !strings.Contains(out, "-decimals 20 out of range") {
		t.Fatalf("campaign with -decimals 20: err %v\n%s", err, out)
	}

	// The gate passes against the campaign's own floors...
	out, err = run(t, bin, campaign("0", "-gate", basePath)...)
	if err != nil {
		t.Fatalf("gate against own floors: %v\n%s", err, out)
	}
	if !strings.Contains(out, "detection gate passed") {
		t.Fatalf("gate output:\n%s", out)
	}
	// ...and fails when a floor is raised above any achievable rate.
	baseline, err := os.ReadFile(basePath)
	if err != nil {
		t.Fatal(err)
	}
	raisedPath := filepath.Join(dir, "raised.txt")
	if err := os.WriteFile(raisedPath, append(baseline, []byte("sba exact 0.5 100.1\n")...), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err = run(t, bin, campaign("0", "-gate", raisedPath)...)
	if err == nil {
		t.Fatalf("raised floor accepted:\n%s", out)
	}
	if !strings.Contains(out, "below floor") {
		t.Fatalf("gate failure output:\n%s", out)
	}
}

// TestCLIShapeMismatchIsAnError: a model run on data or on a suite of
// another input shape exits non-zero with one line naming the flag to
// change, not with a panic.
func TestCLIShapeMismatchIsAnError(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI workflow is slow")
	}
	bin := buildCLI(t)
	dir := t.TempDir()
	tanh, relu := filepath.Join(dir, "tanh.gob"), filepath.Join(dir, "relu.gob")
	tanhSuite := filepath.Join(dir, "tanh.suite")
	for _, args := range [][]string{
		{"train", "-arch", "mnist", "-size", "16", "-scale", "0.25", "-n", "40", "-epochs", "1", "-seed", "1", "-o", tanh},
		{"train", "-arch", "cifar", "-size", "16", "-scale", "0.25", "-n", "40", "-epochs", "1", "-seed", "2", "-o", relu},
		{"generate", "-model", tanh, "-data", "digits", "-size", "16", "-n", "4", "-pool", "20", "-key", "k1", "-o", tanhSuite},
	} {
		if out, err := run(t, bin, args...); err != nil {
			t.Fatalf("%s: %v\n%s", args[0], err, out)
		}
	}
	for _, c := range []struct {
		args []string
		flag string
	}{
		// The default -data objects -size 20 does not fit the 16×16 digits model.
		{[]string{"generate", "-model", tanh, "-method", "combined", "-n", "12", "-seed", "1", "-key", "k1", "-o", filepath.Join(dir, "x.suite")}, "-data objects -size 20"},
		{[]string{"validate", "-model", relu, "-suite", tanhSuite, "-key", "k1"}, "-suite " + tanhSuite},
	} {
		out, err := run(t, bin, c.args...)
		if err == nil {
			t.Fatalf("%s on mismatched shapes succeeded:\n%s", c.args[0], out)
		}
		if strings.Contains(out, "panic:") || strings.Contains(out, "goroutine") {
			t.Fatalf("%s on mismatched shapes panicked:\n%s", c.args[0], out)
		}
		if lines := strings.Split(strings.TrimSpace(out), "\n"); len(lines) != 1 || !strings.Contains(out, c.flag) {
			t.Fatalf("%s on mismatched shapes: want one line naming %q, got:\n%s", c.args[0], c.flag, out)
		}
	}
}

func TestCLIUnknownSubcommand(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI workflow is slow")
	}
	bin := buildCLI(t)
	if _, err := run(t, bin, "bogus"); err == nil {
		t.Fatal("unknown subcommand accepted")
	}
	if _, err := run(t, bin); err == nil {
		t.Fatal("missing subcommand accepted")
	}
}

// TestParseDialect: -f32 alone must ask for the v3 float32 frames
// (validate.DialOptions has no other spelling for them), -wire f32
// implies -f32, and -wire gob contradicts it.
func TestParseDialect(t *testing.T) {
	cases := []struct {
		wire         string
		f32, wantF32 bool
		want         validate.Wire
		fails        bool
	}{
		{wire: "", want: validate.WireAuto},
		{wire: "", f32: true, wantF32: true, want: validate.WireF32},
		{wire: "f32", wantF32: true, want: validate.WireF32},
		{wire: "gob", want: validate.WireGob},
		{wire: "gob", f32: true, fails: true},
		{wire: "quant", f32: true, wantF32: true, want: validate.WireQuant},
		{wire: "bogus", fails: true},
	}
	for _, c := range cases {
		f32 := c.f32
		got, err := parseDialect(c.wire, &f32)
		if c.fails {
			if err == nil {
				t.Errorf("-wire %q -f32=%v: no error", c.wire, c.f32)
			}
			continue
		}
		if err != nil || got != c.want || f32 != c.wantF32 {
			t.Errorf("-wire %q -f32=%v = %v, -f32=%v, %v; want %v, -f32=%v", c.wire, c.f32, got, f32, err, c.want, c.wantF32)
		}
	}
}
