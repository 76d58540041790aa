package validate

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/attack"
)

// The ReplayConfig redesign must be invisible to the legacy entry
// points: Validate/ValidateWith/DetectsWith are now wrappers over one
// engine, and their verdicts must be bit-identical to the serial
// reference on both passing and failing IPs at every batch/worker
// combination.

func TestReplayWrappersBitIdentical(t *testing.T) {
	suite := goldenSuite(t, 10, ExactOutputs)
	net := goldenNet()

	check := func(t *testing.T, label string) {
		t.Helper()
		ip := NewSnapshotIP(net, false)
		want, err := suite.Validate(LocalIP{Net: net})
		if err != nil {
			t.Fatal(err)
		}
		wantDet, err := suite.Detects(LocalIP{Net: net})
		if err != nil {
			t.Fatal(err)
		}
		if wantDet != !want.Passed {
			t.Fatalf("%s: Detects=%v disagrees with Validate %v", label, wantDet, want)
		}
		for _, batch := range []int{0, 1, 3, 16} {
			for _, workers := range []int{0, 1, 3} {
				opts := ValidateOptions{Batch: batch, Concurrency: workers}
				got, err := suite.ValidateWith(ip, opts)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("%s: ValidateWith(batch=%d,workers=%d)=%+v, Validate=%+v", label, batch, workers, got, want)
				}
				rep, err := suite.Replay(ip, ReplayConfig{Batch: batch, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				if rep != want {
					t.Fatalf("%s: Replay(batch=%d,workers=%d)=%+v, Validate=%+v", label, batch, workers, rep, want)
				}
				det, err := suite.DetectsWith(ip, opts)
				if err != nil {
					t.Fatal(err)
				}
				if det != wantDet {
					t.Fatalf("%s: DetectsWith(batch=%d)=%v, Detects=%v", label, batch, det, wantDet)
				}
			}
		}
	}

	check(t, "clean")

	rng := rand.New(rand.NewSource(5))
	p, err := attack.SBA(net, 5, rng)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Revert(net)
	check(t, "attacked")
}

// EarlyExit's report must carry the same first-failure index the full
// scan finds, flag the run as failed with exactly one counted
// mismatch, and still report the full suite size as Total.
func TestReplayEarlyExitReport(t *testing.T) {
	suite := goldenSuite(t, 10, ExactOutputs)
	net := goldenNet()

	// A clean IP early-exits into the same all-pass report a full scan
	// produces. (Checked before the attack: goldenNet is shared.)
	rep, err := suite.Replay(LocalIP{Net: net}, ReplayConfig{EarlyExit: true})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Passed || rep.FirstFailure != -1 || rep.Total != suite.Len() {
		t.Fatalf("clean early-exit report = %+v", rep)
	}

	rng := rand.New(rand.NewSource(6))
	p, err := attack.SBA(net, 5, rng)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Revert(net)

	full, err := suite.Validate(LocalIP{Net: net})
	if err != nil {
		t.Fatal(err)
	}
	if full.Passed {
		t.Skip("attack not detected by this suite; nothing to early-exit on")
	}
	for _, batch := range []int{0, 2, 5} {
		rep, err := suite.Replay(NewSnapshotIP(net, false), ReplayConfig{Batch: batch, EarlyExit: true})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Passed || rep.Mismatches != 1 || rep.FirstFailure != full.FirstFailure || rep.Total != suite.Len() {
			t.Fatalf("early-exit report (batch=%d) = %+v, want fail at %d of %d", batch, rep, full.FirstFailure, suite.Len())
		}
	}
}

// WireQuant is a requirement, not a preference: a session or suite
// that cannot produce the quantised verdict must fail the replay with
// a descriptive error instead of silently downgrading the comparison.
func TestReplayWireQuantRequiresQuantPath(t *testing.T) {
	suite := goldenSuite(t, 4, ExactOutputs)
	_, err := suite.Replay(LocalIP{Net: goldenNet()}, ReplayConfig{Wire: WireQuant})
	if err == nil {
		t.Fatal("WireQuant over an exact-mode suite and plain IP did not error")
	}
	if !strings.Contains(err.Error(), "WireQuant") {
		t.Fatalf("error does not name the setting: %v", err)
	}
}

func TestSuiteSubset(t *testing.T) {
	suite := goldenSuite(t, 8, ExactOutputs)
	sub, err := suite.Subset([]int{6, 1, 3})
	if err != nil {
		t.Fatal(err)
	}
	if sub.Len() != 3 || sub.Mode != suite.Mode || sub.Decimals != suite.Decimals {
		t.Fatalf("subset shape wrong: len=%d mode=%v", sub.Len(), sub.Mode)
	}
	for i, src := range []int{6, 1, 3} {
		if sub.Inputs[i] != suite.Inputs[src] || sub.Outputs[i] != suite.Outputs[src] {
			t.Fatalf("subset index %d does not share suite test %d", i, src)
		}
	}
	rep, err := sub.Validate(LocalIP{Net: goldenNet()})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Passed || rep.Total != 3 {
		t.Fatalf("subset replay = %+v", rep)
	}
	if _, err := suite.Subset([]int{0, 8}); err == nil {
		t.Fatal("out-of-range subset index accepted")
	}
	if _, err := suite.Subset([]int{-1}); err == nil {
		t.Fatal("negative subset index accepted")
	}
}

func TestParseWireRoundTrip(t *testing.T) {
	for _, w := range []Wire{WireAuto, WireGob, WireF32, WireQuant} {
		got, err := ParseWire(w.String())
		if err != nil || got != w {
			t.Fatalf("ParseWire(%q) = %v, %v; want %v", w.String(), got, err, w)
		}
	}
	if w, err := ParseWire(""); err != nil || w != WireAuto {
		t.Fatalf("ParseWire(\"\") = %v, %v", w, err)
	}
	if _, err := ParseWire("morse"); err == nil {
		t.Fatal("ParseWire accepted an unknown dialect")
	}
}
