package validate

import (
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// Protocol-v3 tests: float32 frames, the f32 serving fleet, the
// Tolerance replay semantics, and the v2↔v3 handshake matrix. The
// matrix requirement: every cross-version pairing either negotiates a
// working session or fails with a descriptive error — never a gob
// decode failure mid-stream.

// startServerF32 serves the golden network with a float32 fleet.
func startServerF32(t *testing.T) (*Server, string) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := ServeWith(l, goldenNet(), ServerOptions{Workers: 2, Wire: WireF32})
	t.Cleanup(func() { srv.Close() })
	return srv, srv.Addr()
}

// f32Tolerance comfortably bounds float32 rounding through the golden
// network's three layers without admitting real faults (the smallest
// attack perturbations move outputs by orders of magnitude more).
const f32Tolerance = 1e-4

// TestV3ReplayWithinTolerance: the acceptance path — float32 replay
// over loopback TCP passes a reference suite under the configured
// tolerance, at single-query, batched and concurrent settings.
func TestV3ReplayWithinTolerance(t *testing.T) {
	_, addr := startServerF32(t)
	suite := goldenSuite(t, 8, ExactOutputs)
	ip, err := DialWith(addr, DialOptions{Wire: WireF32})
	if err != nil {
		t.Fatal(err)
	}
	defer ip.Close()

	for _, opts := range []ValidateOptions{
		{Tolerance: f32Tolerance},
		{Tolerance: f32Tolerance, Batch: 3},
		{Tolerance: f32Tolerance, Batch: 2, Concurrency: 3},
	} {
		rep, err := suite.ValidateWith(ip, opts)
		if err != nil {
			t.Fatalf("f32 replay with %+v: %v", opts, err)
		}
		if !rep.Passed || rep.Total != suite.Len() {
			t.Fatalf("f32 replay with %+v: %+v", opts, rep)
		}
	}
	if det, err := suite.DetectsWith(ip, ValidateOptions{Tolerance: f32Tolerance, Batch: 4}); err != nil || det {
		t.Fatalf("DetectsWith on an intact f32 IP = (%v, %v), want (false, nil)", det, err)
	}
}

// TestV3ReplayFailsBitExact: the same f32 replay without a tolerance
// must fail — float32 outputs cannot match float64 references bitwise,
// and silently passing would mean the comparison ran at the wrong
// precision.
func TestV3ReplayFailsBitExact(t *testing.T) {
	_, addr := startServerF32(t)
	suite := goldenSuite(t, 6, ExactOutputs)
	ip, err := DialWith(addr, DialOptions{Wire: WireF32})
	if err != nil {
		t.Fatal(err)
	}
	defer ip.Close()
	rep, err := suite.ValidateWith(ip, ValidateOptions{Batch: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Passed {
		t.Fatal("bit-exact replay of float32 outputs passed; tolerance must be an explicit choice")
	}
}

// TestV3OutputsCloseToF64: v3 outputs must agree with the local float64
// reference within float32 rounding, both on an f32 fleet and on a
// float64 server that only speaks float32 frames.
func TestV3OutputsCloseToF64(t *testing.T) {
	for _, f32Fleet := range []bool{true, false} {
		var addr string
		if f32Fleet {
			_, addr = startServerF32(t)
		} else {
			_, addr = startServer(t) // float64 evaluation, float32 frames only
		}
		ip, err := DialWith(addr, DialOptions{Wire: WireF32})
		if err != nil {
			t.Fatalf("fleet=%v: %v", f32Fleet, err)
		}
		xs := testInputs(5, 71)
		local := LocalIP{Net: goldenNet()}
		got, err := ip.QueryBatch(xs)
		if err != nil {
			ip.Close()
			t.Fatalf("fleet=%v: %v", f32Fleet, err)
		}
		for i, x := range xs {
			want, err := local.Query(x)
			if err != nil {
				t.Fatal(err)
			}
			for j := range want.Data() {
				if d := math.Abs(got[i].Data()[j] - want.Data()[j]); d > f32Tolerance {
					t.Fatalf("fleet=%v: output %d logit %d off by %g", f32Fleet, i, j, d)
				}
			}
		}
		ip.Close()
	}
}

// TestV2ClientAgainstV3Server: an old v2 client (simulated with raw v2
// frames) must negotiate a v2 session against the new server and get
// float64 answers — v2 peers keep working unchanged.
func TestV2ClientAgainstV3Server(t *testing.T) {
	_, addr := startServerF32(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))

	if _, err := conn.Write(preambleV(protocolV2)); err != nil {
		t.Fatal(err)
	}
	var hello [5]byte
	if _, err := io.ReadFull(conn, hello[:]); err != nil {
		t.Fatalf("no handshake reply to a v2 hello: %v", err)
	}
	if hello[4] != protocolV2 {
		t.Fatalf("server negotiated v%d with a v2 client, want v2", hello[4])
	}

	x := testInputs(1, 61)[0]
	if err := gob.NewEncoder(conn).Encode(requestV2{ID: 1, Inputs: []wireTensor{toWire(x)}}); err != nil {
		t.Fatal(err)
	}
	var resp responseV2
	if err := gob.NewDecoder(conn).Decode(&resp); err != nil {
		t.Fatalf("v2 session against the v3 server broke mid-stream: %v", err)
	}
	if resp.Err != "" || len(resp.Outputs) != 1 {
		t.Fatalf("v2 response = %+v", resp)
	}
	want, _ := LocalIP{Net: goldenNet()}.Query(x)
	got, err := fromWire(resp.Outputs[0])
	if err != nil {
		t.Fatal(err)
	}
	for j := range want.Data() {
		if got.Data()[j] != want.Data()[j] {
			t.Fatal("v2 session on a v3 server lost float64 bit-exactness")
		}
	}
}

// TestF32ClientAgainstV2Server: a client requesting float32 frames from
// a server that only speaks v2 (simulated) must fail the dial with a
// descriptive version error, not a decode failure.
func TestF32ClientAgainstV2Server(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		var buf [5]byte
		io.ReadFull(conn, buf[:])
		// A v2-era server echoes its own version and, seeing an unknown
		// client version, ends the connection.
		conn.Write(preambleV(protocolV2))
	}()
	_, err = DialWith(l.Addr().String(), DialOptions{Wire: WireF32})
	if err == nil {
		t.Fatal("F32 dial to a v2-only server succeeded")
	}
	if !strings.Contains(err.Error(), "float32 frames need v3") {
		t.Fatalf("F32-vs-v2 dial error = %v, want a float32/v3 explanation", err)
	}
}

// TestV1ClientAgainstV3Server: the pre-handshake v1 dialect still gets
// its descriptive v1-shaped error from the new server.
func TestV1ClientAgainstV3Server(t *testing.T) {
	_, addr := startServerF32(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	x := testInputs(1, 41)[0]
	if err := gob.NewEncoder(conn).Encode(queryRequest{Input: toWire(x)}); err != nil {
		t.Fatal(err)
	}
	var resp queryResponse
	if err := gob.NewDecoder(conn).Decode(&resp); err != nil {
		t.Fatalf("v1 client could not decode the v3 server's reply: %v", err)
	}
	if !strings.Contains(resp.Err, "protocol version mismatch") {
		t.Fatalf("v1 client error = %q, want a version mismatch explanation", resp.Err)
	}
}

// TestFutureClientAgainstV3Server: a client advertising a future
// version lands on a v3 session when v3 is the server's ceiling — the
// server negotiates down instead of hanging up. (The ceiling comes
// from ServerOptions.MaxVersion, which is exactly how a pre-v4 build
// behaves; the v4-capable default is covered by the handshake matrix.)
func TestFutureClientAgainstV3Server(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := ServeWith(l, goldenNet(), ServerOptions{Workers: 2, Wire: WireF32, MaxVersion: protocolV3})
	t.Cleanup(func() { srv.Close() })
	addr := srv.Addr()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Write(preambleV(9)); err != nil {
		t.Fatal(err)
	}
	var hello [5]byte
	if _, err := io.ReadFull(conn, hello[:]); err != nil {
		t.Fatalf("no handshake reply to a v9 hello: %v", err)
	}
	if hello[4] != protocolV3 {
		t.Fatalf("server negotiated v%d with a v9 client, want v%d", hello[4], protocolV3)
	}
	// The negotiated session really is v3: a v3 exchange round-trips.
	x := testInputs(1, 81)[0]
	if err := gob.NewEncoder(conn).Encode(requestV3{ID: 7, Inputs: []wireTensor32{toWire32(x)}}); err != nil {
		t.Fatal(err)
	}
	var resp responseV3
	if err := gob.NewDecoder(conn).Decode(&resp); err != nil {
		t.Fatalf("negotiated v3 session broke: %v", err)
	}
	if resp.ID != 7 || resp.Err != "" || len(resp.Outputs) != 1 {
		t.Fatalf("v3 response = %+v", resp)
	}
}

// TestV3SyncParamsRequantisesFleet: a hot model update on an -f32
// server must re-quantise the float32 fleet — later v3 queries see the
// new parameters.
func TestV3SyncParamsRequantisesFleet(t *testing.T) {
	srv, addr := startServerF32(t)
	ip, err := DialWith(addr, DialOptions{Wire: WireF32})
	if err != nil {
		t.Fatal(err)
	}
	defer ip.Close()
	x := testInputs(1, 17)
	before, err := ip.QueryBatch(x)
	if err != nil {
		t.Fatal(err)
	}

	updated := goldenNet().Clone()
	updated.SetParamAt(0, updated.ParamAt(0)+5)
	srv.SyncParamsFrom(updated)

	after, err := ip.QueryBatch(x)
	if err != nil {
		t.Fatal(err)
	}
	want := nn.Freeze[float32](updated).Forward(x[0].F32()).F64()
	same := true
	for j := range before[0].Data() {
		if after[0].Data()[j] != before[0].Data()[j] {
			same = false
		}
	}
	if same {
		t.Fatal("f32 fleet served stale parameters after SyncParamsFrom")
	}
	for j := range want.Data() {
		if after[0].Data()[j] != want.Data()[j] {
			t.Fatalf("f32 fleet logit %d = %v, want requantised %v", j, after[0].Data()[j], want.Data()[j])
		}
	}
}

// TestServerSyncUnderConcurrentQueries: goroutines query an -f32
// server's float64 (v2) and float32 (v3) sessions while SyncParamsFrom
// swaps the parameters. Every answer carries, at its precision, the
// bits of the old parameters or of the new ones, never a mix; once the
// sync has returned, every answer carries the new ones. Under -race
// this is the hot-sync isolation test.
func TestServerSyncUnderConcurrentQueries(t *testing.T) {
	srv, addr := startServerF32(t)
	x := testInputs(1, 19)
	old, updated := goldenNet(), goldenNet().Clone()
	updated.SetParamAt(0, updated.ParamAt(0)+3)
	f32Out := func(net *nn.Network) *tensor.Tensor { return nn.Freeze[float32](net).Forward(x[0].F32()).F64() }
	sessions := []struct {
		name     string
		wire     Wire
		old, new *tensor.Tensor
	}{
		{"v2 float64", WireGob, old.Forward(x[0]), updated.Forward(x[0])},
		{"v3 float32", WireF32, f32Out(old), f32Out(updated)},
	}
	same := func(got, want *tensor.Tensor) bool {
		for j, w := range want.Data() {
			if math.Float64bits(got.Data()[j]) != math.Float64bits(w) {
				return false
			}
		}
		return true
	}
	query := func(wire Wire) (*tensor.Tensor, error) {
		ip, err := DialWith(addr, DialOptions{Wire: wire})
		if err != nil {
			return nil, err
		}
		defer ip.Close()
		return ip.Query(x[0])
	}

	const queriers, queries = 2, 30
	var wg, warm sync.WaitGroup
	errs := make(chan error, len(sessions)*queriers)
	for _, s := range sessions {
		for g := 0; g < queriers; g++ {
			ip, err := DialWith(addr, DialOptions{Wire: s.wire})
			if err != nil {
				t.Fatal(err)
			}
			defer ip.Close()
			wg.Add(1)
			warm.Add(1)
			go func() {
				defer wg.Done()
				for q := 0; q < queries; q++ {
					if q == 5 {
						warm.Done()
					}
					got, err := ip.QueryBatch(x)
					if err == nil && !same(got[0], s.old) && !same(got[0], s.new) {
						err = fmt.Errorf("%s query %d served neither the old nor the new parameters", s.name, q)
					}
					if err != nil {
						errs <- err
						if q < 5 {
							warm.Done()
						}
						return
					}
				}
			}()
		}
	}
	warm.Wait()
	srv.SyncParamsFrom(updated)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for _, s := range sessions {
		got, err := query(s.wire)
		if err != nil {
			t.Fatal(err)
		}
		if !same(got, s.new) {
			t.Fatalf("%s session served stale parameters after SyncParamsFrom", s.name)
		}
	}
}

// TestPooledF32IPMatchesRemote: the in-process float32 SnapshotIP is
// the same computation as a v3 session on an -f32 server — identical
// float32 kernel sequence, so identical widened outputs.
func TestPooledF32IPMatchesRemote(t *testing.T) {
	_, addr := startServerF32(t)
	remote, err := DialWith(addr, DialOptions{Wire: WireF32})
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	local := NewSnapshotIP(goldenNet(), true)

	xs := testInputs(4, 23)
	got, err := remote.QueryBatch(xs)
	if err != nil {
		t.Fatal(err)
	}
	want, err := local.QueryBatch(xs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		for j := range want[i].Data() {
			if got[i].Data()[j] != want[i].Data()[j] {
				t.Fatalf("remote f32 output %d differs from local f32 at %d", i, j)
			}
		}
	}

	suite := goldenSuite(t, 5, ExactOutputs)
	rep, err := suite.ValidateWith(local, ValidateOptions{Tolerance: f32Tolerance, Batch: 2, Concurrency: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Passed {
		t.Fatalf("local f32 replay under tolerance failed: %+v", rep)
	}
}

// TestToleranceSemantics: Tolerance must accept within-epsilon
// deviations and still flag real faults, in both value modes.
func TestToleranceSemantics(t *testing.T) {
	suite := goldenSuite(t, 4, ExactOutputs)
	// An IP whose outputs are nudged by less than the tolerance.
	nudged := nudgedIP{base: LocalIP{Net: goldenNet()}, delta: 1e-6}
	rep, err := suite.ValidateWith(nudged, ValidateOptions{Tolerance: 1e-5})
	if err != nil || !rep.Passed {
		t.Fatalf("within-tolerance nudge: rep=%+v err=%v", rep, err)
	}
	rep, err = suite.ValidateWith(nudgedIP{base: nudged.base, delta: 1e-3}, ValidateOptions{Tolerance: 1e-5})
	if err != nil || rep.Passed {
		t.Fatalf("beyond-tolerance nudge passed: rep=%+v err=%v", rep, err)
	}

	// QuantizedOutputs: a nudge across a rounding boundary is accepted
	// when within tolerance, and the exact quantised path is untouched
	// when Tolerance is zero.
	qsuite := goldenSuite(t, 4, QuantizedOutputs)
	qsuite.Decimals = 8 // fine enough that a 1e-6 nudge crosses boundaries
	rep, err = qsuite.ValidateWith(nudged, ValidateOptions{Tolerance: 1e-5})
	if err != nil || !rep.Passed {
		t.Fatalf("quantized within-tolerance nudge: rep=%+v err=%v", rep, err)
	}
	rep, err = qsuite.ValidateWith(nudged, ValidateOptions{})
	if err != nil || rep.Passed {
		t.Fatalf("quantized zero-tolerance nudge passed: rep=%+v err=%v", rep, err)
	}
}

// nudgedIP shifts every output value by a constant delta.
type nudgedIP struct {
	base  LocalIP
	delta float64
}

func (ip nudgedIP) Query(x *tensor.Tensor) (*tensor.Tensor, error) {
	out, err := ip.base.Query(x)
	if err != nil {
		return nil, err
	}
	for i := range out.Data() {
		out.Data()[i] += ip.delta
	}
	return out, nil
}

// TestV3F32FleetSpecialValuesBitExact: the float32 fleet converts at
// the evaluator boundary — a v3 frame is widened by the codec, narrowed
// back for the float32 kernels, and the outputs widened again — which
// must lose nothing. A v3 session against a float32-fleet server, with
// coalescing on and off, answers NaN, ±Inf, −0 and subnormal float32
// inputs bit for bit as nn.Freeze[float32] does locally: on
// the golden network, and on a pass-through network whose outputs are
// its inputs, so every special value must come back with its own bits.
func TestV3F32FleetSpecialValuesBitExact(t *testing.T) {
	specials := []float32{
		float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)),
		float32(math.Copysign(0, -1)),
		math.Float32frombits(1),          // smallest subnormal
		math.Float32frombits(0x007fffff), // largest subnormal
		-math.Float32frombits(0x00012345),
	}
	var xs []*tensor.Tensor
	for i, v := range specials {
		// One input seeded with the value at a few pixels, one made of
		// it entirely: finite neighbours and a whole-frame flood both.
		x := testInputs(1, int64(70+i))[0]
		for j := i; j < x.Size(); j += 17 {
			x.Data()[j] = float64(v)
		}
		flood := tensor.New(x.Shape()...)
		for j := range flood.Data() {
			flood.Data()[j] = float64(v)
		}
		xs = append(xs, x, flood)
	}
	nets := []struct {
		name string
		net  func() *nn.Network
	}{
		{"golden", goldenNet},
		{"passthrough", func() *nn.Network { return nn.NewNetwork(nn.NewFlatten("flat")) }},
	}
	for _, tc := range nets {
		ref := nn.Freeze[float32](tc.net())
		want := make([]*tensor.T32, len(xs))
		for i, x := range xs {
			want[i] = ref.Forward(x.F32()).Clone()
		}
		check := func(name string, i int, got *tensor.Tensor) {
			t.Helper()
			if got.Size() != want[i].Size() {
				t.Fatalf("%s input %d: %d outputs, want %d", name, i, got.Size(), want[i].Size())
			}
			for j, w := range want[i].Data() {
				if g := got.Data()[j]; math.Float64bits(g) != math.Float64bits(float64(w)) {
					t.Fatalf("%s input %d output %d = %v (%#x), local float32 forward gives %v (%#x)",
						name, i, j, g, math.Float64bits(g), w, math.Float64bits(float64(w)))
				}
			}
		}
		for _, window := range []time.Duration{0, coalesceWindow} {
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			srv := ServeWith(l, tc.net(), ServerOptions{Workers: 2, Wire: WireF32, CoalesceWindow: window, CoalesceBatch: 4})
			ip, err := DialWith(srv.Addr(), DialOptions{Wire: WireF32})
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("%s coalesce=%v", tc.name, window)
			// Single queries, concurrent so a coalescing server batches them.
			var wg sync.WaitGroup
			outs := make([]*tensor.Tensor, len(xs))
			errs := make([]error, len(xs))
			for i, x := range xs {
				wg.Add(1)
				go func(i int, x *tensor.Tensor) {
					defer wg.Done()
					outs[i], errs[i] = ip.Query(x)
				}(i, x)
			}
			wg.Wait()
			for i := range xs {
				if errs[i] != nil {
					t.Fatalf("%s query %d: %v", name, i, errs[i])
				}
				check(name+" single", i, outs[i])
			}
			// And the whole set as one batched exchange.
			batch, err := ip.QueryBatch(xs)
			if err != nil {
				t.Fatalf("%s batch: %v", name, err)
			}
			for i, out := range batch {
				check(name+" batch", i, out)
			}
			ip.Close()
			srv.Close()
		}
	}
}
