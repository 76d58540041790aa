package validate

import (
	"encoding/gob"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/nn"
	"repro/internal/quant"
)

// Protocol-v4 tests: quantised delta-encoded replay frames, the
// replay-frame cache, verdict identity with local QuantizedOutputs
// validation on both the float64 and float32 fleets, and the full
// v1–v4 client×server handshake matrix. The matrix requirement carries
// over from v3 and now spans four dialects: every pairing negotiates a
// working session or fails with a descriptive error — never a gob
// decode failure mid-stream, never a hang.

// startServerV4 serves the golden network at full capability (v4 with
// a float32 fleet).
func startServerV4(t *testing.T) (*Server, string) {
	t.Helper()
	return startServerMax(t, goldenNet(), protocolVersion)
}

// startServerMax serves network with its negotiation ceiling pinned to
// maxVersion — a genuine old-dialect server as far as any client can
// observe.
func startServerMax(t *testing.T, network *nn.Network, maxVersion byte) (*Server, string) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := ServeWith(l, network, ServerOptions{Workers: 2, Wire: WireF32, MaxVersion: maxVersion})
	t.Cleanup(func() { srv.Close() })
	return srv, srv.Addr()
}

// dialQuant dials a v4 session.
func dialQuant(t *testing.T, addr string, f32 bool) *RemoteIP {
	t.Helper()
	ip, err := DialWith(addr, DialOptions{Wire: WireQuant, F32: f32})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ip.Close() })
	return ip
}

// TestV4ReplayMatchesLocalQuantized: the headline property — a
// QuantizedOutputs suite replayed over a v4 session reports exactly
// what the local QuantizedOutputs validation reports, on an intact
// server and on an attacked one.
func TestV4ReplayMatchesLocalQuantized(t *testing.T) {
	suite := goldenSuite(t, 10, QuantizedOutputs)
	for _, target := range []*nn.Network{goldenNet(), perturbedNet(t)} {
		want, err := suite.Validate(LocalIP{Net: target})
		if err != nil {
			t.Fatal(err)
		}
		_, addr := startServerMax(t, target, protocolVersion)
		ip := dialQuant(t, addr, false)
		if !ip.QuantWire() {
			t.Fatal("v4 dial did not negotiate the quant dialect")
		}
		for _, opts := range []ValidateOptions{{}, {Batch: 4}, {Batch: 64}} {
			got, err := suite.ValidateWith(ip, opts)
			if err != nil {
				t.Fatalf("opts %+v: %v", opts, err)
			}
			if got != want {
				t.Fatalf("opts %+v: v4 report %+v, local report %+v", opts, got, want)
			}
		}
	}
}

// TestV4DetectsWithMatchesLocal: the early-exit detection scan over the
// quantised wire answers exactly what the local scan answers.
func TestV4DetectsWithMatchesLocal(t *testing.T) {
	suite := goldenSuite(t, 10, QuantizedOutputs)
	for _, target := range []*nn.Network{goldenNet(), perturbedNet(t)} {
		want, err := suite.Detects(LocalIP{Net: target})
		if err != nil {
			t.Fatal(err)
		}
		_, addr := startServerMax(t, target, protocolVersion)
		ip := dialQuant(t, addr, false)
		for _, batch := range []int{1, 3, 64} {
			got, err := suite.DetectsWith(ip, ValidateOptions{Batch: batch})
			if err != nil {
				t.Fatalf("batch %d: %v", batch, err)
			}
			if got != want {
				t.Fatalf("batch %d: DetectsWith over v4 = %v, local = %v", batch, got, want)
			}
		}
	}
}

// TestV4SubtleFaultVerdictIdentity: a perturbation small enough to flip
// only some quantised values must produce identical mismatch counts and
// first-failure index over the wire — the "no dequantise-then-round
// round trip" property observable from outside.
func TestV4SubtleFaultVerdictIdentity(t *testing.T) {
	suite := goldenSuite(t, 12, QuantizedOutputs)
	for _, decimals := range []int{1, 3, 6} {
		s := *suite
		s.Decimals = decimals
		target := goldenNet().Clone()
		target.SetParamAt(3, target.ParamAt(3)+2e-4) // sub-rounding at coarse precisions
		want, err := s.Validate(LocalIP{Net: target})
		if err != nil {
			t.Fatal(err)
		}
		_, addr := startServerMax(t, target, protocolVersion)
		ip := dialQuant(t, addr, false)
		got, err := s.ValidateWith(ip, ValidateOptions{Batch: 5})
		if err != nil {
			t.Fatalf("decimals %d: %v", decimals, err)
		}
		if got != want {
			t.Fatalf("decimals %d: v4 report %+v, local %+v", decimals, got, want)
		}
	}
}

// TestV4FrameCacheBackReferences: replaying the same suite on one
// connection re-sends no frame bodies — the second pass's request
// bytes must be a small fraction of the first's.
func TestV4FrameCacheBackReferences(t *testing.T) {
	suite := goldenSuite(t, 10, QuantizedOutputs)
	_, addr := startServerV4(t)
	ip := dialQuant(t, addr, false)

	before := ip.WireStats()
	if _, err := suite.ValidateWith(ip, ValidateOptions{Batch: 4}); err != nil {
		t.Fatal(err)
	}
	first := ip.WireStats().Sub(before)
	if _, err := suite.ValidateWith(ip, ValidateOptions{Batch: 4}); err != nil {
		t.Fatal(err)
	}
	second := ip.WireStats().Sub(first).Sub(before)
	if second.BytesWritten*10 > first.BytesWritten {
		t.Fatalf("second replay wrote %d bytes vs %d on the first — the frame cache is not back-referencing",
			second.BytesWritten, first.BytesWritten)
	}
}

// TestV4F32FleetMatchesLocalF32Quantized: a v4+F32 session evaluates on
// the float32 fleet; its verdicts must equal the local QuantizedOutputs
// replay of the float32 path at every precision tried (passing or not).
func TestV4F32FleetMatchesLocalF32Quantized(t *testing.T) {
	suite := goldenSuite(t, 10, QuantizedOutputs)
	for _, target := range []*nn.Network{goldenNet(), perturbedNet(t)} {
		for _, decimals := range []int{2, 6} {
			s := *suite
			s.Decimals = decimals
			want, err := s.ValidateWith(NewSnapshotIP(target, true), ValidateOptions{})
			if err != nil {
				t.Fatal(err)
			}
			_, addr := startServerMax(t, target, protocolVersion)
			ip := dialQuant(t, addr, true)
			got, err := s.ValidateWith(ip, ValidateOptions{Batch: 4})
			if err != nil {
				t.Fatalf("decimals %d: %v", decimals, err)
			}
			if got != want {
				t.Fatalf("decimals %d: v4-f32 report %+v, local f32 quantized report %+v", decimals, got, want)
			}
		}
	}
}

// TestV4QueryBatchDequantises: plain QueryBatch on a v4 session returns
// the fixed-point values dequantised at DialOptions.Decimals — each
// output equals the local output rounded to that precision.
func TestV4QueryBatchDequantises(t *testing.T) {
	_, addr := startServerV4(t)
	ip, err := DialWith(addr, DialOptions{Wire: WireQuant, Decimals: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer ip.Close()
	xs := testInputs(3, 91)
	scale, _ := quant.Scale(4)
	local := LocalIP{Net: goldenNet()}
	got, err := ip.QueryBatch(xs)
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range xs {
		want, err := local.Query(x)
		if err != nil {
			t.Fatal(err)
		}
		for j, v := range want.Data() {
			if q := quant.QuantizeValue(v, scale).Value(scale); got[i].Data()[j] != q {
				t.Fatalf("output %d value %d = %v, want dequantised %v", i, j, got[i].Data()[j], q)
			}
		}
	}
}

// TestV4QuantAgainstOldServers: requesting the quant dialect from a
// pre-v4 server fails at dial time with an error naming both versions
// and the way out.
func TestV4QuantAgainstOldServers(t *testing.T) {
	for _, maxV := range []byte{protocolV2, protocolV3} {
		_, addr := startServerMax(t, goldenNet(), maxV)
		_, err := DialWith(addr, DialOptions{Wire: WireQuant})
		if err == nil {
			t.Fatalf("quant dial against a v%d-max server succeeded", maxV)
		}
		if !strings.Contains(err.Error(), fmt.Sprintf("server speaks v%d", maxV)) ||
			!strings.Contains(err.Error(), "quantised frames need v4") {
			t.Fatalf("quant dial error against v%d = %v, want both versions named", maxV, err)
		}
	}
}

// TestQueryQuantOnPlainSession: QueryQuant on a v2 session is a
// QueryError that says how to get the dialect, not a protocol break.
func TestQueryQuantOnPlainSession(t *testing.T) {
	_, addr := startServerV4(t)
	ip, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer ip.Close()
	if ip.QuantWire() {
		t.Fatal("plain dial negotiated the quant dialect")
	}
	_, qerr := ip.QueryQuant(testInputs(1, 95), nil, 6)
	if qerr == nil || !strings.Contains(qerr.Error(), "Wire: WireQuant") {
		t.Fatalf("QueryQuant on a v2 session = %v, want a dial-options explanation", qerr)
	}
	// The session itself stays usable.
	if _, err := ip.Query(testInputs(1, 96)[0]); err != nil {
		t.Fatalf("v2 session broken after a rejected QueryQuant: %v", err)
	}
}

// TestV4BadDecimalsRejected: precisions outside the codec's domain are
// QueryErrors before any bytes move.
func TestV4BadDecimalsRejected(t *testing.T) {
	_, addr := startServerV4(t)
	ip := dialQuant(t, addr, false)
	for _, d := range []int{-1, quant.MaxDecimals + 1} {
		if _, err := ip.QueryQuant(testInputs(1, 97), nil, d); err == nil {
			t.Fatalf("decimals %d accepted", d)
		}
	}
}

// TestV4ReplayEquivalenceGrid: the batch × replicas × workers grid of
// the batched-replay equivalence tests, over v4 sessions against both
// the float64 and the float32 fleets. At every grid point the report
// must be identical to the corresponding local QuantizedOutputs replay.
func TestV4ReplayEquivalenceGrid(t *testing.T) {
	suite := goldenSuite(t, 10, QuantizedOutputs)
	target := perturbedNet(t)
	for _, f32 := range []bool{false, true} {
		// The local reference: QuantizedOutputs replay of the same
		// evaluation path the fleet serves.
		var refIP IP = LocalIP{Net: target}
		if f32 {
			refIP = NewSnapshotIP(target, true)
		}
		want, err := suite.ValidateWith(refIP, ValidateOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for _, replicas := range []int{1, 2} {
			addrs := make([]string, replicas)
			for i := range addrs {
				_, addrs[i] = startServerMax(t, target, protocolVersion)
			}
			var ip IP
			if replicas == 1 {
				ip = dialQuant(t, addrs[0], f32)
			} else {
				cluster, err := DialShards(addrs, DialOptions{Wire: WireQuant, F32: f32})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { cluster.Close() })
				if !cluster.QuantWire() {
					t.Fatal("sharded v4 fleet did not negotiate the quant dialect")
				}
				ip = cluster
			}
			for _, opts := range replayGrid {
				got, err := suite.ValidateWith(ip, opts)
				if err != nil {
					t.Fatalf("f32=%v replicas=%d opts %+v: %v", f32, replicas, opts, err)
				}
				if got != want {
					t.Fatalf("f32=%v replicas=%d opts %+v: report %+v, local %+v", f32, replicas, opts, got, want)
				}
			}
		}
	}
}

// --- The v1–v4 handshake matrix ---

// matrixServer stands up one server dialect: protocol v1 is emulated
// byte-exactly (bare gob, no preamble, single-query lockstep — what
// the historical server spoke), v2–v4 are the real Server with its
// negotiation ceiling pinned.
func matrixServer(t *testing.T, version byte) string {
	t.Helper()
	if version >= protocolV2 {
		_, addr := startServerMax(t, goldenNet(), version)
		return addr
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				dec, enc := gob.NewDecoder(conn), gob.NewEncoder(conn)
				for {
					var req queryRequest
					if err := dec.Decode(&req); err != nil {
						return // a preamble is not gob: hang up, as the v1 build would
					}
					x, err := fromWire(req.Input)
					if err != nil {
						enc.Encode(queryResponse{Err: err.Error()})
						continue
					}
					enc.Encode(queryResponse{Output: toWire(goldenNet().Forward(x).Clone())})
				}
			}()
		}
	}()
	return l.Addr().String()
}

// matrixDial runs one client dialect against addr and reports either a
// working session (verified with a real query round trip) or the error.
func matrixDial(t *testing.T, clientV byte, addr string, timeout time.Duration) error {
	t.Helper()
	x := testInputs(1, 99)[0]
	want := goldenNet().Forward(x)
	if clientV == 1 {
		// The v1 client: bare gob request, lockstep response.
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return err
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(timeout))
		if err := gob.NewEncoder(conn).Encode(queryRequest{Input: toWire(x)}); err != nil {
			return fmt.Errorf("send: %w", err)
		}
		var resp queryResponse
		if err := gob.NewDecoder(conn).Decode(&resp); err != nil {
			return fmt.Errorf("decode: %w", err)
		}
		if resp.Err != "" {
			return fmt.Errorf("%s", resp.Err)
		}
		got, err := fromWire(resp.Output)
		if err != nil {
			return err
		}
		for j := range want.Data() {
			if got.Data()[j] != want.Data()[j] {
				t.Fatalf("v1 session answered wrong at %d", j)
			}
		}
		return nil
	}
	if clientV == protocolV4 {
		// The historical v4 client, emulated at the raw-gob level: a v4
		// hello, full frame bodies, lockstep back-references — and no
		// understanding of NeedFrame. The server must keep speaking this
		// dialect bit-identically now that the build's own client hellos
		// v5.
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return err
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(timeout))
		if _, err := conn.Write(preambleV(protocolV4)); err != nil {
			return fmt.Errorf("send hello: %w", err)
		}
		var echo [5]byte
		if _, err := io.ReadFull(conn, echo[:]); err != nil {
			return fmt.Errorf("handshake: %w", err)
		}
		if echo[4] != protocolV4 {
			// What the historical build reported on a downgraded echo.
			return fmt.Errorf("validate: dial IP: protocol version mismatch: server speaks v%d but quantised frames need v%d", echo[4], protocolV4)
		}
		enc, dec := gob.NewEncoder(conn), gob.NewDecoder(conn)
		fr := &frameV4{Decimals: 3, Inputs: []wireBits{toWireBits(x)}}
		if err := enc.Encode(requestV4{ID: 1, Seq: 1, Frame: fr}); err != nil {
			return fmt.Errorf("send frame: %w", err)
		}
		for id := uint64(1); id <= 2; id++ {
			var resp responseV4
			if err := dec.Decode(&resp); err != nil {
				return fmt.Errorf("decode: %w", err)
			}
			if resp.Err != "" {
				return fmt.Errorf("%s", resp.Err)
			}
			if resp.NeedFrame {
				t.Fatalf("server answered NeedFrame on a v4 session (exchange %d)", id)
			}
			if len(resp.Outputs) != 1 {
				t.Fatalf("v4 exchange %d answered %d outputs, want 1", id, len(resp.Outputs))
			}
			if id == 1 {
				// Back-reference the frame: v4 lockstep caching must hold.
				if err := enc.Encode(requestV4{ID: 2, Seq: 1}); err != nil {
					return fmt.Errorf("send back-reference: %w", err)
				}
			}
		}
		return nil
	}
	opts := DialOptions{DialTimeout: timeout, ReadTimeout: timeout}
	switch clientV {
	case protocolV3:
		opts.Wire = WireF32
	case protocolV5:
		opts.Wire = WireQuant
	}
	ip, err := DialWith(addr, opts)
	if err != nil {
		return err
	}
	defer ip.Close()
	got, err := ip.Query(x)
	if err != nil {
		t.Fatalf("v%d session dialled but query failed: %v", clientV, err)
	}
	// Exactness differs by dialect: v2 is bit-exact, v3 float32-rounded,
	// v4 fixed-point at the dial precision — all must be recognisably
	// the local output.
	for j := range want.Data() {
		if d := got.Data()[j] - want.Data()[j]; d > 1e-4 || d < -1e-4 {
			t.Fatalf("v%d session output off by %v at %d", clientV, d, j)
		}
	}
	if clientV == protocolV5 {
		if !ip.QuantWire() {
			t.Fatalf("quant session did not report the quant dialect")
		}
		suite := goldenSuite(t, 4, QuantizedOutputs)
		rep, err := suite.ValidateWith(ip, ValidateOptions{Batch: 2})
		if err != nil {
			t.Fatalf("quant session replay: %v", err)
		}
		if !rep.Passed {
			t.Fatalf("quant session replay of the intact server failed: %+v", rep)
		}
	}
	return nil
}

// TestHandshakeMatrix: every v1–v5 client against every v1–v5 server.
// Each pairing must end in a working session at the expected negotiated
// dialect or a descriptive error naming the mismatch — never a hang, a
// gob panic, or a silent wrong answer. Client 4 is the historical v4
// build emulated at the raw-gob level (the build's own quant client now
// hellos v5); client 5 accepts a v4 echo as a per-connection downgrade,
// so both quant pairings against a v4-ceiling server work. CI runs this
// as its own named interop job so a protocol regression fails legibly.
func TestHandshakeMatrix(t *testing.T) {
	type expect struct {
		ok  bool
		msg string // required substring of the error when !ok
	}
	// expectations[client][server], versions 1–5.
	expectations := map[byte]map[byte]expect{
		1: {
			1: {ok: true},
			2: {msg: "protocol version mismatch"},
			3: {msg: "protocol version mismatch"},
			4: {msg: "protocol version mismatch"},
			5: {msg: "protocol version mismatch"},
		},
		2: {
			1: {msg: "handshake"}, // v1 server can't answer a preamble
			2: {ok: true},
			3: {ok: true},
			4: {ok: true},
			5: {ok: true},
		},
		3: {
			1: {msg: "handshake"},
			2: {msg: "float32 frames need v3"},
			3: {ok: true},
			4: {ok: true},
			5: {ok: true},
		},
		4: {
			1: {msg: "handshake"},
			2: {msg: "quantised frames need v4"},
			3: {msg: "quantised frames need v4"},
			4: {ok: true},
			5: {ok: true},
		},
		5: {
			1: {msg: "handshake"},
			2: {msg: "quantised frames need v4"},
			3: {msg: "quantised frames need v4"},
			4: {ok: true}, // downgrade: a v5 client on a v4 fleet speaks v4
			5: {ok: true},
		},
	}
	for serverV := byte(1); serverV <= protocolV5; serverV++ {
		addr := matrixServer(t, serverV)
		// The v1 stand-in never answers a hello, so every newer client
		// in its column fails only when its timeout expires.
		timeout := 10 * time.Second
		if serverV == 1 {
			timeout = time.Second
		}
		for clientV := byte(1); clientV <= protocolV5; clientV++ {
			t.Run(fmt.Sprintf("client_v%d/server_v%d", clientV, serverV), func(t *testing.T) {
				want := expectations[clientV][serverV]
				err := matrixDial(t, clientV, addr, timeout)
				if want.ok {
					if err != nil {
						t.Fatalf("expected a working session, got: %v", err)
					}
					return
				}
				if err == nil {
					t.Fatalf("expected a descriptive error containing %q, got a session", want.msg)
				}
				if !strings.Contains(err.Error(), want.msg) {
					t.Fatalf("error = %v, want it to mention %q", err, want.msg)
				}
			})
		}
	}
}

// TestV4SessionSurvivesServerDrain: Close with in-flight v4 traffic
// answers or fails cleanly, mirroring the v2 drain guarantee (the
// pendingQ map must be drained by fail()).
func TestV4SessionSurvivesServerDrain(t *testing.T) {
	srv, addr := startServerV4(t)
	ip := dialQuant(t, addr, false)
	suite := goldenSuite(t, 6, QuantizedOutputs)
	done := make(chan error, 1)
	go func() {
		for i := 0; i < 50; i++ {
			if _, err := suite.ValidateWith(ip, ValidateOptions{Batch: 3}); err != nil {
				done <- nil // transport failure during shutdown is the expected end
				return
			}
		}
		done <- nil
	}()
	time.Sleep(10 * time.Millisecond)
	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatalf("close during v4 traffic: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close blocked while draining v4 requests")
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("v4 client hung across server drain")
	}
}

// TestFrameCacheV4DuplicateSeq: a hostile client may re-send a Seq the
// lockstep registry would never re-use; the server cache must absorb
// the duplicate without corrupting its eviction order (a duplicate
// order entry used to dereference the already-evicted map slot and
// panic the serving process once the byte cap forced a second pop).
func TestFrameCacheV4DuplicateSeq(t *testing.T) {
	c := newFrameCacheV4(0, 0)
	big := v4CacheBytes/2 + 1
	c.insert(1, &storedFrameV4{cost: big})
	c.insert(1, &storedFrameV4{cost: big})
	c.insert(2, &storedFrameV4{cost: big}) // forces eviction of seq 1
	if _, ok := c.lookup(1); ok {
		t.Fatal("seq 1 still cached after the byte cap evicted it")
	}
	if _, ok := c.lookup(2); !ok {
		t.Fatal("seq 2 missing after insert")
	}
	if len(c.order) != 1 || c.bytes != big {
		t.Fatalf("cache accounting after duplicate seq: %d order entries, %d bytes (want 1, %d)", len(c.order), c.bytes, big)
	}
}
