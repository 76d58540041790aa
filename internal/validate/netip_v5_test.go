package validate

import (
	"encoding/gob"
	"fmt"
	"io"
	"net"
	"testing"
	"time"
)

// Protocol-v5 tests: the process-wide content-addressed FrameStore,
// hash-probe capability negotiation on top of the v4 framing, re-dial
// survival of replay steady state, self-healing under mismatched cache
// bounds, and hostile raw-gob flows. Verdict identity with the v4
// dialect and with local quantised validation is pinned alongside.

// storeFrame builds a resolved frame with distinct content per seed and
// a controlled accounting cost, for exercising FrameStore bounds
// directly.
func storeFrame(seed int64, cost int) *storedFrameV4 {
	return &storedFrameV4{inputs: testInputs(1, seed), scale: 1000, cost: cost}
}

// TestFrameStoreFrameBoundEviction: FIFO eviction fires exactly when
// the frame count exceeds the bound — never at the boundary itself.
func TestFrameStoreFrameBoundEviction(t *testing.T) {
	st := NewFrameStore(3, 1<<20)
	for i := int64(1); i <= 3; i++ {
		st.insert(fmt.Sprintf("k%d", i), storeFrame(i, 10))
	}
	if s := st.Stats(); s.Frames != 3 || s.Evictions != 0 || s.Inserts != 3 {
		t.Fatalf("at the frame boundary: %+v, want 3 frames, 0 evictions", s)
	}
	st.insert("k4", storeFrame(4, 10))
	if s := st.Stats(); s.Frames != 3 || s.Evictions != 1 {
		t.Fatalf("one past the boundary: %+v, want 3 frames, 1 eviction", s)
	}
	if _, ok := st.lookup("k1"); ok {
		t.Fatal("oldest frame survived FIFO eviction")
	}
	for i := int64(2); i <= 4; i++ {
		if _, ok := st.lookup(fmt.Sprintf("k%d", i)); !ok {
			t.Fatalf("frame k%d missing after eviction of k1", i)
		}
	}
}

// TestFrameStoreByteBoundEviction: the byte bound is inclusive (exactly
// full stores fine) and an overflowing insert evicts oldest-first; a
// single frame over the whole bound is never stored.
func TestFrameStoreByteBoundEviction(t *testing.T) {
	st := NewFrameStore(100, 100)
	st.insert("a", storeFrame(1, 50))
	st.insert("b", storeFrame(2, 50))
	if s := st.Stats(); s.Frames != 2 || s.Bytes != 100 || s.Evictions != 0 {
		t.Fatalf("at the byte boundary: %+v, want 2 frames / 100 bytes / 0 evictions", s)
	}
	st.insert("c", storeFrame(3, 50))
	if s := st.Stats(); s.Frames != 2 || s.Bytes != 100 || s.Evictions != 1 {
		t.Fatalf("one past the boundary: %+v, want oldest evicted back to 100 bytes", s)
	}
	if _, ok := st.lookup("a"); ok {
		t.Fatal("oldest frame survived byte-bound eviction")
	}
	st.insert("huge", storeFrame(4, 101))
	if s := st.Stats(); s.Frames != 2 || s.Evictions != 1 {
		t.Fatalf("oversized frame changed the store: %+v", s)
	}
	if _, ok := st.lookup("huge"); ok {
		t.Fatal("a frame larger than the whole byte bound was stored")
	}
}

// TestFrameStoreConflictPoisoning: distinct content under one key (a
// forced "collision") drops the entry and poisons the key permanently —
// wrong bytes are never served, honest re-inserts stay misses, and a
// duplicate insert of identical content is a counted no-op.
func TestFrameStoreConflictPoisoning(t *testing.T) {
	st := NewFrameStore(8, 1<<20)
	a, b := storeFrame(1, 10), storeFrame(2, 10)
	st.insert("k", a)
	st.insert("k", a) // identical content: deduplicated, not re-counted
	if s := st.Stats(); s.Inserts != 1 || s.Frames != 1 {
		t.Fatalf("duplicate insert: %+v, want 1 insert / 1 frame", s)
	}
	st.insert("k", b) // collision: poison
	if s := st.Stats(); s.Conflicts != 1 || s.Frames != 0 || s.Bytes != 0 {
		t.Fatalf("collision: %+v, want 1 conflict, empty store", s)
	}
	if _, ok := st.lookup("k"); ok {
		t.Fatal("conflicted key served a frame")
	}
	st.insert("k", a) // even the original content can no longer bind the key
	if _, ok := st.lookup("k"); ok {
		t.Fatal("poisoned key accepted a re-insert")
	}
	st.insert("k2", b) // the content itself is fine under an honest key
	if _, ok := st.lookup("k2"); !ok {
		t.Fatal("conflict on one key poisoned unrelated keys")
	}
}

// startServerStore serves the golden network with a dedicated private
// FrameStore, so a test can observe exactly its own traffic's effect.
func startServerStore(t *testing.T) (*Server, string, *FrameStore) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	store := NewFrameStore(0, 0)
	srv := ServeWith(l, goldenNet(), ServerOptions{Workers: 2, Wire: WireF32, FrameStore: store})
	t.Cleanup(func() { srv.Close() })
	return srv, srv.Addr(), store
}

// TestV5RedialSurvivesInStore: the headline perf property — a client
// that re-dials (failover, restart, sentinel probe) re-establishes
// replay steady state with hash probes instead of re-uploading bodies.
// The second connection's upload traffic must be a small fraction of
// the first connection's, and the verdict identical.
func TestV5RedialSurvivesInStore(t *testing.T) {
	_, addr, store := startServerStore(t)
	suite := goldenSuite(t, 10, QuantizedOutputs)

	ip1 := dialQuant(t, addr, false)
	want, err := suite.ValidateWith(ip1, ValidateOptions{Batch: 2})
	if err != nil {
		t.Fatal(err)
	}
	first := ip1.WireStats()
	ip1.Close()
	if s := store.Stats(); s.Inserts == 0 {
		t.Fatalf("first replay left no frames in the shared store: %+v", s)
	}

	ip2 := dialQuant(t, addr, false)
	got, err := suite.ValidateWith(ip2, ValidateOptions{Batch: 2})
	if err != nil {
		t.Fatal(err)
	}
	second := ip2.WireStats()
	if got != want {
		t.Fatalf("re-dialled replay report %+v, first connection reported %+v", got, want)
	}
	if s := store.Stats(); s.Hits == 0 {
		t.Fatalf("re-dialled replay never hit the shared store: %+v", s)
	}
	if second.BytesWritten*5 > first.BytesWritten {
		t.Fatalf("re-dial wrote %d bytes vs %d on the first connection — probes did not replace bodies",
			second.BytesWritten, first.BytesWritten)
	}
}

// TestV5MatchesV4MatchesLocal: verdict bit-identity across the three
// replay paths — shared-store v5, per-connection v4 (a MaxVersion-4
// server forcing the downgrade), and local quantised validation — on an
// intact and an attacked network.
func TestV5MatchesV4MatchesLocal(t *testing.T) {
	suite := goldenSuite(t, 10, QuantizedOutputs)
	for _, intact := range []bool{true, false} {
		target := goldenNet()
		if !intact {
			target = perturbedNet(t)
		}
		want, err := suite.Validate(LocalIP{Net: target})
		if err != nil {
			t.Fatal(err)
		}
		for _, maxV := range []byte{protocolV4, protocolVersion} {
			_, addr := startServerMax(t, target, maxV)
			ip := dialQuant(t, addr, false)
			if got := ip.version; got != maxV {
				t.Fatalf("session negotiated v%d against a MaxVersion-%d server", got, maxV)
			}
			for _, batch := range []int{1, 4} {
				got, err := suite.ValidateWith(ip, ValidateOptions{Batch: batch})
				if err != nil {
					t.Fatalf("intact=%v v%d batch=%d: %v", intact, maxV, batch, err)
				}
				if got != want {
					t.Fatalf("intact=%v v%d batch=%d: report %+v, local %+v", intact, maxV, batch, got, want)
				}
			}
		}
	}
}

// TestV5CacheBoundsMismatchSelfHeals: deliberately mismatched session
// cache bounds between the ends (tiny server cache, then tiny client
// cache) must still produce the local verdict — misses surface as
// NeedFrame re-uploads, never as errors or wrong bytes.
func TestV5CacheBoundsMismatchSelfHeals(t *testing.T) {
	suite := goldenSuite(t, 10, QuantizedOutputs)
	want, err := suite.Validate(LocalIP{Net: goldenNet()})
	if err != nil {
		t.Fatal(err)
	}
	run := func(name string, sopts ServerOptions, dopts DialOptions) {
		t.Helper()
		l, lerr := net.Listen("tcp", "127.0.0.1:0")
		if lerr != nil {
			t.Fatal(lerr)
		}
		sopts.Workers, sopts.Wire = 2, WireF32
		sopts.FrameStore = NewFrameStore(2, 1<<20) // tiny store too: probe misses must also heal
		srv := ServeWith(l, goldenNet(), sopts)
		defer srv.Close()
		dopts.Wire = WireQuant
		ip, derr := DialWith(srv.Addr(), dopts)
		if derr != nil {
			t.Fatal(derr)
		}
		defer ip.Close()
		for round := 0; round < 2; round++ {
			got, verr := suite.ValidateWith(ip, ValidateOptions{Batch: 1})
			if verr != nil {
				t.Fatalf("%s round %d: %v", name, round, verr)
			}
			if got != want {
				t.Fatalf("%s round %d: report %+v, local %+v", name, round, got, want)
			}
		}
	}
	run("tiny server cache", ServerOptions{CacheFrames: 2}, DialOptions{})
	run("tiny server bytes", ServerOptions{CacheBytes: 512}, DialOptions{})
	run("tiny client cache", ServerOptions{}, DialOptions{CacheFrames: 2})
	run("tiny client bytes", ServerOptions{}, DialOptions{CacheBytes: 512})
}

// rawV5 opens a raw gob stream negotiated to v5 — a hand-rolled client
// for hostile flows DialWith would never send.
func rawV5(t *testing.T, addr string) (*gob.Encoder, *gob.Decoder) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := conn.Write(preambleV(protocolV5)); err != nil {
		t.Fatal(err)
	}
	var echo [5]byte
	if _, err := io.ReadFull(conn, echo[:]); err != nil {
		t.Fatal(err)
	}
	if echo[4] != protocolV5 {
		t.Fatalf("server echoed v%d to a v5 hello", echo[4])
	}
	return gob.NewEncoder(conn), gob.NewDecoder(conn)
}

// TestV5HostileRawGob: a client claiming hashes and sequence numbers it
// never earned gets NeedFrame answers (the self-heal path), never an
// error, a hang, or someone else's bytes — and a lying Hash on a body
// upload cannot bind foreign content in the store.
func TestV5HostileRawGob(t *testing.T) {
	_, addr, store := startServerStore(t)
	enc, dec := rawV5(t, addr)

	// Decode into a fresh struct every exchange: gob omits zero-valued
	// fields, so a reused target would keep stale NeedFrame/Err values
	// (the real recvLoop allocates per response for the same reason).
	recv := func(dec *gob.Decoder) responseV4 {
		t.Helper()
		var resp responseV4
		if err := dec.Decode(&resp); err != nil {
			t.Fatal(err)
		}
		return resp
	}

	// Probe for a hash nothing ever uploaded.
	if err := enc.Encode(requestV4{ID: 1, Seq: 7, Hash: []byte("no such content hash")}); err != nil {
		t.Fatal(err)
	}
	if resp := recv(dec); !resp.NeedFrame || resp.Err != "" || resp.Outputs != nil {
		t.Fatalf("unknown-hash probe answered %+v, want a bare NeedFrame", resp)
	}

	// Back-reference a sequence number this session never established.
	if err := enc.Encode(requestV4{ID: 2, Seq: 99}); err != nil {
		t.Fatal(err)
	}
	if resp := recv(dec); !resp.NeedFrame || resp.Err != "" {
		t.Fatalf("unknown-seq back-reference answered %+v, want NeedFrame", resp)
	}

	// Upload a real body while lying in the Hash field: the server
	// stores under its own computed key, so the lie binds nothing.
	fr := &frameV4{Decimals: 3, Inputs: []wireBits{toWireBits(testInputs(1, 5)[0])}}
	if err := enc.Encode(requestV4{ID: 3, Seq: 7, Frame: fr, Hash: []byte("a lie")}); err != nil {
		t.Fatal(err)
	}
	if resp := recv(dec); resp.Err != "" || resp.NeedFrame || len(resp.Outputs) != 1 {
		t.Fatalf("body upload answered %+v, want one output frame", resp)
	}
	if _, ok := store.lookup("a lie"); ok {
		t.Fatal("a client-claimed hash bound content in the store")
	}
	if _, ok := store.lookup(frameKey(fr)); !ok {
		t.Fatal("the server-computed key is not in the store after a body upload")
	}

	// The honest key now probes to a hit on a brand-new session.
	enc2, dec2 := rawV5(t, addr)
	if err := enc2.Encode(requestV4{ID: 1, Seq: 1, Hash: []byte(frameKey(fr))}); err != nil {
		t.Fatal(err)
	}
	if resp := recv(dec2); resp.Err != "" || resp.NeedFrame || len(resp.Outputs) != 1 {
		t.Fatalf("honest probe answered %+v, want the evaluated frame", resp)
	}
}
