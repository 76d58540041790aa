package validate

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/nn"
	"repro/internal/parallel"
	"repro/internal/quant"
	"repro/internal/tensor"
)

// This file gives the black-box IP a wire form: the vendor hosts the
// model behind a TCP endpoint and the user validates over the network,
// never holding the parameters — the deployment shape of Fig. 1 where
// only query access exists.
//
// Wire protocol v2/v3/v4. A connection opens with a 5-byte preamble from
// the client — the 4-byte magic "DNNV" followed by the highest version
// byte the client wants — which the server answers with the negotiated
// version (the lower of the two) before any payload flows. The
// handshake is what turns cross-version contact into a descriptive
// error instead of a gob decode failure mid-stream: a v1 client (which
// opens with a bare gob request) is answered with a v1-shaped error
// response naming the mismatch, and a v2/v3 client talking to a v1
// server reports the missing preamble. After the handshake the stream
// is a sequence of gob-encoded batched requests and responses matched
// by ID: the client may pipeline any number of requests before reading,
// and the server may answer them out of order (handlers evaluate
// concurrently on one shared snapshot of the served network).
//
// Every dialect is a codec around one evaluator (evaluator.go): a
// session decodes a request, asks the evaluator for a precision, and
// encodes the outputs. The precision rule: v2 evaluates in float64
// always; v3 in float32 when the server hosts a float32 snapshot
// (ServerOptions.Wire WireF32); v4/v5 in float32 when the frame's F32
// flag is set and the snapshot exists. Everything else runs on the
// bit-exact float64 snapshot.
//
// Protocol v3 carries float32 tensors in both directions — half the
// replay bandwidth of the v2 float64 frames, and the wire form of the
// reduced-precision serving path. A client only requests v3 when it
// wants float32 frames (DialOptions.Wire WireF32); replay against v3
// outputs must use a Tolerance, so v2 with its bit-exact float64 frames
// remains the default dialect, and v2-only peers on either side keep
// working unchanged.
//
// Protocol v4 carries quantised delta-encoded replay frames for
// QuantizedOutputs suites: outputs ship as fixed-point integers at the
// suite's decimal precision, delta-encoded against the quantised
// reference outputs (or the previous output frame), and requests ride
// a replay-frame cache so a re-sent suite frame is a fixed-size
// back-reference. Verdicts are computed on the wire representation
// directly; see wirev4.go. A client only requests v4 when it wants the
// quantised dialect (DialOptions.Wire WireQuant), so v2 stays the
// default and v2/v3-only peers on either side keep working unchanged.
//
// Protocol v5 is v4 plus the shared-store capability: the same framing
// and verdict construction, with new-frame uploads replaced by content
// hash probes against a process-wide FrameStore ("have it / send
// body") and unresolvable back-references answered NeedFrame instead
// of erroring (see wirev4.go and framestore.go). A quant client now
// hellos v5 and accepts a v4 echo as a per-connection downgrade, so
// old v4 servers keep working; an old v4 client's hello lands on a v4
// session served bit-identically to a pre-v5 build.
//
// Protocol v1 (historical): no preamble, a lockstep stream of
// single-input gob requests answered in order, queries serialised by a
// global forward mutex on the server.

// Protocol identification. The version byte is bumped on any wire
// format change; the magic never changes, so any version of either side
// can recognise the other's hello.
const (
	protocolV2      = 2
	protocolV3      = 3
	protocolV4      = 4
	protocolV5      = 5
	protocolVersion = protocolV5 // highest version this build speaks
)

var protocolMagic = [4]byte{'D', 'N', 'N', 'V'}

// preambleV returns the 5-byte protocol hello for the given version.
func preambleV(version byte) []byte {
	return append(append([]byte(nil), protocolMagic[:]...), version)
}

// queryRequest / queryResponse are the v1 single-query wire messages,
// kept so a v2 server can answer a v1 client in its own dialect with a
// descriptive version-mismatch error.
type queryRequest struct {
	Input wireTensor
}

type queryResponse struct {
	Output wireTensor
	Err    string
}

// requestV2 is one batched, pipelined query exchange: Inputs are
// evaluated in order and answered by a responseV2 carrying the same ID.
type requestV2 struct {
	ID     uint64
	Inputs []wireTensor
}

type responseV2 struct {
	ID      uint64
	Outputs []wireTensor
	Err     string
}

// wireTensor32 is the v3 frame form of a tensor: float32 payloads,
// half the bytes of wireTensor on the wire.
type wireTensor32 struct {
	Shape []int
	Data  []float32
}

// requestV3/responseV3 are the v3 exchanges — identical framing to v2
// with float32 tensor payloads.
type requestV3 struct {
	ID     uint64
	Inputs []wireTensor32
}

type responseV3 struct {
	ID      uint64
	Outputs []wireTensor32
	Err     string
}

// toWire32 quantises a float64 tensor into a v3 frame.
func toWire32(t *tensor.Tensor) wireTensor32 {
	d := make([]float32, t.Size())
	for i, v := range t.Data() {
		d[i] = float32(v)
	}
	return wireTensor32{Shape: append([]int(nil), t.Shape()...), Data: d}
}

// fromWire32 validates a v3 frame and widens it (exactly) to a float64
// tensor.
func fromWire32(w wireTensor32) (*tensor.Tensor, error) {
	n, err := shapeSize(w.Shape)
	if err != nil {
		return nil, err
	}
	if n != len(w.Data) {
		return nil, fmt.Errorf("validate: wire tensor shape %v does not match %d values", w.Shape, len(w.Data))
	}
	d := make([]float64, n)
	for i, v := range w.Data {
		d[i] = float64(v)
	}
	return tensor.FromSlice(d, w.Shape...), nil
}

// ServerOptions configures a served IP endpoint.
type ServerOptions struct {
	// Workers bounds how many requests the server evaluates at once;
	// every evaluation shares the one snapshot of the served network,
	// so it sizes no copies. Values <= 0 use the whole machine
	// (parallel.Auto).
	Workers int
	// Wire provisions the server for a wire dialect. WireF32 hosts a
	// float32 snapshot of the served network next to the float64 one:
	// protocol-v3 sessions, and v4/v5 frames flagged F32, are then
	// evaluated in float32 on it, halving kernel memory traffic.
	// Without it those evaluate on the float64 snapshot and only the
	// frames are float32. The other dialects need no provisioning — v2
	// always evaluates on the bit-exact float64 snapshot — so WireAuto,
	// WireGob and WireQuant configure nothing extra here; the dialect
	// actually spoken is negotiated per connection, capped by
	// MaxVersion.
	Wire Wire
	// MaxVersion caps the wire protocol version this server negotiates
	// (0 means the build's highest). An interop/rollback knob: a fleet
	// pinned to 4 serves v5-capable clients a per-connection v4
	// session exactly as a pre-v5 build would, and the
	// handshake-matrix tests use it to stand up genuine old-dialect
	// servers. Values are clamped to [v2, highest].
	MaxVersion byte
	// CacheFrames/CacheBytes bound each v5 session's replay-frame
	// cache (0 ⇒ the compiled v4 defaults, 256 frames / 8 MiB). They
	// apply to v5 sessions only: a v4 session's cache must mirror its
	// client's compiled-in bounds in lockstep, whereas a v5 mismatch
	// between the two ends self-heals via NeedFrame.
	CacheFrames int
	CacheBytes  int
	// FrameStore is the content-addressed store v5 sessions probe
	// against. Nil means: a private store bounded by
	// StoreFrames/StoreBytes when either is set, else the shared
	// per-process store — the default that lets every server and
	// session in a fleet process pay for one sealed suite's frames
	// once.
	FrameStore *FrameStore
	// StoreFrames/StoreBytes bound the private store built when
	// FrameStore is nil and either is non-zero (0 ⇒ defaults, 1024
	// frames / 32 MiB). Ignored when FrameStore is set.
	StoreFrames int
	StoreBytes  int
	// CoalesceWindow, when positive, gathers same-shape single-query
	// requests from different connections for up to this long into one
	// batched forward pass — the fleet-throughput path for many small
	// clients. Per-sample bit-identity of the batched engine makes this
	// invisible: verdicts are identical with coalescing on or off, on
	// every dialect. 0 (the default) serves each connection's requests
	// on their own.
	CoalesceWindow time.Duration
	// CoalesceBatch caps how many queries one coalesced batch gathers
	// before flushing early (0 ⇒ 32). The window is the latency bound,
	// this the memory/batch-size bound.
	CoalesceBatch int
}

// Server hosts a network as a black-box IP endpoint. Requests are
// evaluated concurrently on one snapshot of the served network, frozen
// at Serve time and swapped whole by SyncParamsFrom, so no global
// forward mutex serialises queries.
type Server struct {
	eval       *evaluator // the snapshot and coalescer every session evaluates on
	listener   net.Listener
	maxVersion byte

	store       *FrameStore // v5 shared frame store (never nil)
	cacheFrames int         // v5 session-cache bounds (v4 sessions pin the compiled defaults)
	cacheBytes  int

	wg        sync.WaitGroup
	closed    chan struct{}
	closeOnce sync.Once

	connMu sync.Mutex
	conns  map[net.Conn]struct{}
}

// Serve starts serving IP queries on l with default options. It
// returns immediately; Close stops the server.
func Serve(l net.Listener, network *nn.Network) *Server {
	return ServeWith(l, network, ServerOptions{})
}

// ServeWith starts serving IP queries on l, evaluating at most
// opts.Workers requests at once on a snapshot of network.
func ServeWith(l net.Listener, network *nn.Network, opts ServerOptions) *Server {
	workers := opts.Workers
	if workers <= 0 {
		workers = parallel.Auto()
	}
	maxV := opts.MaxVersion
	if maxV == 0 || maxV > protocolVersion {
		maxV = protocolVersion
	}
	if maxV < protocolV2 {
		maxV = protocolV2
	}
	store := opts.FrameStore
	if store == nil {
		if opts.StoreFrames != 0 || opts.StoreBytes != 0 {
			store = NewFrameStore(opts.StoreFrames, opts.StoreBytes)
		} else {
			store = processFrameStore
		}
	}
	cacheFrames, cacheBytes := cacheBoundsOrDefault(opts.CacheFrames, opts.CacheBytes)
	s := &Server{
		eval:        newEvaluator(network, opts.Wire == WireF32, workers),
		listener:    l,
		maxVersion:  maxV,
		store:       store,
		cacheFrames: cacheFrames,
		cacheBytes:  cacheBytes,
		closed:      make(chan struct{}),
		conns:       make(map[net.Conn]struct{}),
	}
	if opts.CoalesceWindow > 0 {
		s.eval.coalesce(opts.CoalesceWindow, opts.CoalesceBatch)
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// FrameStore returns the content-addressed store this server's v5
// sessions probe (the shared per-process store unless ServerOptions
// provided or bounded a private one) — an observability handle.
func (s *Server) FrameStore() *FrameStore { return s.store }

// Addr returns the listener address.
func (s *Server) Addr() string { return s.listener.Addr().String() }

// SyncParamsFrom serves src's parameters from now on — a hot model
// update. src must share the served network's architecture: a
// parameter registry that differs from the served one panics as
// Network.SyncParamsFrom does, before anything changes. Otherwise src
// is frozen at every hosted precision and swapped in whole. It waits
// for no query: evaluations already running finish on the old
// parameters, and none ever sees a half-updated set.
func (s *Server) SyncParamsFrom(src *nn.Network) { s.eval.SyncParamsFrom(src) }

// Close stops accepting, drains in-flight requests (every request
// already read off a connection is answered), closes the connections,
// and waits for all handlers to finish. It is safe to call more than
// once.
func (s *Server) Close() error {
	var err error
	s.closeOnce.Do(func() {
		close(s.closed)
		err = s.listener.Close()
		// Unblock handlers parked in Decode: an expired read deadline
		// fails every pending and future read, while writes — the
		// responses still draining — proceed untouched.
		s.connMu.Lock()
		for c := range s.conns { //detlint:allow maporder(teardown: every conn gets the same expired deadline; order unobservable)
			c.SetReadDeadline(time.Now())
		}
		s.connMu.Unlock()
		s.wg.Wait()
	})
	return err
}

// Accept retry backoff bounds: transient errors (ECONNABORTED on a
// half-open client, EMFILE under descriptor pressure) are retried after
// a pause that doubles up to the cap, so an error burst cannot spin the
// CPU and a single failed Accept cannot silently kill the endpoint.
const (
	acceptBackoffMin = 5 * time.Millisecond
	acceptBackoffMax = 500 * time.Millisecond
)

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	var backoff time.Duration
	for {
		conn, err := s.listener.Accept()
		if err != nil {
			// A transient Accept error must not permanently stop service
			// while the listener is still open; only shutdown or a
			// listener closed out from under us ends the loop.
			select {
			case <-s.closed:
				return
			default:
			}
			if errors.Is(err, net.ErrClosed) {
				return // caller closed the listener directly; nothing to accept ever again
			}
			if backoff == 0 {
				backoff = acceptBackoffMin
			} else if backoff *= 2; backoff > acceptBackoffMax {
				backoff = acceptBackoffMax
			}
			select {
			case <-s.closed:
				return
			case <-time.After(backoff): //detlint:allow walltime(accept-loop backoff timing; never reaches replay outputs)
			}
			continue
		}
		backoff = 0
		s.connMu.Lock()
		s.conns[conn] = struct{}{}
		// Register under the lock so a concurrent Close either sees this
		// connection (and expires its reads) or has already closed the
		// listener, in which case Accept could not have returned it.
		select {
		case <-s.closed:
			s.connMu.Unlock()
			conn.Close()
			return
		default:
		}
		s.connMu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handle(conn)
			s.connMu.Lock()
			delete(s.conns, conn)
			s.connMu.Unlock()
		}()
	}
}

// handshakeTimeout bounds how long a fresh connection may sit without
// completing its hello, so dead connections cannot pin handlers.
const handshakeTimeout = 10 * time.Second

// serverWriteTimeout bounds each response (and handshake) write. A
// client that stops reading fills the kernel send buffer; without this
// bound its handler would block in Encode forever, hold an evaluation
// slot, and hang Close's drain. With it, drain completes within one
// write timeout even against a dead-reader client.
const serverWriteTimeout = 30 * time.Second

// Lingering-close bounds. A connection the server answers without
// serving — a v1 client, a pre-v2 hello — still has the client's
// request unread; closing over unread bytes sends a TCP reset
// (RFC 1122 §4.2.2.13), which can fail the client's write or discard
// the reply in flight. So the server half-closes and drains up to
// lingerBytes for up to lingerTimeout before it closes.
const (
	lingerBytes   = 64 << 10
	lingerTimeout = 2 * time.Second
)

// lingerClose ends a connection after its final reply: CloseWrite, then
// drain the read side until the client hangs up, lingerBytes arrive or
// lingerTimeout passes; handle's deferred Close then finds nothing
// unread. Close's expired read deadline still cuts the drain short —
// Close marks closing before it expires deadlines, so either the check
// below sees it or Close's deadline lands after this one.
func (s *Server) lingerClose(conn net.Conn) {
	if cw, ok := conn.(interface{ CloseWrite() error }); ok {
		cw.CloseWrite()
	}
	conn.SetReadDeadline(time.Now().Add(lingerTimeout))
	if !s.closing() {
		io.Copy(io.Discard, io.LimitReader(conn, lingerBytes))
	}
}

func (s *Server) handle(conn net.Conn) {
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(handshakeTimeout))
	var hello [5]byte
	if _, err := io.ReadFull(conn, hello[:]); err != nil {
		return
	}
	enc := gob.NewEncoder(conn)
	if !bytes.Equal(hello[:4], protocolMagic[:]) {
		// No preamble: a v1 client opening with a bare gob stream.
		// Answer in the v1 response shape so its pending Query surfaces
		// a descriptive error instead of a decode failure.
		enc.Encode(queryResponse{Err: fmt.Sprintf(
			"validate: protocol version mismatch: this server speaks v%d (preamble-first); the client opened with a pre-handshake v1 stream — upgrade the client", protocolVersion)})
		s.lingerClose(conn)
		return
	}
	// Negotiate the session version: the lower of the client's hello and
	// our maximum (the build's highest, or ServerOptions.MaxVersion),
	// echoed back so the client knows what the stream will speak. A
	// future client (hello > v4) lands on v4; a v2 client gets its v2
	// session untouched. A pre-v2 version byte is unservable — echo our
	// own maximum so the peer can report the mismatch descriptively,
	// then end the connection (nothing more can be said in an unknown
	// dialect).
	version := hello[4]
	if version > s.maxVersion {
		version = s.maxVersion
	}
	if _, err := conn.Write(preambleV(max(version, protocolV2))); err != nil {
		return
	}
	if version < protocolV2 {
		s.lingerClose(conn)
		return
	}
	conn.SetDeadline(time.Time{})
	if s.closing() {
		// Close may have expired read deadlines before this connection
		// registered a pending read; do not start a session mid-drain.
		return
	}

	dec := gob.NewDecoder(conn)
	var encMu sync.Mutex
	var inflight sync.WaitGroup
	var v4cache *frameCacheV4 // session replay-frame cache; v4/v5 only
	if version >= protocolV5 {
		v4cache = newFrameCacheV4(s.cacheFrames, s.cacheBytes)
	} else if version == protocolV4 {
		// A v4 session's cache must mirror its client's compiled-in
		// bounds in exact lockstep — no self-healing on that dialect —
		// so the configured v5 bounds do not apply here.
		v4cache = newFrameCacheV4(0, 0)
	}
	// Coalesced requests take no evaluation slot; this semaphore keeps
	// their per-connection inflight and queued-response memory bounded
	// at the slot count, exactly as the slots do for the rest.
	coalSem := make(chan struct{}, cap(s.eval.slots))
	defer inflight.Wait() // drain: every accepted request is answered before conn.Close
	for {
		// Decode the version-appropriate request, then claim its
		// evaluation *before* spawning the handler — holding the claim
		// until the response is written caps the per-connection
		// concurrency AND the queued-response memory at the slot count,
		// backpressuring both a flooding client and a non-reading one
		// instead of buffering for them.
		var work func() any           // builds the response
		var answer func(evalFunc) any // the dialect's codec around an evaluation; nil when none is needed
		var f32 bool                  // the precision the dialect asks for
		var n int                     // the request's input count
		switch {
		case version >= protocolV4:
			var req requestV4
			if err := dec.Decode(&req); err != nil {
				return
			}
			sf, resp := s.resolveV4(version, v4cache, req)
			if sf == nil {
				work = func() any { return resp }
				break
			}
			f32, n = sf.f32, len(sf.inputs)
			answer = func(run evalFunc) any { return answerV4(run, sf, req.ID) }
		case version == protocolV3:
			var req requestV3
			if err := dec.Decode(&req); err != nil {
				return // EOF, broken stream, or an expired drain deadline ends the session
			}
			f32, n = true, len(req.Inputs)
			answer = func(run evalFunc) any { return answerV3(run, req) }
		default:
			var req requestV2
			if err := dec.Decode(&req); err != nil {
				return
			}
			n = len(req.Inputs)
			answer = func(run evalFunc) any { return answerV2(run, req) }
		}
		release := func() {}
		if answer != nil {
			var run evalFunc
			run, release = s.eval.claim(f32, n, coalSem)
			work = func() any { return answer(run) }
		}
		inflight.Add(1)
		go func() {
			defer inflight.Done()
			defer release()
			resp := work()
			encMu.Lock()
			defer encMu.Unlock()
			conn.SetWriteDeadline(time.Now().Add(serverWriteTimeout))
			if err := enc.Encode(resp); err != nil {
				// A failed response write (dead reader, expired write
				// deadline) is session-fatal: closing the connection
				// fails the decode loop and the remaining queued writes
				// immediately, so no work is done for a client that
				// cannot receive it and Close's drain stays bounded by
				// a single write timeout.
				conn.Close()
			}
		}()
	}
}

// closing reports whether Close has begun.
func (s *Server) closing() bool {
	select {
	case <-s.closed:
		return true
	default:
		return false
	}
}

// answerV2 evaluates one batched v2 request: float64 frames both ways.
func answerV2(run evalFunc, req requestV2) responseV2 {
	resp := responseV2{ID: req.ID}
	outs, err := evalWire(run, req.Inputs, fromWire)
	if err != nil {
		resp.Err = err.Error()
		return resp
	}
	resp.Outputs = make([]wireTensor, len(outs))
	for i, o := range outs {
		resp.Outputs[i] = toWire(o)
	}
	return resp
}

// answerV3 evaluates one batched v3 request: float32 frames both ways,
// widened at the evaluator boundary (exactly, so the float32 snapshot
// sees the wire's values and answers its own).
func answerV3(run evalFunc, req requestV3) responseV3 {
	resp := responseV3{ID: req.ID}
	outs, err := evalWire(run, req.Inputs, fromWire32)
	if err != nil {
		resp.Err = err.Error()
		return resp
	}
	resp.Outputs = make([]wireTensor32, len(outs))
	for i, o := range outs {
		resp.Outputs[i] = toWire32(o)
	}
	return resp
}

// evalWire validates a v2/v3 request's wire tensors and evaluates them.
func evalWire[W any](run evalFunc, ws []W, from func(W) (*tensor.Tensor, error)) ([]*tensor.Tensor, error) {
	if len(ws) == 0 {
		return nil, fmt.Errorf("validate: empty query batch")
	}
	xs := make([]*tensor.Tensor, len(ws))
	for i, w := range ws {
		x, err := from(w)
		if err != nil {
			return nil, err
		}
		xs[i] = x
	}
	return run(xs)
}

// DialOptions bound the client side of a served-IP connection, so a
// hung or half-dead server fails a validation run with a clear error
// instead of blocking it forever. Zero fields take the defaults.
type DialOptions struct {
	// DialTimeout bounds connection establishment and the version
	// handshake. Default 10s.
	DialTimeout time.Duration
	// ReadTimeout is the longest the client waits for the next response
	// while requests are outstanding. Default 60s.
	ReadTimeout time.Duration
	// WriteTimeout bounds sending one request. Default 10s.
	WriteTimeout time.Duration
	// Wire selects the wire dialect this client requests in the
	// handshake:
	//
	//   - WireGob — protocol v2, gob-framed float64 tensors; the
	//     bit-exact default, spoken by servers of any age.
	//   - WireF32 — protocol v3: float32 tensor frames in both
	//     directions (half the replay bandwidth) and, on an -f32
	//     server, float32 evaluation. Outputs then approximate the
	//     float64 references to rounding error, so replay must use a
	//     Tolerance. Dialing a v2-only server with WireF32 fails with
	//     a descriptive version error — it cannot produce the frames
	//     this client asked for.
	//   - WireQuant — protocol v4: quantised delta-encoded replay
	//     frames, the dialect built for QuantizedOutputs suites
	//     (inputs still travel as exact float64 bits, so evaluation is
	//     untouched). Combined with F32 the session evaluates on the
	//     server's float32 snapshot when it has one; otherwise the
	//     float64 snapshot answers and the v4 verdicts equal the
	//     bit-exact path's QuantizedOutputs verdicts. Dialing a pre-v4
	//     server with WireQuant fails with a descriptive version
	//     error.
	//   - WireAuto (the zero value) — WireGob.
	Wire Wire
	// F32, on a WireQuant session, asks for evaluation on the server's
	// float32 snapshot (when it has one) while the frames stay quantised.
	// Other dialects ignore it: WireF32 already means float32.
	F32 bool
	// Decimals is the fixed-point precision plain Query/QueryBatch
	// calls use on a v4 session (suite replay passes the suite's own
	// precision through QueryQuant instead). 0 means 6, the
	// BuildSuite default.
	Decimals int
	// CacheFrames/CacheBytes bound the client replay-frame registry on
	// a v5 session (0 ⇒ the compiled v4 defaults, 256 frames / 8 MiB).
	// On a v4 session they are ignored: that dialect's cache must stay
	// in compiled-in lockstep with the server, whereas a v5 bound
	// mismatch between the ends self-heals via NeedFrame.
	CacheFrames int
	CacheBytes  int
}

func (o DialOptions) withDefaults() DialOptions {
	if o.DialTimeout <= 0 {
		o.DialTimeout = 10 * time.Second
	}
	if o.ReadTimeout <= 0 {
		o.ReadTimeout = 60 * time.Second
	}
	if o.WriteTimeout <= 0 {
		o.WriteTimeout = 10 * time.Second
	}
	if o.Decimals == 0 {
		o.Decimals = 6
	}
	return o
}

// RemoteIP is the user-side client of a served IP. It implements
// BatchIP, and is safe for concurrent use by any number of goroutines:
// requests pipeline over the single connection — each caller registers
// its request ID, sends, and parks until the shared receive loop
// delivers the matching response — so N concurrent Query/QueryBatch
// calls cost one connection, not N.
type RemoteIP struct {
	conn    net.Conn
	opts    DialOptions
	version byte // negotiated protocol version of this session

	sendMu sync.Mutex // serialises request encoding on the shared stream
	enc    *gob.Encoder

	// v4 replay-frame registry (guarded by sendMu, like the encoder it
	// feeds): which frames the server's session cache still holds, so a
	// repeated frame is sent as a back-reference. v4pending overlays it
	// on v5 sessions with the probe/uploads still in flight — a key is
	// only back-referenceable once its upload resolves. See wirev4.go.
	v4seq       uint64
	v4known     map[string]uint64
	v4order     []v4sent
	v4bytes     int
	v4pending   map[string]*v4upload
	cacheFrames int // registry bounds: compiled defaults on v4, DialOptions on v5
	cacheBytes  int

	counts *countingConn // byte instrumentation over the raw connection

	mu       sync.Mutex
	nextID   uint64
	pending  map[uint64]chan responseV2
	pendingQ map[uint64]chan responseV4 // v4 sessions' outstanding calls
	err      error                      // sticky transport failure; set once, fails everything after

	wake      chan struct{} // cap 1: receive loop nudge, a send may be pending
	closed    chan struct{}
	closeOnce sync.Once
}

// Dial connects to a served IP at addr with default DialOptions.
func Dial(addr string) (*RemoteIP, error) { return DialWith(addr, DialOptions{}) }

// DialWith connects to a served IP at addr and performs the protocol
// handshake under the given bounds.
func DialWith(addr string, opts DialOptions) (*RemoteIP, error) {
	opts = opts.withDefaults()
	// The hello carries the version this client wants: v3 only when
	// float32 frames were asked for, v5 only for the quantised dialect,
	// so a plain client keeps speaking v2 with servers of any age. (An
	// older server answering a newer hello echoes its own version and
	// hangs up — it cannot know the newer framing — so requesting one
	// is a commitment, reported below as a descriptive error. The one
	// exception: a v4 echo to a quant hello is accepted, because v5 is
	// v4 framing plus the store capability — the session downgrades to
	// the per-connection v4 path bit-identically to a pre-v5 client.)
	wire := opts.Wire
	want := byte(protocolV2)
	switch wire {
	case WireQuant:
		want = protocolV5
	case WireF32:
		want = protocolV3
	}
	conn, err := net.DialTimeout("tcp", addr, opts.DialTimeout)
	if err != nil {
		return nil, fmt.Errorf("validate: dial IP: %w", err)
	}
	conn.SetDeadline(time.Now().Add(opts.DialTimeout))
	if _, err := conn.Write(preambleV(want)); err != nil {
		conn.Close()
		return nil, fmt.Errorf("validate: dial IP: send handshake: %w", err)
	}
	var hello [5]byte
	if _, err := io.ReadFull(conn, hello[:]); err != nil {
		conn.Close()
		return nil, fmt.Errorf(
			"validate: dial IP: no handshake reply (%v) — the server closed or stayed silent during the version handshake, as a pre-v2 server that expects bare gob requests would", err)
	}
	if !bytes.Equal(hello[:4], protocolMagic[:]) {
		conn.Close()
		return nil, fmt.Errorf("validate: dial IP: %s is not a dnnval IP endpoint (bad magic %q)", addr, hello[:4])
	}
	version := hello[4]
	if version != want && !(wire == WireQuant && version == protocolV4) {
		conn.Close()
		if wire == WireQuant && version < protocolV4 {
			return nil, fmt.Errorf(
				"validate: dial IP: protocol version mismatch: server speaks v%d but quantised frames need v%d — retry without the quant wire, or upgrade the server", version, protocolV4)
		}
		if wire == WireF32 && version == protocolV2 {
			return nil, fmt.Errorf(
				"validate: dial IP: protocol version mismatch: server speaks v%d but float32 frames need v%d — retry without F32, or upgrade the server", version, protocolV3)
		}
		return nil, fmt.Errorf("validate: dial IP: protocol version mismatch: server speaks v%d, this client v%d", version, want)
	}
	conn.SetDeadline(time.Time{})
	counts := &countingConn{Conn: conn}
	counts.wrote.Add(5) // the hello this side already sent
	counts.read.Add(5)  // and the reply it already read
	// The registry bounds: a v4 session pins the compiled defaults (its
	// cache must mirror the server's in lockstep); a v5 session takes
	// the configured bounds, any mismatch self-healing via NeedFrame.
	cacheFrames, cacheBytes := v4CacheFrames, v4CacheBytes
	if version >= protocolV5 {
		cacheFrames, cacheBytes = cacheBoundsOrDefault(opts.CacheFrames, opts.CacheBytes)
	}
	r := &RemoteIP{
		conn:        counts,
		opts:        opts,
		version:     version,
		counts:      counts,
		enc:         gob.NewEncoder(counts),
		v4known:     make(map[string]uint64),
		v4pending:   make(map[string]*v4upload),
		cacheFrames: cacheFrames,
		cacheBytes:  cacheBytes,
		pending:     make(map[uint64]chan responseV2),
		pendingQ:    make(map[uint64]chan responseV4),
		wake:        make(chan struct{}, 1),
		closed:      make(chan struct{}),
	}
	go r.recvLoop()
	return r, nil
}

// Query implements IP over the wire.
func (r *RemoteIP) Query(x *tensor.Tensor) (*tensor.Tensor, error) {
	out, err := r.QueryBatch([]*tensor.Tensor{x})
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// QueryBatch implements BatchIP: one wire exchange answers all inputs.
// On a v2 session each output is bit-identical to a single Query of
// that input; on a v3 session inputs and outputs are float32 frames, so
// outputs match a single Query to float32 rounding. On a v4 session the
// outputs are dequantised from DialOptions.Decimals fixed-point wire
// frames — suite replay should go through QueryQuant instead, which
// never dequantises.
func (r *RemoteIP) QueryBatch(xs []*tensor.Tensor) ([]*tensor.Tensor, error) {
	if len(xs) == 0 {
		return nil, &QueryError{Msg: "validate: empty query batch"}
	}
	if r.version >= protocolV4 {
		frames, shapes, err := r.queryQuant(xs, nil, r.opts.Decimals)
		if err != nil {
			return nil, err
		}
		scale, err := quant.Scale(r.opts.Decimals)
		if err != nil {
			return nil, &QueryError{Msg: err.Error()}
		}
		out := make([]*tensor.Tensor, len(frames))
		for i, f := range frames {
			data := make([]float64, len(f))
			for j, v := range f {
				data[j] = v.Value(scale)
			}
			out[i] = tensor.FromSlice(data, shapes[i]...)
		}
		return out, nil
	}
	r.mu.Lock()
	if r.err != nil {
		err := r.err
		r.mu.Unlock()
		return nil, err
	}
	r.nextID++
	id := r.nextID
	ch := make(chan responseV2, 1)
	r.pending[id] = ch
	r.mu.Unlock()
	select {
	case r.wake <- struct{}{}:
	default:
	}

	var req any
	if r.version == protocolV3 {
		v3 := requestV3{ID: id, Inputs: make([]wireTensor32, len(xs))}
		for i, x := range xs {
			v3.Inputs[i] = toWire32(x)
		}
		req = v3
	} else {
		v2 := requestV2{ID: id, Inputs: make([]wireTensor, len(xs))}
		for i, x := range xs {
			v2.Inputs[i] = toWire(x)
		}
		req = v2
	}
	r.sendMu.Lock()
	r.conn.SetWriteDeadline(time.Now().Add(r.opts.WriteTimeout))
	err := r.enc.Encode(req)
	r.sendMu.Unlock()
	if err != nil {
		r.fail(fmt.Errorf("validate: send query: %w", err))
	}

	resp, ok := <-ch
	if !ok {
		r.mu.Lock()
		err := r.err
		r.mu.Unlock()
		return nil, err
	}
	if resp.Err != "" {
		return nil, &QueryError{Msg: resp.Err}
	}
	if len(resp.Outputs) != len(xs) {
		// A count mismatch is a replica protocol violation, not a bad
		// query: plain error, so sharded callers mark the replica down
		// and fail over instead of surfacing it as a query rejection.
		return nil, fmt.Errorf("validate: replica protocol violation: batch answered %d outputs for %d queries", len(resp.Outputs), len(xs))
	}
	out := make([]*tensor.Tensor, len(resp.Outputs))
	for i, wt := range resp.Outputs {
		t, err := fromWire(wt)
		if err != nil {
			return nil, err
		}
		out[i] = t
	}
	return out, nil
}

// recvLoop is the single reader of the connection: it sleeps while no
// requests are outstanding, then decodes responses under the read
// deadline and hands each to the caller that registered its ID.
func (r *RemoteIP) recvLoop() {
	dec := gob.NewDecoder(r.conn)
	for {
		select {
		case <-r.closed:
			r.fail(net.ErrClosed)
			return
		case <-r.wake:
		}
		for {
			r.mu.Lock()
			n, err := len(r.pending)+len(r.pendingQ), r.err
			r.mu.Unlock()
			if err != nil {
				return
			}
			if n == 0 {
				break
			}
			r.conn.SetReadDeadline(time.Now().Add(r.opts.ReadTimeout))
			if r.version >= protocolV4 {
				// v4 responses stay in wire form — the caller that holds
				// the reference frames decodes them, so routing here is
				// pure dispatch by ID.
				var r4 responseV4
				if derr := dec.Decode(&r4); derr != nil {
					var nerr net.Error
					if errors.As(derr, &nerr) && nerr.Timeout() {
						derr = fmt.Errorf("no response within %v — server hung or unreachable: %w", r.opts.ReadTimeout, derr)
					}
					r.fail(fmt.Errorf("validate: receive response: %w", derr))
					return
				}
				r.mu.Lock()
				ch, ok := r.pendingQ[r4.ID]
				delete(r.pendingQ, r4.ID)
				r.mu.Unlock()
				if !ok {
					r.fail(fmt.Errorf("validate: receive response: unsolicited response id %d — stream out of sync", r4.ID))
					return
				}
				ch <- r4
				continue
			}
			// Decode the session dialect; a v3 response is widened to the
			// v2 in-memory shape here so callers handle one form. The
			// widening float32→float64 is exact, so it loses nothing the
			// wire had.
			var resp responseV2
			var derr error
			if r.version == protocolV3 {
				var r3 responseV3
				if derr = dec.Decode(&r3); derr == nil {
					resp = responseV2{ID: r3.ID, Err: r3.Err, Outputs: make([]wireTensor, len(r3.Outputs))}
					for i, wt := range r3.Outputs {
						d := make([]float64, len(wt.Data))
						for j, v := range wt.Data {
							d[j] = float64(v)
						}
						resp.Outputs[i] = wireTensor{Shape: wt.Shape, Data: d}
					}
				}
			} else {
				derr = dec.Decode(&resp)
			}
			if derr != nil {
				var nerr net.Error
				if errors.As(derr, &nerr) && nerr.Timeout() {
					derr = fmt.Errorf("no response within %v — server hung or unreachable: %w", r.opts.ReadTimeout, derr)
				}
				r.fail(fmt.Errorf("validate: receive response: %w", derr))
				return
			}
			r.mu.Lock()
			ch, ok := r.pending[resp.ID]
			delete(r.pending, resp.ID)
			r.mu.Unlock()
			if !ok {
				r.fail(fmt.Errorf("validate: receive response: unsolicited response id %d — stream out of sync", resp.ID))
				return
			}
			ch <- resp
		}
	}
}

// fail records the first transport error, fails every outstanding call,
// and poisons the client: all later calls return the same error. The
// connection is closed so both loops unwind.
func (r *RemoteIP) fail(err error) {
	r.mu.Lock()
	if r.err == nil {
		r.err = err
		for id, ch := range r.pending { //detlint:allow maporder(failure broadcast: every pending call is closed with the same poisoned error; order unobservable)
			close(ch)
			delete(r.pending, id)
		}
		for id, ch := range r.pendingQ { //detlint:allow maporder(failure broadcast: every pending queued call is closed with the same poisoned error; order unobservable)
			close(ch)
			delete(r.pendingQ, id)
		}
	}
	r.mu.Unlock()
	r.conn.Close()
}

// Close closes the connection; outstanding calls fail. Safe to call
// more than once and concurrently with queries.
func (r *RemoteIP) Close() error {
	r.closeOnce.Do(func() {
		close(r.closed)
		r.fail(fmt.Errorf("validate: client closed: %w", net.ErrClosed))
	})
	return nil
}
