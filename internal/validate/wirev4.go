package validate

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"repro/internal/quant"
	"repro/internal/tensor"
)

// Wire protocol v4: quantised delta-encoded replay frames.
//
// A QuantizedOutputs verdict only ever looks at the outputs rounded to
// the suite's decimal precision, so the v2/v3 float payloads ship
// mostly bits the comparison throws away. A v4 session carries each
// output tensor as fixed-point integers at the requested precision,
// zig-zag varint delta-encoded against the suite's quantised reference
// outputs when the client shipped them (an intact IP then answers in
// ~one byte per value) or against the previous output of the exchange
// otherwise, and the client compares verdicts on that wire
// representation directly — v4 verdicts are the QuantizedOutputs
// verdicts by construction (internal/quant/codec.go holds the value
// codec and its exactness argument, including the raw-float escape
// that keeps diverged NaN/Inf outputs detectable).
//
// The request direction rides a replay-frame cache: validation traffic
// is the same sealed suite replayed over and over, so a request whose
// frame (inputs + references + precision) is byte-identical to one
// already sent on this connection is a fixed-size back-reference — a
// delta of nothing against the previous identical frame. Client and
// server run the same deterministic FIFO eviction (v4CacheFrames /
// v4CacheBytes, frames too big to cache are never cached by either
// side), so a back-reference can never dangle. The cache is
// per-connection state; a re-dial starts empty on both ends.
//
// Inputs are NOT quantised — they ship as exact float64 bits (denser
// than gob's float encoding), so the server evaluates exactly the
// suite's inputs and bit-identity of the evaluation is untouched.
//
// Wire protocol v5 keeps the v4 framing bit-for-bit and adds the
// shared-store capability on top: before uploading a new frame body,
// the client sends a probe — the frame's content hash (frameKey) with
// a fresh Seq and no body — and the server answers either with the
// evaluated response (store hit: the frame is pinned into this
// session's cache under Seq, and future requests back-reference it) or
// with a NeedFrame response, upon which the client re-sends the body
// under the same Seq. The store (framestore.go) is process-wide and
// content-addressed, so a re-dial re-establishes steady state at probe
// cost instead of full-frame cost. On a v5 session any unresolvable
// back-reference is likewise answered NeedFrame instead of the v4
// cache-window error, which makes client/server cache-bound mismatch
// (both ends configurable via DialOptions/ServerOptions on v5)
// self-healing rather than session-fatal; v4 sessions keep the
// compiled-in bounds and the error byte-identically.

// v4 replay-frame cache bounds, shared verbatim by a v4 session's
// client and server so their eviction decisions stay in lockstep. On
// v5 sessions they are only the defaults — each end may configure its
// own bounds, and a resulting miss self-heals via NeedFrame.
const (
	v4CacheFrames = 256
	v4CacheBytes  = 8 << 20
)

// cacheBoundsOrDefault resolves configured session-cache bounds: zero
// or negative values take the compiled v4 defaults.
func cacheBoundsOrDefault(frames, bytes int) (int, int) {
	if frames <= 0 {
		frames = v4CacheFrames
	}
	if bytes <= 0 {
		bytes = v4CacheBytes
	}
	return frames, bytes
}

// wireBits is a float64 tensor as raw little-endian IEEE 754 bits:
// exact, and ~11% denser than gob's trailing-zero-trimmed floats.
type wireBits struct {
	Shape []int
	Bits  []byte
}

// frameV4 is the cacheable content of one v4 exchange: the inputs, the
// optional quantised reference outputs (the response delta base), and
// the precision/fleet the frame evaluates under.
type frameV4 struct {
	Inputs []wireBits
	// Refs holds the concatenated codec encodings of one reference
	// frame per input (each delta-encoded against the previous), RefN
	// the value count of each; both empty when the requester has no
	// references to share.
	Refs []byte
	RefN []int
	// Decimals is the fixed-point precision of the response frames.
	Decimals uint8
	// F32 asks for evaluation on the server's float32 snapshot when it
	// has one (the v3 semantics); without one the float64 snapshot
	// answers.
	F32 bool
}

// requestV4 is one pipelined v4/v5 exchange. Frame carries a new
// replay frame numbered Seq; a nil Frame replays the cached frame Seq.
// On a v5 session a nil Frame with a Hash is a store probe: the client
// claims frame content by hash and the server either pins the stored
// frame under Seq and answers, or asks for the body with NeedFrame.
// The field is never set on v4 sessions, where gob omits it — v4
// request bytes are unchanged.
type requestV4 struct {
	ID    uint64
	Seq   uint64
	Frame *frameV4
	Hash  []byte
}

// wireQuant is one output tensor in quantised wire form.
type wireQuant struct {
	Shape []int
	Data  []byte
}

// responseV4 answers one v4/v5 exchange. NeedFrame (v5 only; gob omits
// it on v4 sessions) asks the client to re-send the request's frame
// body under the same Seq — the store-miss half of the probe exchange,
// and the self-healing answer to any unresolvable v5 back-reference.
type responseV4 struct {
	ID        uint64
	Outputs   []wireQuant
	Err       string
	NeedFrame bool
}

// shapeSize validates a wire shape and returns its element count,
// rejecting negative dimensions and products that overflow.
func shapeSize(shape []int) (int, error) {
	n := 1
	for _, d := range shape {
		if d < 0 {
			return 0, fmt.Errorf("validate: negative dimension in wire tensor")
		}
		if d > 0 && n > math.MaxInt/d {
			return 0, fmt.Errorf("validate: wire tensor shape %v overflows", shape)
		}
		n *= d
	}
	return n, nil
}

func toWireBits(t *tensor.Tensor) wireBits {
	bits := make([]byte, 8*t.Size())
	for i, v := range t.Data() {
		binary.LittleEndian.PutUint64(bits[8*i:], math.Float64bits(v))
	}
	return wireBits{Shape: append([]int(nil), t.Shape()...), Bits: bits}
}

func fromWireBits(w wireBits) (*tensor.Tensor, error) {
	n, err := shapeSize(w.Shape)
	if err != nil {
		return nil, err
	}
	if len(w.Bits) != 8*n {
		return nil, fmt.Errorf("validate: wire tensor shape %v does not match %d payload bytes", w.Shape, len(w.Bits))
	}
	data := make([]float64, n)
	for i := range data {
		data[i] = math.Float64frombits(binary.LittleEndian.Uint64(w.Bits[8*i:]))
	}
	return tensor.FromSlice(data, w.Shape...), nil
}

// frameCost is the cache-accounting size of a frame — a pure function
// of the frame content, so client and server compute identical costs.
func frameCost(fr *frameV4) int {
	cost := len(fr.Refs)
	for _, in := range fr.Inputs {
		cost += len(in.Bits)
	}
	return cost
}

// frameKey is the client-side content hash a frame is deduplicated by.
func frameKey(fr *frameV4) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(uint64(fr.Decimals))
	if fr.F32 {
		put(1)
	} else {
		put(0)
	}
	put(uint64(len(fr.Inputs)))
	for _, in := range fr.Inputs {
		put(uint64(len(in.Shape)))
		for _, d := range in.Shape {
			put(uint64(d))
		}
		put(uint64(len(in.Bits)))
		h.Write(in.Bits)
	}
	put(uint64(len(fr.RefN)))
	for _, n := range fr.RefN {
		put(uint64(n))
	}
	h.Write(fr.Refs)
	return string(h.Sum(nil))
}

// decodeRefs decodes a frame's reference block into one quantised
// frame per input.
func decodeRefs(fr *frameV4) ([]quant.Frame, error) {
	if len(fr.RefN) == 0 && len(fr.Refs) == 0 {
		return nil, nil
	}
	if len(fr.RefN) != len(fr.Inputs) {
		return nil, fmt.Errorf("validate: frame has %d reference counts for %d inputs", len(fr.RefN), len(fr.Inputs))
	}
	refs := make([]quant.Frame, len(fr.RefN))
	src := fr.Refs
	var prev quant.Frame
	for i, n := range fr.RefN {
		if n < 0 || n > len(fr.Refs) {
			// Each encoded value costs at least one byte, so a count
			// beyond the payload size is malformed (and must not drive
			// an allocation).
			return nil, fmt.Errorf("validate: reference frame %d claims %d values in a %d-byte block", i, n, len(fr.Refs))
		}
		var err error
		refs[i], src, err = quant.DecodeFrame(src, n, prev)
		if err != nil {
			return nil, fmt.Errorf("validate: reference frame %d: %w", i, err)
		}
		prev = refs[i]
	}
	if len(src) != 0 {
		return nil, fmt.Errorf("validate: %d trailing bytes after reference frames", len(src))
	}
	return refs, nil
}

// storedFrameV4 is a resolved replay frame: decoded inputs and
// references plus the evaluation parameters, ready for any number of
// replays.
type storedFrameV4 struct {
	inputs []*tensor.Tensor
	refs   []quant.Frame
	scale  float64
	f32    bool
	cost   int
}

// resolveFrameV4 validates and decodes a freshly received frame.
func resolveFrameV4(fr *frameV4) (*storedFrameV4, error) {
	if len(fr.Inputs) == 0 {
		return nil, fmt.Errorf("validate: empty query batch")
	}
	scale, err := quant.Scale(int(fr.Decimals))
	if err != nil {
		return nil, err
	}
	refs, err := decodeRefs(fr)
	if err != nil {
		return nil, err
	}
	sf := &storedFrameV4{refs: refs, scale: scale, f32: fr.F32, cost: frameCost(fr)}
	sf.inputs = make([]*tensor.Tensor, len(fr.Inputs))
	for i, in := range fr.Inputs {
		if sf.inputs[i], err = fromWireBits(in); err != nil {
			return nil, err
		}
	}
	return sf, nil
}

// frameCacheV4 is the server half of the replay-frame cache. Its
// eviction mirrors the client registry: insert keyed by the client's
// monotonically increasing Seq, skip frames over the byte cap, then
// evict smallest-Seq-first while over either bound. On a v4 session
// bodies arrive in Seq order, so Seq order IS stream order and the two
// ends stay in exact lockstep, as before. On a v5 session a NeedFrame
// re-upload can land after younger frames; ordering eviction by Seq
// (the client's registration order) rather than arrival keeps the two
// ends converging on the same retained set, and any residual miss
// self-heals via NeedFrame.
type frameCacheV4 struct {
	maxFrames int
	maxBytes  int
	frames    map[uint64]*storedFrameV4
	order     []uint64 // ascending Seq
	bytes     int
}

func newFrameCacheV4(maxFrames, maxBytes int) *frameCacheV4 {
	maxFrames, maxBytes = cacheBoundsOrDefault(maxFrames, maxBytes)
	return &frameCacheV4{maxFrames: maxFrames, maxBytes: maxBytes, frames: make(map[uint64]*storedFrameV4)}
}

func (c *frameCacheV4) insert(seq uint64, sf *storedFrameV4) {
	if sf.cost > c.maxBytes {
		return
	}
	if old, ok := c.frames[seq]; ok {
		// The lockstep client registry never re-uses a seq; a
		// hostile re-send must not leave a duplicate order entry
		// behind (its second eviction would dereference the
		// already-deleted map slot).
		c.bytes += sf.cost - old.cost
	} else {
		if n := len(c.order); n > 0 && c.order[n-1] > seq {
			// A late v5 re-upload: splice into Seq position so
			// eviction order stays the client's registration order.
			i := n
			for i > 0 && c.order[i-1] > seq {
				i--
			}
			c.order = append(c.order, 0)
			copy(c.order[i+1:], c.order[i:])
			c.order[i] = seq
		} else {
			c.order = append(c.order, seq)
		}
		c.bytes += sf.cost
	}
	c.frames[seq] = sf
	for len(c.order) > c.maxFrames || c.bytes > c.maxBytes {
		old := c.order[0]
		c.order = c.order[1:]
		c.bytes -= c.frames[old].cost
		delete(c.frames, old)
	}
}

func (c *frameCacheV4) lookup(seq uint64) (*storedFrameV4, bool) {
	sf, ok := c.frames[seq]
	return sf, ok
}

// refBase returns the delta base for output i: its reference frame
// when the request shipped references, nil otherwise (the caller then
// chains against the previous output).
func refBase(refs []quant.Frame, i int) (quant.Frame, bool) {
	if refs == nil {
		return nil, false
	}
	if i < len(refs) {
		return refs[i], true
	}
	return nil, true
}

// resolveV4 resolves one v4/v5 request to its replay frame, serially
// in stream order so the session cache mirrors the client's registry.
// A nil frame comes with the response that answers the request without
// an evaluation: NeedFrame or an error.
func (s *Server) resolveV4(version byte, cache *frameCacheV4, req requestV4) (*storedFrameV4, responseV4) {
	resp := responseV4{ID: req.ID}
	if req.Frame != nil {
		sf, err := resolveFrameV4(req.Frame)
		if err != nil {
			resp.Err = err.Error()
			return nil, resp
		}
		cache.insert(req.Seq, sf)
		if version >= protocolV5 {
			// Content-address the body under a key this side computed
			// from the received bytes — a client-claimed hash can never
			// bind foreign content.
			s.store.insert(frameKey(req.Frame), sf)
		}
		return sf, resp
	}
	if sf, ok := cache.lookup(req.Seq); ok {
		return sf, resp
	}
	if version < protocolV5 {
		resp.Err = fmt.Sprintf("validate: replay frame %d is not in this session's cache window", req.Seq)
		return nil, resp
	}
	if len(req.Hash) > 0 {
		if sf, ok := s.store.lookup(string(req.Hash)); ok {
			// Probe hit: pin the stored frame into this session's cache
			// under the client's seq so later back-references resolve.
			cache.insert(req.Seq, sf)
			return sf, resp
		}
	}
	// Anything unresolvable on a v5 session — a probe whose hash the
	// store misses, or a back-reference outside this session's window —
	// is answered NeedFrame: the client re-sends the body and the
	// exchange self-heals.
	resp.NeedFrame = true
	return nil, resp
}

// answerV4 evaluates one v4/v5 request's resolved frame and quantises
// each output at the frame's precision, delta-encoded against its
// reference frame (or the previous output). On the float64 snapshot
// the outputs are exactly the QuantizedOutputs view of a v2 replay; on
// the float32 snapshot each value was widened exactly from float32 —
// the same computation a local QuantizedOutputs replay of the float32
// path performs.
func answerV4(run evalFunc, sf *storedFrameV4, id uint64) responseV4 {
	resp := responseV4{ID: id}
	outs, err := run(sf.inputs)
	if err != nil {
		resp.Err = err.Error()
		return resp
	}
	resp.Outputs = make([]wireQuant, len(outs))
	var prev quant.Frame
	for i, o := range outs {
		f := quant.QuantizeFrame(o.Data(), sf.scale)
		base, haveRefs := refBase(sf.refs, i)
		if !haveRefs {
			base = prev
		}
		resp.Outputs[i] = wireQuant{Shape: append([]int(nil), o.Shape()...), Data: quant.AppendFrame(nil, f, base)}
		prev = f
	}
	return resp
}

// v4sent is one client-side cache registry entry.
type v4sent struct {
	seq  uint64
	key  string
	cost int
}

// v4upload tracks one in-flight v5 probe/upload. Until the uploader
// confirms the server can resolve the frame's seq — a probe answered
// from the store, or the body written to the stream — concurrent
// callers of the same frame must not back-reference it: they park on
// done instead of racing a reference ahead of the body. done is closed
// exactly once, by v4resolveUpload.
type v4upload struct {
	seq  uint64
	done chan struct{}
}

// v4register records a frame about to be sent as new and returns its
// sequence number, mirroring the server cache's eviction so future
// back-references stay resolvable. Caller holds sendMu.
func (r *RemoteIP) v4register(key string, cost int) uint64 {
	r.v4seq++
	seq := r.v4seq
	if cost > r.cacheBytes {
		return seq
	}
	r.v4known[key] = seq
	r.v4order = append(r.v4order, v4sent{seq: seq, key: key, cost: cost})
	r.v4bytes += cost
	for len(r.v4order) > r.cacheFrames || r.v4bytes > r.cacheBytes {
		old := r.v4order[0]
		r.v4order = r.v4order[1:]
		r.v4bytes -= old.cost
		// A re-sent frame may have re-mapped this key to a newer seq;
		// only drop the mapping this entry still owns.
		if r.v4known[old.key] == old.seq {
			delete(r.v4known, old.key)
		}
	}
	return seq
}

// v4resolveUpload finishes an in-flight upload and releases its
// waiters. ok reports whether the server can now resolve the frame's
// seq; on failure the registry mapping is dropped (if this upload
// still owns it) so waiters re-probe instead of back-referencing a
// frame the server never got.
func (r *RemoteIP) v4resolveUpload(key string, up *v4upload, ok bool) {
	r.sendMu.Lock()
	if r.v4pending[key] == up {
		delete(r.v4pending, key)
	}
	if !ok && r.v4known[key] == up.seq {
		delete(r.v4known, key)
	}
	r.sendMu.Unlock()
	close(up.done)
}

// QuantWire reports whether this session speaks the quantised dialect,
// v4 or higher (QueryQuant is only meaningful when it does).
func (r *RemoteIP) QuantWire() bool { return r.version >= protocolV4 }

// QueryQuant implements QuantIP: evaluate xs and return each output as
// a quantised wire frame at decimals. refs, when non-nil, must hold
// one quantised reference frame per input; the response is then
// delta-encoded against them, which an intact IP answers in about a
// byte per value. The frames are compared with quant.Fixed.Matches —
// never dequantised — so replay verdicts equal local QuantizedOutputs
// verdicts exactly.
func (r *RemoteIP) QueryQuant(xs []*tensor.Tensor, refs []quant.Frame, decimals int) ([]quant.Frame, error) {
	frames, _, err := r.queryQuant(xs, refs, decimals)
	return frames, err
}

// queryQuant is QueryQuant plus the output shapes (QueryBatch needs
// them to rebuild tensors; verdicts do not).
func (r *RemoteIP) queryQuant(xs []*tensor.Tensor, refs []quant.Frame, decimals int) ([]quant.Frame, [][]int, error) {
	if r.version < protocolV4 {
		return nil, nil, &QueryError{Msg: fmt.Sprintf(
			"validate: quantised queries need a v%d session — dial with Wire: WireQuant", protocolV4)}
	}
	if len(xs) == 0 {
		return nil, nil, &QueryError{Msg: "validate: empty query batch"}
	}
	if refs != nil && len(refs) != len(xs) {
		return nil, nil, &QueryError{Msg: fmt.Sprintf("validate: %d reference frames for %d queries", len(refs), len(xs))}
	}
	if _, err := quant.Scale(decimals); err != nil {
		return nil, nil, &QueryError{Msg: err.Error()}
	}

	fr := &frameV4{Decimals: uint8(decimals), F32: r.opts.F32}
	fr.Inputs = make([]wireBits, len(xs))
	for i, x := range xs {
		fr.Inputs[i] = toWireBits(x)
	}
	if refs != nil {
		fr.RefN = make([]int, len(refs))
		var prev quant.Frame
		for i, rf := range refs {
			fr.RefN[i] = len(rf)
			fr.Refs = quant.AppendFrame(fr.Refs, rf, prev)
			prev = rf
		}
	}
	key, cost := frameKey(fr), frameCost(fr)

	id, ch, err := r.v4call()
	if err != nil {
		return nil, nil, err
	}

	req := requestV4{ID: id}
	var up *v4upload
	r.sendMu.Lock()
	for {
		pend, waiting := r.v4pending[key]
		if !waiting {
			break
		}
		// Another caller's probe/upload of this very frame is in
		// flight; a back-reference sent now could race ahead of its
		// body. Park until it resolves, then re-examine the registry.
		r.sendMu.Unlock()
		<-pend.done
		r.sendMu.Lock()
	}
	if seq, ok := r.v4known[key]; ok {
		req.Seq = seq // a frame the server already holds: back-reference it
	} else {
		req.Seq = r.v4register(key, cost)
		if r.version >= protocolV5 {
			// v5: claim the content by hash first. The body only
			// ships if both the session cache and the shared store
			// miss (the NeedFrame reply below).
			req.Hash = []byte(key)
			up = &v4upload{seq: req.Seq, done: make(chan struct{})}
			r.v4pending[key] = up
		} else {
			req.Frame = fr
		}
	}
	r.conn.SetWriteDeadline(time.Now().Add(r.opts.WriteTimeout))
	err = r.enc.Encode(req)
	r.sendMu.Unlock()
	if err != nil {
		r.fail(fmt.Errorf("validate: send query: %w", err))
	}

	resp, ok := <-ch
	if up != nil && (!ok || !resp.NeedFrame) {
		// The probe resolved without a body upload — a store hit
		// pinned the frame server-side (or the transport died);
		// either way the waiters must proceed.
		r.v4resolveUpload(key, up, ok)
	}
	if !ok {
		r.mu.Lock()
		err := r.err
		r.mu.Unlock()
		return nil, nil, err
	}
	if resp.NeedFrame {
		if resp, ok = r.v4sendBody(req.Seq, fr, key, up); !ok {
			r.mu.Lock()
			err := r.err
			r.mu.Unlock()
			return nil, nil, err
		}
		if resp.NeedFrame {
			return nil, nil, fmt.Errorf("validate: replica protocol violation: NeedFrame answered a full frame body")
		}
	}
	if resp.Err != "" {
		return nil, nil, &QueryError{Msg: resp.Err}
	}
	if len(resp.Outputs) != len(xs) {
		return nil, nil, fmt.Errorf("validate: replica protocol violation: batch answered %d outputs for %d queries", len(resp.Outputs), len(xs))
	}
	return decodeQuantOutputs(resp.Outputs, refs)
}

// v4call registers one quantised exchange: a fresh request ID and the
// channel its response will arrive on, with the receive loop nudged
// awake. Fails fast on a poisoned transport.
func (r *RemoteIP) v4call() (uint64, chan responseV4, error) {
	r.mu.Lock()
	if r.err != nil {
		err := r.err
		r.mu.Unlock()
		return 0, nil, err
	}
	r.nextID++
	id := r.nextID
	ch := make(chan responseV4, 1)
	r.pendingQ[id] = ch
	r.mu.Unlock()
	select {
	case r.wake <- struct{}{}:
	default:
	}
	return id, ch, nil
}

// v4sendBody answers a NeedFrame reply: ship the frame body under the
// same seq as a second exchange and return its response. up, when
// non-nil, is this caller's own in-flight upload, resolved the moment
// the body bytes are on the stream — every later back-reference then
// provably trails the body, because both go through sendMu.
func (r *RemoteIP) v4sendBody(seq uint64, fr *frameV4, key string, up *v4upload) (responseV4, bool) {
	id, ch, err := r.v4call()
	if err != nil {
		if up != nil {
			r.v4resolveUpload(key, up, false)
		}
		return responseV4{}, false
	}
	req := requestV4{ID: id, Seq: seq, Frame: fr}
	r.sendMu.Lock()
	r.conn.SetWriteDeadline(time.Now().Add(r.opts.WriteTimeout))
	err = r.enc.Encode(req)
	r.sendMu.Unlock()
	if up != nil {
		r.v4resolveUpload(key, up, err == nil)
	}
	if err != nil {
		r.fail(fmt.Errorf("validate: send query: %w", err))
	}
	resp, ok := <-ch
	return resp, ok
}

// decodeQuantOutputs validates and delta-decodes a v4 response's
// output frames against the request's reference frames (nil refs chain
// each output against the previous one), mirroring the server's
// encoder. It is safe on arbitrary response bytes — malformed shapes,
// counts, and streams are errors, never panics or length-driven
// allocations (the fuzz target drives it directly).
func decodeQuantOutputs(outs []wireQuant, refs []quant.Frame) ([]quant.Frame, [][]int, error) {
	frames := make([]quant.Frame, len(outs))
	shapes := make([][]int, len(outs))
	var prev quant.Frame
	for i, wq := range outs {
		n, err := shapeSize(wq.Shape)
		if err != nil {
			return nil, nil, fmt.Errorf("validate: replica protocol violation: %w", err)
		}
		if n > len(wq.Data) {
			// Every encoded value costs at least one byte; reject before
			// the length can drive an allocation.
			return nil, nil, fmt.Errorf("validate: replica protocol violation: output %d claims %d values in %d bytes", i, n, len(wq.Data))
		}
		base, haveRefs := refBase(refs, i)
		if !haveRefs {
			base = prev
		}
		frame, rest, err := quant.DecodeFrame(wq.Data, n, base)
		if err != nil || len(rest) != 0 {
			return nil, nil, fmt.Errorf("validate: replica protocol violation: malformed quantised output %d (%v, %d trailing bytes)", i, err, len(rest))
		}
		frames[i], shapes[i] = frame, wq.Shape
		prev = frame
	}
	return frames, shapes, nil
}
