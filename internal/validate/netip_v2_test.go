package validate

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// testInputs returns n deterministic in-domain inputs for the golden
// network.
func testInputs(n int, seed int64) []*tensor.Tensor {
	rng := rand.New(rand.NewSource(seed))
	xs := make([]*tensor.Tensor, n)
	for i := range xs {
		xs[i] = tensor.New(1, 10, 10)
		xs[i].FillNormal(rng, 0.5, 0.2)
		xs[i].Clamp(0, 1)
	}
	return xs
}

// TestRemoteQueryBatchMatchesLocal: a batched wire exchange must return
// outputs bit-identical to local per-sample forwards.
func TestRemoteQueryBatchMatchesLocal(t *testing.T) {
	_, addr := startServer(t)
	ip, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer ip.Close()

	xs := testInputs(7, 11)
	local := LocalIP{Net: goldenNet()}
	got, err := ip.QueryBatch(xs)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(xs) {
		t.Fatalf("got %d outputs for %d queries", len(got), len(xs))
	}
	for i, x := range xs {
		want, err := local.Query(x)
		if err != nil {
			t.Fatal(err)
		}
		for j := range want.Data() {
			if got[i].Data()[j] != want.Data()[j] {
				t.Fatalf("batched remote output %d differs at %d", i, j)
			}
		}
	}
}

// TestConcurrentClientsOneServer: many simultaneous client connections
// against one server must all get bit-identical answers. Run under
// -race this is the no-global-mutex test: handlers evaluate
// concurrently on pooled clones, and any shared-state race between them
// would fire here.
func TestConcurrentClientsOneServer(t *testing.T) {
	_, addr := startServer(t)
	xs := testInputs(6, 21)
	wants := make([]*tensor.Tensor, len(xs))
	local := LocalIP{Net: goldenNet()}
	for i, x := range xs {
		w, err := local.Query(x)
		if err != nil {
			t.Fatal(err)
		}
		wants[i] = w
	}

	const clients = 8
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			ip, err := Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer ip.Close()
			for round := 0; round < 5; round++ {
				i := (c + round) % len(xs)
				var got *tensor.Tensor
				if round%2 == 0 {
					got, err = ip.Query(xs[i])
				} else {
					var outs []*tensor.Tensor
					outs, err = ip.QueryBatch(xs[i : i+1])
					if err == nil {
						got = outs[0]
					}
				}
				if err != nil {
					errs <- err
					return
				}
				for j := range wants[i].Data() {
					if got.Data()[j] != wants[i].Data()[j] {
						errs <- errors.New("concurrent client saw a wrong answer")
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestRemoteSharedClientPipelining: one RemoteIP used by many
// goroutines must pipeline safely over its single connection, every
// caller getting its own matching response.
func TestRemoteSharedClientPipelining(t *testing.T) {
	_, addr := startServer(t)
	ip, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer ip.Close()

	xs := testInputs(5, 31)
	wants := make([]*tensor.Tensor, len(xs))
	local := LocalIP{Net: goldenNet()}
	for i, x := range xs {
		w, qerr := local.Query(x)
		if qerr != nil {
			t.Fatal(qerr)
		}
		wants[i] = w
	}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 10; round++ {
				i := (g + round) % len(xs)
				got, err := ip.Query(xs[i])
				if err != nil {
					errs <- err
					return
				}
				for j := range wants[i].Data() {
					if got.Data()[j] != wants[i].Data()[j] {
						errs <- errors.New("pipelined response mismatched its request")
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestV1ClientGetsVersionMismatchError: a pre-handshake (v1) client
// opens with a bare gob request; the v2 server must answer in the v1
// response dialect with a descriptive version error, not break the gob
// stream.
func TestV1ClientGetsVersionMismatchError(t *testing.T) {
	_, addr := startServer(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))

	// Speak v1: encode a single-input request with no preamble.
	x := testInputs(1, 41)[0]
	if err := gob.NewEncoder(conn).Encode(queryRequest{Input: toWire(x)}); err != nil {
		t.Fatal(err)
	}
	var resp queryResponse
	if err := gob.NewDecoder(conn).Decode(&resp); err != nil {
		t.Fatalf("v1 client could not decode the server's reply: %v", err)
	}
	if !strings.Contains(resp.Err, "protocol version mismatch") {
		t.Fatalf("v1 client error = %q, want a version mismatch explanation", resp.Err)
	}
}

// TestV1OpenersNeverReset: the replies to connections the server will
// not serve — a bare-gob v1 request, and a preamble with version byte 1
// followed by a request — must always arrive intact. The server answers
// after reading only 5 bytes; closing over the rest of the request
// resets the connection (RFC 1122 §4.2.2.13), failing the client's
// write or discarding the reply in flight, so the race shows within a
// few hundred tries unless the server lingers and drains.
func TestV1OpenersNeverReset(t *testing.T) {
	_, addr := startServer(t)
	x := testInputs(1, 41)[0]
	openers := []struct {
		name string
		open func(net.Conn) error
	}{
		{"bare-gob", func(conn net.Conn) error {
			if err := gob.NewEncoder(conn).Encode(queryRequest{Input: toWire(x)}); err != nil {
				return err
			}
			var resp queryResponse
			if err := gob.NewDecoder(conn).Decode(&resp); err != nil {
				return err
			}
			if !strings.Contains(resp.Err, "protocol version mismatch") {
				return fmt.Errorf("reply %q names no version mismatch", resp.Err)
			}
			return nil
		}},
		{"preamble-v1", func(conn net.Conn) error {
			if _, err := conn.Write(preambleV(1)); err != nil {
				return err
			}
			if err := gob.NewEncoder(conn).Encode(queryRequest{Input: toWire(x)}); err != nil {
				return err
			}
			var hello [5]byte
			if _, err := io.ReadFull(conn, hello[:]); err != nil {
				return err
			}
			if string(hello[:4]) != string(protocolMagic[:]) || hello[4] != protocolV2 {
				return fmt.Errorf("echo %q, want the magic and v%d", hello[:], protocolV2)
			}
			return nil
		}},
	}
	for i := 0; i < 300; i++ {
		for _, o := range openers {
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			conn.SetDeadline(time.Now().Add(5 * time.Second))
			err = o.open(conn)
			conn.Close()
			if err != nil {
				t.Fatalf("%s opener, try %d: %v", o.name, i, err)
			}
		}
	}
}

// TestCloseCutsLingerShort: Server.Close must not wait out the
// lingering drain of a client that got its v1 reply and keeps the
// connection open.
func TestCloseCutsLingerShort(t *testing.T) {
	srv, addr := startServer(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	if err := gob.NewEncoder(conn).Encode(queryRequest{Input: toWire(testInputs(1, 41)[0])}); err != nil {
		t.Fatal(err)
	}
	var resp queryResponse
	if err := gob.NewDecoder(conn).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	srv.Close()
	if d := time.Since(start); d >= lingerTimeout/2 {
		t.Fatalf("Close took %v with a lingering connection open, want well under the %v drain bound", d, lingerTimeout)
	}
}

// TestV2ClientAgainstSilentCloser: a server that closes during the
// handshake (as a v1 server, expecting bare gob, would after failing to
// decode our preamble) must produce a descriptive dial error.
func TestV2ClientAgainstSilentCloser(t *testing.T) {
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
		var buf [5]byte
		io.ReadFull(conn, buf[:]) // consume the hello like a confused v1 decoder
		conn.Close()              // and hang up without replying
	}()
	_, err = Dial(l.Addr().String())
	if err == nil {
		t.Fatal("dial to a handshake-less server succeeded")
	}
	if !strings.Contains(err.Error(), "handshake") {
		t.Fatalf("dial error = %v, want a handshake explanation", err)
	}
}

// TestV2ClientAgainstFutureVersion: a server advertising a different
// protocol version must be reported by number, not as a decode failure.
func TestV2ClientAgainstFutureVersion(t *testing.T) {
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
		conn.Write([]byte{'D', 'N', 'N', 'V', 99})
	}()
	_, err = Dial(l.Addr().String())
	if err == nil || !strings.Contains(err.Error(), "server speaks v99") {
		t.Fatalf("dial error = %v, want a v99 version mismatch", err)
	}
}

// TestV2ClientAgainstForeignService: a service that answers with
// something other than the protocol magic is not a dnnval endpoint.
func TestV2ClientAgainstForeignService(t *testing.T) {
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
		conn.Write([]byte("HTTP/1.1 400 Bad Request\r\n"))
	}()
	_, err = Dial(l.Addr().String())
	if err == nil || !strings.Contains(err.Error(), "not a dnnval IP endpoint") {
		t.Fatalf("dial error = %v, want a bad-magic explanation", err)
	}
}

// TestReadTimeoutOnHungServer: a server that completes the handshake
// and then goes silent must fail the query within the configured read
// timeout, with an error that says what happened — not block forever.
func TestReadTimeoutOnHungServer(t *testing.T) {
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
		if _, err := io.ReadFull(conn, buf[:]); err != nil {
			return
		}
		conn.Write(preambleV(protocolV2))
		// Read the request so the client's send succeeds, then hang.
		io.Copy(io.Discard, conn)
	}()

	ip, err := DialWith(l.Addr().String(), DialOptions{ReadTimeout: 150 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer ip.Close()
	done := make(chan error, 1)
	go func() {
		_, qerr := ip.Query(testInputs(1, 51)[0])
		done <- qerr
	}()
	select {
	case qerr := <-done:
		if qerr == nil {
			t.Fatal("query against a hung server succeeded")
		}
		if !strings.Contains(qerr.Error(), "server hung or unreachable") {
			t.Fatalf("hung-server error = %v, want a timeout explanation", qerr)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("query against a hung server blocked past its read timeout")
	}
}

// TestServerCloseUnblocksIdleClients: Close must drain and return even
// while clients are connected and idle. (The v1 server's Close waited
// for every client to hang up first — a regression guard on the drain.)
func TestServerCloseUnblocksIdleClients(t *testing.T) {
	srv, addr := startServer(t)
	ip, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer ip.Close()
	// Prove the session is live, then leave it idle.
	if _, err := ip.Query(testInputs(1, 61)[0]); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("close with an idle client: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close blocked on an idle client connection")
	}
	// The poisoned session reports the failure on its next use.
	if _, err := ip.Query(testInputs(1, 62)[0]); err == nil {
		t.Fatal("query on a drained connection succeeded")
	}
}

// TestServerCloseDrainsInFlight: requests pipelined before Close are
// either answered correctly or failed with a transport error — never a
// wrong answer, never a hang — and Close itself completes.
func TestServerCloseDrainsInFlight(t *testing.T) {
	srv, addr := startServer(t)
	ip, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer ip.Close()
	xs := testInputs(4, 71)
	want, err := LocalIP{Net: goldenNet()}.Query(xs[0])
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	bad := make(chan string, 32)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				got, qerr := ip.Query(xs[0])
				if qerr != nil {
					return // transport failure during shutdown is fine
				}
				for j := range want.Data() {
					if got.Data()[j] != want.Data()[j] {
						bad <- "wrong answer during drain"
						return
					}
				}
			}
		}()
	}
	time.Sleep(20 * time.Millisecond)
	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatalf("close during traffic: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close blocked while draining in-flight requests")
	}
	wg.Wait()
	close(bad)
	for msg := range bad {
		t.Fatal(msg)
	}
}

// TestServerHotParamSync: SyncParamsFrom must atomically repoint the
// served parameters; queries after it see the new model.
func TestServerHotParamSync(t *testing.T) {
	srv, addr := startServer(t)
	ip, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer ip.Close()

	x := testInputs(1, 81)[0]
	before, err := ip.Query(x)
	if err != nil {
		t.Fatal(err)
	}
	tampered := goldenNet().Clone()
	tampered.SetParamAt(0, tampered.ParamAt(0)+3)
	srv.SyncParamsFrom(tampered)
	after, err := ip.Query(x)
	if err != nil {
		t.Fatal(err)
	}
	want := tampered.Forward(x)
	same := true
	for j := range want.Data() {
		if after.Data()[j] != want.Data()[j] {
			t.Fatalf("post-sync output differs from tampered model at %d", j)
		}
		if after.Data()[j] != before.Data()[j] {
			same = false
		}
	}
	if same {
		t.Fatal("hot parameter sync did not change the served outputs")
	}
}

// TestServerSyncMismatchKeepsServing: a hot sync from a network with
// another parameter registry panics with Network.SyncParamsFrom's
// message before anything changes. Afterwards the server still answers
// with the old parameters, and it still closes.
func TestServerSyncMismatchKeepsServing(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := ServeWith(l, goldenNet(), ServerOptions{Workers: 2})
	ip, err := DialWith(srv.Addr(), DialOptions{ReadTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer ip.Close()

	bad := nn.NewNetwork(nn.NewDense("fc", 100, 10))
	panicOf := func(sync func(*nn.Network)) (msg any) {
		defer func() { msg = recover() }()
		sync(bad)
		return nil
	}
	want := panicOf(goldenNet().Clone().SyncParamsFrom)
	if got := panicOf(srv.SyncParamsFrom); got == nil || fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("mismatched sync panicked with %v, want %v", got, want)
	}

	x := testInputs(1, 83)[0]
	got, err := ip.Query(x)
	if err != nil {
		t.Fatalf("query after a mismatched sync: %v", err)
	}
	for j, w := range goldenNet().Forward(x).Data() {
		if got.Data()[j] != w {
			t.Fatalf("output %d after a mismatched sync = %v, want the old parameters' %v", j, got.Data()[j], w)
		}
	}

	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close hangs after a mismatched sync")
	}
}

// TestRemoteEmptyBatchRejected: an empty batch is a QueryError, locally
// rejected without a wire exchange.
func TestRemoteEmptyBatchRejected(t *testing.T) {
	_, addr := startServer(t)
	ip, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer ip.Close()
	var qe *QueryError
	if _, err := ip.QueryBatch(nil); !errors.As(err, &qe) {
		t.Fatalf("empty batch error = %v, want QueryError", err)
	}
}
