package session

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mhdedup/internal/events"
	"mhdedup/internal/hashutil"
	"mhdedup/internal/metrics"
	"mhdedup/internal/wire"
)

// state is the owner payload the tests hang on a session.
type state struct {
	token   uint64
	expired atomic.Int32 // OnExpire calls
	aborted atomic.Bool  // the last one was aborting
}

func testConfig(t *testing.T) Config[*state] {
	return Config[*state]{
		Name:          "test",
		EventPrefix:   "session.",
		Window:        8,
		MaxSessions:   4,
		ResumeTimeout: time.Hour,
		Registry:      metrics.NewRegistry(),
		Events:        events.New(events.Options{Level: events.LevelDebug, Logf: t.Logf}),
		New:           func(token uint64, _ wire.Hello) *state { return &state{token: token} },
		OnExpire: func(s *state, aborting bool) {
			s.expired.Add(1)
			s.aborted.Store(aborting)
		},
	}
}

func mustAttach(t *testing.T, tab *Table[*state], hello wire.Hello) *state {
	t.Helper()
	s, em := tab.Attach(hello)
	if em != nil {
		t.Fatalf("attach %+v: %v", hello, em)
	}
	return s
}

func wantRefusal(t *testing.T, em *wire.ErrorMsg, code uint16, retryable bool) {
	t.Helper()
	if em == nil {
		t.Fatalf("admitted, want refusal code %d", code)
	}
	if em.Code != code || em.Retryable != retryable {
		t.Fatalf("refusal = code %d retryable %v (%s), want code %d retryable %v",
			em.Code, em.Retryable, em.Msg, code, retryable)
	}
}

// TestEpochStaleExpiryIsNoop reproduces the resume-vs-expiry race
// deterministically. The dangerous interleaving is: the resume-window
// timer fires and blocks on the table lock, a resume commits, and only
// then does the fired timer body run. It must not tear down the freshly
// re-attached session. The fired-and-blocked timer is simulated by
// calling the timer body with the epoch it was armed in, after the
// resume committed.
func TestEpochStaleExpiryIsNoop(t *testing.T) {
	cfg := testConfig(t)
	tab := NewTable(&cfg)
	s := mustAttach(t, tab, wire.Hello{})
	tab.Detach(s.token)
	tab.mu.Lock()
	armed := tab.sessions[s.token].epoch
	tab.mu.Unlock()

	if again := mustAttach(t, tab, wire.Hello{ResumeToken: s.token}); again != s {
		t.Fatal("resume returned a different session state")
	}
	tab.expireArmed(s.token, armed) // the raced timer body runs now

	if n := tab.Len(); n != 1 {
		t.Fatalf("%d sessions after a stale expiry fired, want 1", n)
	}
	tab.mu.Lock()
	attached := tab.sessions[s.token].attached
	tab.mu.Unlock()
	if !attached || s.expired.Load() != 0 {
		t.Fatalf("stale expiry touched a live session: attached=%v expired=%d", attached, s.expired.Load())
	}

	// The same body with the epoch the session is parked in does expire it
	// — exactly once, aborting.
	tab.Detach(s.token)
	tab.mu.Lock()
	armed = tab.sessions[s.token].epoch
	tab.mu.Unlock()
	tab.expireArmed(s.token, armed)
	tab.expireArmed(s.token, armed)
	if tab.Len() != 0 || s.expired.Load() != 1 || !s.aborted.Load() {
		t.Fatalf("armed expiry: len=%d expired=%d aborted=%v, want 0, 1, true",
			tab.Len(), s.expired.Load(), s.aborted.Load())
	}
	if _, em := tab.Attach(wire.Hello{ResumeToken: s.token}); em == nil || em.Code != wire.CodeNotFound {
		t.Fatalf("resume of an expired session: %v, want NotFound", em)
	}
}

// TestEpochResumeExpiryStress races real timers against real resumes at
// the edge of a tiny resume window, from several goroutines. Whenever a
// resume wins, the session must outlive the (now stale) timer.
func TestEpochResumeExpiryStress(t *testing.T) {
	const window = 5 * time.Millisecond
	cfg := testConfig(t)
	cfg.ResumeTimeout = window
	cfg.MaxSessions = 64
	tab := NewTable(&cfg)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 25; i++ {
				s, em := tab.Attach(wire.Hello{})
				if em != nil {
					t.Errorf("attach: %v", em)
					return
				}
				tab.Detach(s.token)
				time.Sleep(window - time.Duration(rng.Intn(3))*time.Millisecond)
				if _, em := tab.Attach(wire.Hello{ResumeToken: s.token}); em != nil {
					// The timer won; that must read as NotFound.
					if em.Code != wire.CodeNotFound {
						t.Errorf("lost race gave code %d, want NotFound", em.Code)
					}
					continue
				}
				time.Sleep(3 * window)
				if s.expired.Load() != 0 {
					t.Errorf("resumed session %d was torn down by a stale timer", s.token)
				}
				tab.Expire(s.token, false)
			}
		}(int64(g))
	}
	wg.Wait()
	if n := tab.Len(); n != 0 {
		t.Fatalf("%d sessions left", n)
	}
}

func TestTableAdmission(t *testing.T) {
	cfg := testConfig(t)
	cfg.MaxSessions = 2
	var refuse atomic.Bool
	cfg.Admit = func(wire.Hello) *wire.ErrorMsg {
		if refuse.Load() {
			return &wire.ErrorMsg{Code: wire.CodeOverloaded, Retryable: true, Msg: "behind"}
		}
		return nil
	}
	tab := NewTable(&cfg)

	a := mustAttach(t, tab, wire.Hello{Tenant: "acme"})
	b := mustAttach(t, tab, wire.Hello{})
	_, em := tab.Attach(wire.Hello{})
	wantRefusal(t, em, wire.CodeBusy, true) // MaxSessions counts attached…
	tab.Detach(a.token)
	_, em = tab.Attach(wire.Hello{})
	wantRefusal(t, em, wire.CodeBusy, true) // …and parked sessions

	_, em = tab.Attach(wire.Hello{ResumeToken: 0xdead})
	wantRefusal(t, em, wire.CodeNotFound, false)
	_, em = tab.Attach(wire.Hello{ResumeToken: a.token, Tenant: "initech"})
	wantRefusal(t, em, wire.CodeNotFound, false) // a token never crosses tenants
	_, em = tab.Attach(wire.Hello{ResumeToken: b.token})
	wantRefusal(t, em, wire.CodeBusy, true) // b still has its connection

	// The admit hook sheds new sessions, never resumes.
	refuse.Store(true)
	tab.Expire(b.token, false)
	if b.expired.Load() != 1 || b.aborted.Load() {
		t.Fatalf("orderly expire: expired=%d aborting=%v", b.expired.Load(), b.aborted.Load())
	}
	_, em = tab.Attach(wire.Hello{})
	wantRefusal(t, em, wire.CodeOverloaded, true)
	mustAttach(t, tab, wire.Hello{ResumeToken: a.token, Tenant: "acme"})
	refuse.Store(false)

	reg := cfg.Registry.Snapshot()
	if reg["test.sessions.total"] != 2 || reg["test.sessions.resumed"] != 1 || reg["test.sessions.active"] != 1 {
		t.Fatalf("counters = %v", reg)
	}
}

// TestDrainExpiresParkedKeepsAttached is the table half of the drain
// contract: parked sessions go at once (nothing can reattach), attached
// ones stay until their handler lets go, and a handler that detaches
// while draining expires its session instead of parking it.
func TestDrainExpiresParkedKeepsAttached(t *testing.T) {
	cfg := testConfig(t)
	tab := NewTable(&cfg)
	parked := mustAttach(t, tab, wire.Hello{})
	live := mustAttach(t, tab, wire.Hello{})
	tab.Detach(parked.token)

	tab.Drain()
	if parked.expired.Load() != 1 || !parked.aborted.Load() {
		t.Fatalf("parked session after Drain: expired=%d aborting=%v", parked.expired.Load(), parked.aborted.Load())
	}
	if live.expired.Load() != 0 || tab.Len() != 1 {
		t.Fatalf("attached session after Drain: expired=%d len=%d", live.expired.Load(), tab.Len())
	}
	_, em := tab.Attach(wire.Hello{})
	wantRefusal(t, em, wire.CodeDraining, true)

	tab.Detach(live.token)
	if live.expired.Load() != 1 || tab.Len() != 0 {
		t.Fatalf("detach while draining: expired=%d len=%d, want expired at once", live.expired.Load(), tab.Len())
	}
}

// ---------------------------------------------------------------------------
// Endpoint and Dial, over in-memory pipes.

// pipeListener hands Serve the server side of every pipe dial makes.
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func newPipeListener() *pipeListener {
	return &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error   { l.once.Do(func() { close(l.done) }); return nil }
func (l *pipeListener) Addr() net.Addr { return &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1)} }

func (l *pipeListener) dial(string) (net.Conn, error) {
	near, far := net.Pipe()
	select {
	case l.conns <- far:
		return near, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

// startEndpoint serves cfg on a pipe listener. Ingest sessions echo
// HelloOK and then hold the session until the client hangs up.
func startEndpoint(t *testing.T, cfg Config[*state]) (*Endpoint[*state], *pipeListener) {
	t.Helper()
	var ep *Endpoint[*state]
	cfg.Limits = Limits{IdleTimeout: 5 * time.Second, WriteTimeout: 5 * time.Second, MaxPayload: 4096}
	cfg.Ingest = func(c *Conn, hello wire.Hello, s *state) {
		ok := wire.HelloOK{SessionToken: s.token, Window: 8, MaxPayload: 4096}
		if c.Write(wire.TypeHelloOK, ok.Marshal()) == nil {
			if f, err := c.Read(); err == nil && f.Type == wire.TypeClose {
				ep.Sessions.Expire(s.token, false)
				c.Write(wire.TypeCloseOK, nil)
				return
			}
		}
		ep.Sessions.Detach(s.token)
	}
	if cfg.Restore == nil {
		cfg.Restore = func(c *Conn, tenant string) { c.Read() }
	}
	ep = NewEndpoint(cfg)
	ln := newPipeListener()
	served := make(chan error, 1)
	go func() { served <- ep.Serve(ln) }()
	t.Cleanup(func() {
		ep.Close()
		if err := <-served; err != nil {
			t.Errorf("Serve returned %v after Close", err)
		}
	})
	return ep, ln
}

func TestHandshakeHostileClients(t *testing.T) {
	cfg := testConfig(t)
	cfg.Authenticate = func(tenant, secret string) error {
		if secret != "s3cret" {
			return errors.New("bad secret")
		}
		return nil
	}
	_, ln := startEndpoint(t, cfg)
	lim := Limits{IdleTimeout: 5 * time.Second, WriteTimeout: 5 * time.Second}

	for _, tc := range []struct {
		name  string
		hello wire.Hello
		code  uint16
	}{
		{"bad tenant", wire.Hello{Mode: wire.ModeIngest, Tenant: "no/slashes", Secret: "s3cret"}, wire.CodeHandshake},
		{"auth refusal", wire.Hello{Mode: wire.ModeIngest, Tenant: "acme", Secret: "guess"}, wire.CodeHandshake},
		{"unknown mode", wire.Hello{Mode: 99, Secret: "s3cret"}, wire.CodeProtocol},
		{"mode without a callback", wire.Hello{Mode: wire.ModePeer, Secret: "s3cret"}, wire.CodeProtocol},
		{"unknown resume token", wire.Hello{Mode: wire.ModeIngest, Secret: "s3cret", ResumeToken: 7}, wire.CodeNotFound},
	} {
		_, _, err := Dial(ln.dial, "", tc.hello, lim, Meter{})
		var em wire.ErrorMsg
		if !errors.As(err, &em) || em.Code != tc.code || em.Retryable {
			t.Errorf("%s: Dial error = %v, want non-retryable code %d", tc.name, err, tc.code)
		}
	}

	// A first frame that is not Hello is refused by name.
	nc, _ := ln.dial("")
	c := NewConn(nc, lim, Meter{})
	c.Write(wire.TypeListReq, nil)
	if _, err := c.Expect(wire.TypeHelloOK); !errors.As(err, new(wire.ErrorMsg)) {
		t.Errorf("non-Hello first frame: %v, want an Error frame", err)
	}
	c.Close()

	// A Hello that does not parse.
	nc, _ = ln.dial("")
	c = NewConn(nc, lim, Meter{})
	c.Write(wire.TypeHello, []byte{1, 2, 3})
	var em wire.ErrorMsg
	if _, err := c.Expect(wire.TypeHelloOK); !errors.As(err, &em) || em.Code != wire.CodeProtocol {
		t.Errorf("malformed Hello: %v, want CodeProtocol", err)
	}
	c.Close()

	// A payload over the endpoint's cap is cut off from the header alone:
	// the connection just dies, nothing is allocated or answered.
	nc, _ = ln.dial("")
	go wire.WriteFrame(nc, wire.TypeHello, make([]byte, 8192))
	c = NewConn(nc, lim, Meter{})
	if _, err := c.Read(); !IsTransport(err) {
		t.Errorf("oversize Hello: %v, want the connection dropped", err)
	}
	c.Close()

	// And a well-formed one gets through, in both session kinds.
	c, ok, err := Dial(ln.dial, "", wire.Hello{Mode: wire.ModeIngest, Secret: "s3cret"}, lim, Meter{})
	if err != nil || ok.SessionToken == 0 || c.MaxPayload() != 4096 {
		t.Fatalf("ingest handshake: ok=%+v err=%v", ok, err)
	}
	c.Write(wire.TypeClose, nil)
	if _, err := c.Expect(wire.TypeCloseOK); err != nil {
		t.Fatal(err)
	}
	c.Close()
	c, ok, err = Dial(ln.dial, "", wire.Hello{Mode: wire.ModeRestore, Secret: "s3cret"}, lim, Meter{})
	if err != nil || ok.SessionToken != 0 || ok.Window != 8 {
		t.Fatalf("restore handshake: ok=%+v err=%v", ok, err)
	}
	c.Close()
}

// TestHandshakeHostileServers drives Dial against peers that answer the
// Hello with everything but a clean HelloOK.
func TestHandshakeHostileServers(t *testing.T) {
	serve := func(answer func(nc net.Conn)) func(string) (net.Conn, error) {
		return func(string) (net.Conn, error) {
			near, far := net.Pipe()
			go func() {
				defer far.Close()
				if _, err := wire.ReadFrame(far, 0); err == nil {
					answer(far)
				}
			}()
			return near, nil
		}
	}
	frame := func(typ uint8, payload []byte) func(net.Conn) {
		return func(nc net.Conn) { wire.WriteFrame(nc, typ, payload) }
	}
	busy := wire.ErrorMsg{Code: wire.CodeBusy, Retryable: true, Msg: "full", RetryAfterMs: 250}
	mismatch := wire.ErrorMsg{Code: wire.CodeHandshake, Msg: "engine mismatch"}

	for _, tc := range []struct {
		name   string
		dial   func(string) (net.Conn, error)
		verify func(err error) bool
	}{
		{"dial failure", func(string) (net.Conn, error) { return nil, errors.New("refused") }, IsTransport},
		{"hangs up", serve(func(net.Conn) {}), IsTransport},
		{"retryable Error", serve(frame(wire.TypeError, busy.Marshal())), func(err error) bool {
			var em wire.ErrorMsg
			return errors.As(err, &em) && em == busy
		}},
		{"final Error", serve(frame(wire.TypeError, mismatch.Marshal())), func(err error) bool {
			var em wire.ErrorMsg
			return errors.As(err, &em) && em == mismatch
		}},
		{"malformed Error", serve(frame(wire.TypeError, []byte{1})), func(err error) bool {
			return err != nil && !IsTransport(err) && !errors.As(err, new(wire.ErrorMsg))
		}},
		{"malformed HelloOK", serve(frame(wire.TypeHelloOK, []byte{1, 2})), func(err error) bool {
			return err != nil && !IsTransport(err)
		}},
		{"wrong frame type", serve(frame(wire.TypeAck, wire.Ack{Seq: 1}.Marshal())), func(err error) bool {
			return err != nil && !IsTransport(err)
		}},
		{"oversize answer", serve(frame(wire.TypeHelloOK, make([]byte, wire.DefaultMaxPayload+1))), IsTransport},
	} {
		c, _, err := Dial(tc.dial, "", wire.Hello{Mode: wire.ModeIngest}, Limits{IdleTimeout: 5 * time.Second}, Meter{})
		if err == nil {
			c.Close()
			t.Errorf("%s: Dial succeeded", tc.name)
		} else if !tc.verify(err) {
			t.Errorf("%s: Dial error %v (%T) is of the wrong kind", tc.name, err, err)
		}
	}
}

// TestDrainEndpoint is the endpoint half of the drain contract: an
// endpoint whose only session is parked drains at once; one with an
// attached session waits for it.
func TestDrainEndpoint(t *testing.T) {
	ep, ln := startEndpoint(t, testConfig(t))
	lim := Limits{IdleTimeout: 5 * time.Second}
	dropped, _, err := Dial(ln.dial, "", wire.Hello{Mode: wire.ModeIngest}, lim, Meter{})
	if err != nil {
		t.Fatal(err)
	}
	live, _, err := Dial(ln.dial, "", wire.Hello{Mode: wire.ModeIngest}, lim, Meter{})
	if err != nil {
		t.Fatal(err)
	}
	dropped.Close()
	active := ep.cfg.Registry.Counter("test.sessions.active")
	for deadline := time.Now().Add(5 * time.Second); active.Load() != 1; {
		if time.Now().After(deadline) {
			t.Fatal("dropped session never parked")
		}
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	drained := make(chan error, 1)
	go func() { drained <- ep.Drain(ctx) }()
	select {
	case err := <-drained:
		t.Fatalf("Drain returned %v while a session was attached", err)
	case <-time.After(50 * time.Millisecond):
	}
	if n := ep.Sessions.Len(); n != 1 {
		t.Fatalf("%d sessions during drain, want only the attached one", n)
	}
	if _, _, err := Dial(ln.dial, "", wire.Hello{Mode: wire.ModeIngest}, lim, Meter{}); err == nil {
		t.Fatal("a draining endpoint accepted a connection")
	}
	live.Write(wire.TypeClose, nil)
	if _, err := live.Expect(wire.TypeCloseOK); err != nil {
		t.Fatal(err)
	}
	live.Close()
	if err := <-drained; err != nil {
		t.Fatalf("Drain: %v", err)
	}
}

// stagedListener hands Serve exactly one more connection after Close —
// the deterministic re-creation of a conn accepted in the window between
// Close's connection snapshot and the listener actually shutting.
type stagedListener struct {
	late      net.Conn
	accepting chan struct{}
	closed    chan struct{}
	handed    bool
}

func (l *stagedListener) Accept() (net.Conn, error) {
	if l.handed {
		return nil, net.ErrClosed
	}
	close(l.accepting)
	<-l.closed
	l.handed = true
	return l.late, nil
}

func (l *stagedListener) Close() error   { close(l.closed); return nil }
func (l *stagedListener) Addr() net.Addr { return &net.TCPAddr{} }

// TestCloseShutsLateAcceptedConn: a connection Serve accepts after Close
// has snapshotted the connection set is invisible to Close and would
// linger until IdleTimeout; Serve must shut it itself.
func TestCloseShutsLateAcceptedConn(t *testing.T) {
	cfg := testConfig(t)
	cfg.Limits = Limits{IdleTimeout: time.Hour}
	ep := NewEndpoint(cfg)
	serverSide, clientSide := net.Pipe()
	defer clientSide.Close()
	ln := &stagedListener{late: serverSide, accepting: make(chan struct{}), closed: make(chan struct{})}
	served := make(chan error, 1)
	go func() { served <- ep.Serve(ln) }()
	<-ln.accepting

	if err := ep.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("Serve returned %v after Close, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after Close")
	}
	clientSide.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := clientSide.Read(make([]byte, 1)); err == nil || IsTimeout(err) {
		t.Fatalf("late-accepted conn was not closed: read gave %v", err)
	}
	if err := ep.Serve(ln); err == nil {
		t.Fatal("Serve on a closed endpoint succeeded")
	}
}

// TestReadStreamReusesItsBufferReadDoesNot is the ownership rule of the two
// reads: a ReadStream payload (and its raw frame) is the connection's and
// the next ReadStream overwrites it; a Read payload is the caller's.
func TestReadStreamReusesItsBufferReadDoesNot(t *testing.T) {
	near, far := net.Pipe()
	defer near.Close()
	defer far.Close()
	first, second := bytes.Repeat([]byte{0xAA}, 300), bytes.Repeat([]byte{0xBB}, 300)
	go func() {
		for i := 0; i < 2; i++ {
			wire.WriteFrame(far, wire.TypeRestoreData, first)
			wire.WriteFrame(far, wire.TypeRestoreData, second)
		}
	}()
	c := NewConn(near, Limits{IdleTimeout: 5 * time.Second}, Meter{})

	a, araw, err := c.ReadStream()
	if err != nil || !bytes.Equal(a.Payload, first) || !bytes.Equal(araw, wire.AppendFrame(nil, wire.TypeRestoreData, first)) {
		t.Fatalf("first ReadStream: %v", err)
	}
	b, _, err := c.ReadStream()
	if err != nil || !bytes.Equal(b.Payload, second) {
		t.Fatalf("second ReadStream: %v", err)
	}
	if !bytes.Equal(a.Payload, second) || &a.Payload[0] != &b.Payload[0] {
		t.Fatal("the second ReadStream did not reuse the first one's buffer")
	}

	kept, err := c.Read()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Read(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(kept.Payload, first) {
		t.Fatal("a later Read overwrote a Read payload")
	}
}

// dialSessionless opens a ModeRestore or ModePeer connection to ln.
func dialSessionless(t *testing.T, ln *pipeListener, mode uint8) *Conn {
	t.Helper()
	c, _, err := Dial(ln.dial, "", wire.Hello{Mode: mode}, Limits{IdleTimeout: 10 * time.Second}, Meter{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// serveRequests is a sessionless serve callback: it waits for requests the
// way dedupd and the gateway do and answers a RestoreReq with frames
// RestoreData frames and a RestoreEnd, a ListReq with an empty ListResp.
// streaming, when not nil, is signalled after the first data frame and the
// stream then waits on resume — the window a test drains in.
func serveRequests(frames int, streaming chan<- struct{}, resume <-chan struct{}) func(c *Conn) {
	return func(c *Conn) {
		for {
			f, err := c.ReadRequest()
			if err != nil {
				return
			}
			switch f.Type {
			case wire.TypeListReq:
				c.Write(wire.TypeListResp, wire.ListResp{}.Marshal())
			case wire.TypeRestoreReq:
				hash := hashutil.NewHasher()
				var prefix [4]byte
				for i := 0; i < frames; i++ {
					data := bytes.Repeat([]byte{byte(i)}, 1000)
					hash.Write(data)
					head, body := wire.RestoreData{Data: data}.Parts(&prefix)
					if c.Write(wire.TypeRestoreData, head, body) != nil {
						return
					}
					if i == 0 && streaming != nil {
						streaming <- struct{}{}
						<-resume
					}
				}
				end := wire.RestoreEnd{TotalBytes: uint64(frames) * 1000, Sum: hash.Sum()}
				c.Write(wire.TypeRestoreEnd, end.Marshal())
			default:
				return
			}
		}
	}
}

// TestDrainClosesParkedSessionlessConns: a peer and a restore connection
// that have each served a request and sit waiting for the next one — what a
// gateway's pooled links look like from the shard — hold nothing a drain
// must wait for. Drain closes them; it used to wait out their IdleTimeout.
func TestDrainClosesParkedSessionlessConns(t *testing.T) {
	cfg := testConfig(t)
	serve := serveRequests(1, nil, nil)
	cfg.Peer = serve
	cfg.Restore = func(c *Conn, _ string) { serve(c) }
	ep, ln := startEndpoint(t, cfg)
	for _, mode := range []uint8{wire.ModePeer, wire.ModeRestore} {
		c := dialSessionless(t, ln, mode)
		if _, err := c.Call(wire.TypeListReq, nil, wire.TypeListResp); err != nil {
			t.Fatalf("mode %d: %v", mode, err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := ep.Drain(ctx); err != nil {
		t.Fatalf("Drain with two parked sessionless connections: %v", err)
	}
}

// TestDrainLetsStreamingRestoreFinish: a connection in the middle of a
// stream is not parked. Drain issued mid-stream waits for it; the client
// receives the whole verified file, and only then — the connection now
// waiting for a next request that cannot be served — does Drain return,
// although the client never hangs up.
func TestDrainLetsStreamingRestoreFinish(t *testing.T) {
	const frames = 20
	streaming, resume := make(chan struct{}), make(chan struct{})
	serve := serveRequests(frames, streaming, resume)
	cfg := testConfig(t)
	cfg.Restore = func(c *Conn, _ string) { serve(c) }
	ep, ln := startEndpoint(t, cfg)
	c := dialSessionless(t, ln, wire.ModeRestore)
	if err := c.Write(wire.TypeRestoreReq, wire.RestoreReq{Name: "f"}.Marshal()); err != nil {
		t.Fatal(err)
	}
	type received struct {
		bytes int
		err   error
	}
	got := make(chan received, 1)
	go func() {
		var n int
		_, err := c.ReceiveRestore(func(data []byte) error { n += len(data); return nil })
		got <- received{n, err}
	}()
	<-streaming

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	drained := make(chan error, 1)
	go func() { drained <- ep.Drain(ctx) }()
	select {
	case err := <-drained:
		t.Fatalf("Drain returned %v in the middle of a restore stream", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(resume)
	if r := <-got; r.err != nil || r.bytes != frames*1000 {
		t.Fatalf("restore under drain: %d bytes, err %v; want the whole verified stream", r.bytes, r.err)
	}
	if err := <-drained; err != nil {
		t.Fatalf("Drain after the stream ended: %v", err)
	}
}
