package server

import (
	"bytes"
	"context"
	"net"
	"testing"
	"time"

	"mhdedup/internal/core"
	"mhdedup/internal/events"
	"mhdedup/internal/exp"
	"mhdedup/internal/hashutil"
	"mhdedup/internal/metrics"
	"mhdedup/internal/wire"
)

// testEvents builds an event log that records everything (for lifecycle
// assertions via Recent/Types) and mirrors each line into t.Logf.
func testEvents(t *testing.T) *events.Log {
	return events.New(events.Options{Level: events.LevelDebug, Logf: t.Logf})
}

// newTestEngine builds a small MHD engine for server tests.
func newTestEngine(t *testing.T) *core.Dedup {
	t.Helper()
	p := exp.DefaultParams(exp.AlgoMHD, 4096, 64, 64<<20)
	eng, err := exp.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	return eng.(*core.Dedup)
}

// startServer runs a server over a fresh engine on a loopback listener.
func startServer(t *testing.T, mut func(*Config)) (*Server, *core.Dedup, string) {
	t.Helper()
	eng := newTestEngine(t)
	cfg := Config{
		Engine:   eng,
		Registry: metrics.NewRegistry(), // private: don't pollute Default across tests
		Events:   testEvents(t),
	}
	if mut != nil {
		mut(&cfg)
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return srv, eng, ln.Addr().String()
}

// rawConn dials and returns frame write/read helpers for protocol-level
// tests that drive the wire by hand.
func rawConn(t *testing.T, addr string) (net.Conn, func(uint8, []byte), func() wire.Frame) {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	write := func(typ uint8, payload []byte) {
		t.Helper()
		if _, err := wire.WriteFrame(c, typ, payload); err != nil {
			t.Fatalf("write %s: %v", wire.TypeName(typ), err)
		}
	}
	read := func() wire.Frame {
		t.Helper()
		c.SetReadDeadline(time.Now().Add(5 * time.Second))
		f, err := wire.ReadFrame(c, wire.DefaultMaxPayload)
		if err != nil {
			t.Fatalf("read frame: %v", err)
		}
		return f
	}
	return c, write, read
}

func expectError(t *testing.T, f wire.Frame, code uint16, retryable bool) wire.ErrorMsg {
	t.Helper()
	if f.Type != wire.TypeError {
		t.Fatalf("expected Error frame, got %s", wire.TypeName(f.Type))
	}
	em, err := wire.UnmarshalError(f.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if em.Code != code || em.Retryable != retryable {
		t.Fatalf("error = code %d retryable %v (%s), want code %d retryable %v",
			em.Code, em.Retryable, em.Msg, code, retryable)
	}
	return em
}

func TestHandshakeOptionsMismatch(t *testing.T) {
	srv, _, addr := startServer(t, nil)
	_, write, read := rawConn(t, addr)
	opts := srv.Options()
	opts.ECS *= 2 // wrong chunk size
	write(wire.TypeHello, wire.Hello{Mode: wire.ModeIngest, Options: opts}.Marshal())
	expectError(t, read(), wire.CodeHandshake, false)
}

func TestSessionLimitBusy(t *testing.T) {
	srv, _, addr := startServer(t, func(c *Config) { c.MaxSessions = 1 })
	// First session occupies the only slot.
	_, write1, read1 := rawConn(t, addr)
	write1(wire.TypeHello, wire.Hello{Mode: wire.ModeIngest, Options: srv.Options()}.Marshal())
	if f := read1(); f.Type != wire.TypeHelloOK {
		t.Fatalf("first session: expected HelloOK, got %s", wire.TypeName(f.Type))
	}
	// Second is refused with a retryable Busy.
	_, write2, read2 := rawConn(t, addr)
	write2(wire.TypeHello, wire.Hello{Mode: wire.ModeIngest, Options: srv.Options()}.Marshal())
	expectError(t, read2(), wire.CodeBusy, true)
}

func TestResumeUnknownTokenNotFound(t *testing.T) {
	_, _, addr := startServer(t, nil)
	_, write, read := rawConn(t, addr)
	write(wire.TypeHello, wire.Hello{Mode: wire.ModeIngest, ResumeToken: 0xdeadbeef}.Marshal())
	expectError(t, read(), wire.CodeNotFound, false)
}

func TestWindowEnforced(t *testing.T) {
	srv, _, addr := startServer(t, func(c *Config) { c.Window = 4 })
	_, write, read := rawConn(t, addr)
	write(wire.TypeHello, wire.Hello{Mode: wire.ModeIngest, Options: srv.Options()}.Marshal())
	ok, err := wire.UnmarshalHelloOK(read().Payload)
	if err != nil {
		t.Fatal(err)
	}
	if ok.Window != 4 {
		t.Fatalf("HelloOK.Window = %d, want 4", ok.Window)
	}
	// A command whose seq jumps past lastApplied+Window violates the
	// backpressure contract.
	write(wire.TypeFileBegin, wire.FileBegin{Seq: 6, Name: "too-far"}.Marshal())
	expectError(t, read(), wire.CodeProtocol, false)
}

func TestChunkDataHashMismatchIsIntegrityError(t *testing.T) {
	srv, _, addr := startServer(t, nil)
	_, write, read := rawConn(t, addr)
	write(wire.TypeHello, wire.Hello{Mode: wire.ModeIngest, Options: srv.Options()}.Marshal())
	if f := read(); f.Type != wire.TypeHelloOK {
		t.Fatalf("expected HelloOK, got %s", wire.TypeName(f.Type))
	}
	write(wire.TypeFileBegin, wire.FileBegin{Seq: 1, Name: "f"}.Marshal())
	if f := read(); f.Type != wire.TypeAck {
		t.Fatalf("expected Ack, got %s", wire.TypeName(f.Type))
	}
	data := ch('z', 2048)
	write(wire.TypeOffer, wire.Offer{Seq: 2, Entries: []wire.OfferEntry{
		{Hash: [20]byte{1, 2, 3}, Size: uint32(len(data))}, // bogus hash
	}}.Marshal())
	need, err := wire.UnmarshalNeed(read().Payload)
	if err != nil || len(need.Indices) != 1 {
		t.Fatalf("need = %+v, %v", need, err)
	}
	write(wire.TypeChunkData, wire.ChunkData{Seq: 2, Start: 0, Chunks: [][]byte{data}}.Marshal())
	expectError(t, read(), wire.CodeIntegrity, false)
}

// TestFileEndBadSumCommitsNothing: a file whose FileEnd declares a sum or a
// size the reassembled stream does not have is refused with an integrity
// error before the engine may commit it — afterwards the name neither
// restores nor lists. (The peer plane's twin is TestPeerMigrateBadSum; both
// planes drive the one feed.)
func TestFileEndBadSumCommitsNothing(t *testing.T) {
	data := ch('z', 2048)
	honest := wire.FileEnd{Seq: 3, TotalBytes: uint64(len(data)), Sum: hashutil.SumBytes(data)}
	wrongSum, wrongSize := honest, honest
	wrongSum.Sum = hashutil.SumString("not the stream's hash")
	wrongSize.TotalBytes++
	for name, end := range map[string]wire.FileEnd{"wrong Sum": wrongSum, "wrong TotalBytes": wrongSize} {
		srv, eng, addr := startServer(t, nil)
		_, write, read := rawConn(t, addr)
		write(wire.TypeHello, wire.Hello{Mode: wire.ModeIngest, Options: srv.Options()}.Marshal())
		if f := read(); f.Type != wire.TypeHelloOK {
			t.Fatalf("expected HelloOK, got %s", wire.TypeName(f.Type))
		}
		write(wire.TypeFileBegin, wire.FileBegin{Seq: 1, Name: "f"}.Marshal())
		expectAck(t, read, 1)
		write(wire.TypeOffer, wire.Offer{Seq: 2, Entries: []wire.OfferEntry{
			{Hash: hashutil.SumBytes(data), Size: uint32(len(data))},
		}}.Marshal())
		if need, err := wire.UnmarshalNeed(read().Payload); err != nil || len(need.Indices) != 1 {
			t.Fatalf("need = %+v, %v", need, err)
		}
		write(wire.TypeChunkData, wire.ChunkData{Seq: 2, Start: 0, Chunks: [][]byte{data}}.Marshal())
		expectAck(t, read, 2)
		write(wire.TypeFileEnd, end.Marshal())
		expectError(t, read(), wire.CodeIntegrity, false)

		var sink bytes.Buffer
		if err := eng.Restore("f", &sink); err == nil {
			t.Errorf("%s: refused file restores %d bytes under its name", name, sink.Len())
		}
		_, write, read = rawConn(t, addr)
		write(wire.TypeHello, wire.Hello{Mode: wire.ModeRestore}.Marshal())
		if f := read(); f.Type != wire.TypeHelloOK {
			t.Fatalf("expected HelloOK, got %s", wire.TypeName(f.Type))
		}
		write(wire.TypeListReq, nil)
		list, err := wire.UnmarshalListResp(read().Payload)
		if err != nil || len(list.Names) != 0 {
			t.Errorf("%s: refused file is listed: %v, %v", name, list.Names, err)
		}
	}
}

func TestRestoreNotFound(t *testing.T) {
	_, _, addr := startServer(t, nil)
	_, write, read := rawConn(t, addr)
	write(wire.TypeHello, wire.Hello{Mode: wire.ModeRestore}.Marshal())
	if f := read(); f.Type != wire.TypeHelloOK {
		t.Fatalf("expected HelloOK, got %s", wire.TypeName(f.Type))
	}
	write(wire.TypeRestoreReq, wire.RestoreReq{Name: "absent"}.Marshal())
	expectError(t, read(), wire.CodeNotFound, false)
}

func TestIdleTimeoutSendsRetryableError(t *testing.T) {
	srv, _, addr := startServer(t, func(c *Config) { c.IdleTimeout = 80 * time.Millisecond })
	_, write, read := rawConn(t, addr)
	write(wire.TypeHello, wire.Hello{Mode: wire.ModeIngest, Options: srv.Options()}.Marshal())
	if f := read(); f.Type != wire.TypeHelloOK {
		t.Fatalf("expected HelloOK, got %s", wire.TypeName(f.Type))
	}
	// Send nothing; the server must announce the timeout retryably
	// before hanging up, and keep the session resumable.
	expectError(t, read(), wire.CodeProtocol, true)
	deadline := time.Now().Add(2 * time.Second)
	for srv.SessionCount() != 1 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := srv.SessionCount(); n != 1 {
		t.Fatalf("session count after idle detach = %d, want 1 (resumable)", n)
	}
}

func TestDrainIdleServerCompletes(t *testing.T) {
	srv, _, addr := startServer(t, nil)
	// One orderly session, then drain must return promptly.
	_, write, read := rawConn(t, addr)
	write(wire.TypeHello, wire.Hello{Mode: wire.ModeIngest, Options: srv.Options()}.Marshal())
	if f := read(); f.Type != wire.TypeHelloOK {
		t.Fatalf("expected HelloOK, got %s", wire.TypeName(f.Type))
	}
	write(wire.TypeClose, nil)
	if f := read(); f.Type != wire.TypeCloseOK {
		t.Fatalf("expected CloseOK, got %s", wire.TypeName(f.Type))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}
