package server

import (
	"bytes"
	"errors"
	"math/rand"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"mhdedup/internal/baseline"
	"mhdedup/internal/client"
	"mhdedup/internal/core"
	"mhdedup/internal/hashutil"
	"mhdedup/internal/metrics"
	"mhdedup/internal/session"
	"mhdedup/internal/simdisk"
	"mhdedup/internal/store"
	"mhdedup/internal/wire"
)

// Regression tests for the PR's four bug fixes:
//
//  1. resume-vs-expiry race: a resume-window timer that fired concurrently
//     with a successful resume must not tear down the re-attached session
//     (the deterministic interleaving is pinned in internal/session; the
//     stress test against real timers stays here);
//  2. format-blind remote restore: a dedupd pointed at a store whose
//     manifests are not FormatMHD must detect the format instead of
//     misparsing manifests on the verified-restore path;
//  3. frameWriter payload budget: tiny MaxPayload values drove the restore
//     frame budget to zero (infinite emit loop); the budget is now derived
//     from the real codec overhead and sub-minimum MaxPayload is rejected;
//  4. Server.Close conn-snapshot race: a connection accepted between
//     Close's snapshot and the listener shutting must be closed by Serve,
//     not linger until IdleTimeout.

// expectAck reads one frame and requires an Ack for seq.
func expectAck(t *testing.T, read func() wire.Frame, seq uint64) {
	t.Helper()
	f := read()
	if f.Type != wire.TypeAck {
		t.Fatalf("expected Ack, got %s", wire.TypeName(f.Type))
	}
	ack, err := wire.UnmarshalAck(f.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if ack.Seq != seq {
		t.Fatalf("Ack.Seq = %d, want %d", ack.Seq, seq)
	}
}

// TestResumeExpiryRaceStress hammers the real timer against real resumes
// with a tiny resume window. Whenever a resume wins (HelloOK), the
// session must stay alive well past the resume window — attached
// sessions never expire. Run under -race this also exercises the
// timer/attach mutex choreography.
func TestResumeExpiryRaceStress(t *testing.T) {
	const window = 10 * time.Millisecond
	srv, _, addr := startServer(t, func(c *Config) { c.ResumeTimeout = window })
	resumed := 0
	for i := 0; i < 20; i++ {
		c, write, read := rawConn(t, addr)
		write(wire.TypeHello, wire.Hello{Mode: wire.ModeIngest, Options: srv.Options()}.Marshal())
		ok, err := wire.UnmarshalHelloOK(read().Payload)
		if err != nil {
			t.Fatal(err)
		}
		write(wire.TypeFileBegin, wire.FileBegin{Seq: 1, Name: "stress"}.Marshal())
		expectAck(t, read, 1)
		c.Close() // detach; expiry timer armed with the tiny window

		// Race the resume against the expiry by aiming at the window edge.
		time.Sleep(window - time.Duration(rand.Intn(4))*time.Millisecond)
		c2, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := wire.WriteFrame(c2, wire.TypeHello,
			wire.Hello{Mode: wire.ModeIngest, ResumeToken: ok.SessionToken}.Marshal()); err != nil {
			t.Fatal(err)
		}
		c2.SetReadDeadline(time.Now().Add(5 * time.Second))
		f, err := wire.ReadFrame(c2, wire.DefaultMaxPayload)
		if err != nil {
			t.Fatal(err)
		}
		switch f.Type {
		case wire.TypeError:
			// The timer won: the session expired before the resume landed.
			// That is a legal outcome; it must be NotFound, not a tear-down
			// of someone else's state.
			em, err := wire.UnmarshalError(f.Payload)
			if err != nil {
				t.Fatal(err)
			}
			if em.Code != wire.CodeNotFound {
				t.Fatalf("iteration %d: lost race gave code %d, want NotFound", i, em.Code)
			}
		case wire.TypeHelloOK:
			// The resume won: the session must survive the (now stale)
			// expiry timer by a comfortable margin.
			resumed++
			time.Sleep(3 * window)
			// Every earlier iteration's session has long expired, so the
			// only one that can be live is this one.
			if srv.SessionCount() == 0 {
				t.Fatalf("iteration %d: resumed session was torn down by a stale expiry timer", i)
			}
		default:
			t.Fatalf("iteration %d: unexpected %s", i, wire.TypeName(f.Type))
		}
		c2.Close()
	}
	t.Logf("resume won %d/20 races", resumed)
}

// TestRemoteRestoreNonMHDFormatStore points a dedupd at a store written
// by a non-MHD engine (baseline CDC, FormatBasic manifests) and restores
// over the wire through the verifying path. Pre-fix, streamRestore
// hardcoded FormatMHD, so the Verifier decoded the basic 36-byte manifest
// records as 37-byte MHD records and the restore failed; post-fix the
// format is detected from the store contents.
func TestRemoteRestoreNonMHDFormatStore(t *testing.T) {
	disk := simdisk.New()
	cdc, err := baseline.NewCDC(baseline.DefaultConfig(), disk)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 96<<10)
	rand.New(rand.NewSource(42)).Read(data)
	if err := cdc.PutFile("image.raw", bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	if err := cdc.Finish(); err != nil {
		t.Fatal(err)
	}
	if f, ok := store.DetectFormat(disk); !ok || f != store.FormatBasic {
		t.Fatalf("precondition: DetectFormat = %v, %v; want FormatBasic, true", f, ok)
	}

	// Mount the foreign store under an MHD engine (what a dedupd resuming
	// an older store does) and serve it.
	eng, err := core.NewOnDisk(core.DefaultConfig(), disk)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Engine: eng, Registry: metrics.NewRegistry(), Events: testEvents(t)})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })

	var buf bytes.Buffer
	res, err := client.Restore(client.Config{Addr: ln.Addr().String()}, "image.raw", true, &buf)
	if err != nil {
		t.Fatalf("verified remote restore from FormatBasic store: %v", err)
	}
	if res.Bytes != uint64(len(data)) || !bytes.Equal(buf.Bytes(), data) {
		t.Fatalf("restored %d bytes differ from the %d ingested", res.Bytes, len(data))
	}
}

// TestTinyMaxPayloadRejected pins the fillDefaults floor: MaxPayload
// values that cannot fit the restore codec overhead plus data are
// configuration errors, not runtime infinite loops.
func TestTinyMaxPayloadRejected(t *testing.T) {
	eng := newTestEngine(t)
	for _, mp := range []uint32{1, restoreDataOverhead, 16, 512, minMaxPayload - 1} {
		if _, err := New(Config{Engine: eng, MaxPayload: mp}); err == nil {
			t.Errorf("New accepted MaxPayload=%d, want rejection below %d", mp, minMaxPayload)
		}
	}
	for _, mp := range []uint32{0, minMaxPayload, wire.DefaultMaxPayload} {
		if _, err := New(Config{Engine: eng, MaxPayload: mp, Registry: metrics.NewRegistry()}); err != nil {
			t.Errorf("New rejected MaxPayload=%d: %v", mp, err)
		}
	}
}

// collectFrames returns a session.Conn over an in-memory pipe; received
// closes it and returns every frame that was written to it.
func collectFrames() (c *session.Conn, received func() []wire.Frame) {
	near, far := net.Pipe()
	var frames []wire.Frame
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			f, err := wire.ReadFrame(far, wire.DefaultMaxPayload)
			if err != nil {
				return
			}
			frames = append(frames, f)
		}
	}()
	return session.NewConn(near, session.Limits{}, session.Meter{}), func() []wire.Frame {
		near.Close()
		<-done
		return frames
	}
}

// TestFrameWriterPayloadBudget checks the restore frame writer against the
// real wire overhead across payload caps: every emitted RestoreData frame
// must marshal within MaxPayload, and the reassembled stream must be
// byte-identical. A zero budget must error out instead of looping.
func TestFrameWriterPayloadBudget(t *testing.T) {
	for _, tc := range []struct {
		maxPayload uint32
		writes     []int // sizes fed to Write
	}{
		{minMaxPayload, []int{1, minMaxPayload - restoreDataOverhead, 3000, 1}},
		{minMaxPayload, []int{5000}},
		{4096, []int{4096, 4096, 17}},
		{wire.DefaultMaxPayload, []int{1 << 20}},
	} {
		var input []byte
		c, received := collectFrames()
		fw := &frameWriter{c: c, max: int(tc.maxPayload) - restoreDataOverhead, hash: hashutil.NewHasher()}
		src := rand.New(rand.NewSource(7))
		for _, n := range tc.writes {
			b := make([]byte, n)
			src.Read(b)
			input = append(input, b...)
			if _, err := fw.Write(b); err != nil {
				t.Fatalf("max_payload=%d: write %d bytes: %v", tc.maxPayload, n, err)
			}
		}
		if err := fw.flush(); err != nil {
			t.Fatalf("max_payload=%d: flush: %v", tc.maxPayload, err)
		}
		var got []byte
		for i, f := range received() {
			if f.Type != wire.TypeRestoreData {
				t.Fatalf("frameWriter sent %s", wire.TypeName(f.Type))
			}
			p := f.Payload
			if len(p) > int(tc.maxPayload) {
				t.Fatalf("max_payload=%d: frame %d payload is %d bytes, exceeds cap", tc.maxPayload, i, len(p))
			}
			rd, err := wire.UnmarshalRestoreData(p)
			if err != nil {
				t.Fatalf("max_payload=%d: frame %d: %v", tc.maxPayload, i, err)
			}
			got = append(got, rd.Data...)
		}
		if !bytes.Equal(got, input) {
			t.Fatalf("max_payload=%d: reassembled %d bytes differ from %d written", tc.maxPayload, len(got), len(input))
		}
	}

	// Defensive guard: a non-positive budget must fail fast, never spin.
	c, received := collectFrames()
	defer received()
	fw := &frameWriter{c: c, max: 0, hash: hashutil.NewHasher()}
	done := make(chan error, 1)
	go func() {
		_, err := fw.Write([]byte("x"))
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("zero-budget Write returned nil, want error")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("zero-budget Write did not return (infinite emit loop)")
	}
}

// stagedListener is a net.Listener that, on Close, hands Serve exactly one
// more connection before reporting closed — the deterministic re-creation
// of a conn accepted in the window between Server.Close's connection
// snapshot and the listener actually shutting.
type stagedListener struct {
	conns     chan net.Conn
	late      net.Conn
	once      sync.Once
	done      chan struct{}
	accepting chan struct{} // closed by the first Accept: Serve owns the listener
	acceptOne sync.Once
}

func (l *stagedListener) Accept() (net.Conn, error) {
	l.acceptOne.Do(func() { close(l.accepting) })
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		select {
		case c := <-l.conns:
			return c, nil
		default:
			return nil, net.ErrClosed
		}
	}
}

func (l *stagedListener) Close() error {
	l.once.Do(func() {
		l.conns <- l.late // queued before done: Accept delivers it first
		close(l.done)
	})
	return nil
}

func (l *stagedListener) Addr() net.Addr {
	return &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 0}
}

// TestCloseShutsLateAcceptedConn pins the Close conn-snapshot race fix:
// a connection Serve accepts after Close has snapshotted s.conns is
// invisible to Close and used to linger (pinning resources) until
// IdleTimeout. Serve must now shut it immediately.
func TestCloseShutsLateAcceptedConn(t *testing.T) {
	eng := newTestEngine(t)
	srv, err := New(Config{Engine: eng, Registry: metrics.NewRegistry(), Events: testEvents(t)})
	if err != nil {
		t.Fatal(err)
	}
	serverSide, clientSide := net.Pipe()
	defer clientSide.Close()
	ln := &stagedListener{
		conns:     make(chan net.Conn, 1),
		late:      serverSide,
		done:      make(chan struct{}),
		accepting: make(chan struct{}),
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()
	// Wait for Serve to adopt the listener before racing Close against it.
	<-ln.accepting

	closeStart := time.Now()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(closeStart); d > 5*time.Second {
		t.Fatalf("Close took %v, want prompt return", d)
	}
	select {
	case err := <-serveDone:
		if err != nil {
			t.Fatalf("Serve returned %v after Close, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after Close")
	}
	// The late-accepted connection must be closed by Serve, not held open
	// until IdleTimeout (2 minutes by default — far beyond this deadline).
	clientSide.SetReadDeadline(time.Now().Add(5 * time.Second))
	var b [1]byte
	if _, err := clientSide.Read(b[:]); err == nil {
		t.Fatal("late-accepted conn still open: read succeeded")
	} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatal("late-accepted conn was never closed (read timed out)")
	}
}

// TestEngineFaultMidFileReachesTheSender: when a shard's engine fails in
// the middle of a file (here: the manifest a hook points at cannot be
// read), the ingest pipeline's teardown must not wait for more of the
// stream than the chunk it is cutting — the feed into it only learns of
// the failure from PutFileContext returning. The sender must see the
// engine's error at its next Offer/MigrateData or at the file's end, on
// both planes that feed the engine through a pipe, and every goroutine of
// the failed session must be gone afterwards.
func TestEngineFaultMidFileReachesTheSender(t *testing.T) {
	srv, eng, addr := startServer(t, nil)
	baseline := runtime.NumGoroutine()
	// Zeros never match the chunker's divisor, so every chunk is exactly
	// Max (4·ECS) bytes and the pipeline hands the engine its first batch
	// after exactly 128 of them.
	const batch = 128 * 4 * 4096
	data := make([]byte, 2*batch)

	ing, err := client.Connect(clientConfig(srv, addr))
	if err != nil {
		t.Fatal(err)
	}
	if err := ing.PutFile("gen1", bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	if err := ing.Close(); err != nil {
		t.Fatal(err)
	}
	// From here on the very first chunk of a re-sent gen1 hits its hook and
	// fails to load the manifest: a fault in the ordered stage with almost
	// the whole file still to come.
	faulted := make(chan struct{}, 1)
	eng.Disk().SetFailureHook(func(op simdisk.Op, cat simdisk.Category, _ string) error {
		if op == simdisk.OpRead && cat == simdisk.Manifest {
			select {
			case faulted <- struct{}{}:
			default:
			}
			return errors.New("manifest unreadable")
		}
		return nil
	})

	t.Run("client", func(t *testing.T) {
		ing, err := client.Connect(clientConfig(srv, addr))
		if err != nil {
			t.Fatal(err)
		}
		defer ing.Close()
		err = ing.PutFile("gen2", bytes.NewReader(data))
		<-faulted
		if err == nil || !strings.Contains(err.Error(), `ingest of "gen2" failed`) ||
			!strings.Contains(err.Error(), "manifest unreadable") {
			t.Fatalf("PutFile error = %v, want the engine's fault as an `ingest of \"gen2\" failed` frame", err)
		}
	})
	t.Run("peer", func(t *testing.T) {
		// The migrate plane has no acks to pace the sender, so the test
		// does: exactly the batch whose first chunk meets the fault, then
		// one frame at a time. The first lets the pipeline finish the chunk
		// it is cutting; the next must come back as the engine's error. (A
		// frame may slip in between the fault and the teardown that follows
		// it, so a few are allowed — 4 chunks each, far fewer than the batch
		// a producer polling per batch would wait for.)
		conn, write, _ := rawConn(t, addr)
		write(wire.TypeHello, wire.Hello{Mode: wire.ModePeer}.Marshal())
		write(wire.TypeMigrateBegin, wire.MigrateBegin{Name: "gen3"}.Marshal())
		const frame = 64 << 10
		for off := 0; off < batch; off += frame {
			write(wire.TypeMigrateData, wire.MigrateData{Data: data[off : off+frame]}.Marshal())
		}
		<-faulted
		reply := make(chan wire.Frame, 1)
		go func() {
			conn.SetReadDeadline(time.Now().Add(10 * time.Second))
			for {
				f, err := wire.ReadFrame(conn, wire.DefaultMaxPayload)
				if err != nil || f.Type != wire.TypeHelloOK {
					reply <- f
					return
				}
			}
		}()
		for range 8 {
			write(wire.TypeMigrateData, wire.MigrateData{Data: data[:frame]}.Marshal())
			select {
			case f := <-reply:
				em := expectError(t, f, wire.CodeInternal, false)
				if !strings.Contains(em.Msg, "manifest unreadable") {
					t.Fatalf("migration error %q does not carry the engine's fault", em.Msg)
				}
				return
			case <-time.After(200 * time.Millisecond):
			}
		}
		t.Fatal("the engine's fault never reached the sender: the pipeline's teardown is waiting for the stream to fill a batch")
	})

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		buf := make([]byte, 1<<16)
		t.Fatalf("%d goroutines, %d before the sessions:\n%s", n, baseline, buf[:runtime.Stack(buf, true)])
	}
}
