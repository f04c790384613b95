package server

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"mhdedup/internal/client"
	"mhdedup/internal/core"
	"mhdedup/internal/simdisk"
	"mhdedup/internal/wire"
)

// genData returns n deterministic pseudo-random bytes.
func genData(seed int64, n int) []byte {
	buf := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(buf)
	return buf
}

// mutate returns a copy of data with `edits` localized random overwrites
// of editSize bytes each — the shape of a day's changes to a disk image.
func mutate(data []byte, seed int64, edits, editSize int) []byte {
	out := append([]byte(nil), data...)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < edits; i++ {
		off := rng.Intn(len(out) - editSize)
		rng.Read(out[off : off+editSize])
	}
	return out
}

func clientConfig(srv *Server, addr string) client.Config {
	return client.Config{
		Addr:          addr,
		Options:       srv.Options(),
		RetryAttempts: 8,
		RetryDelay:    10 * time.Millisecond,
	}
}

// TestLoopbackBackupAndVerifiedRestore is the basic round trip: back up
// over the wire, list, restore through the server's verifying path, and
// compare bit-for-bit.
func TestLoopbackBackupAndVerifiedRestore(t *testing.T) {
	srv, _, addr := startServer(t, nil)
	data := genData(1, 1<<20)

	ing, err := client.Connect(clientConfig(srv, addr))
	if err != nil {
		t.Fatal(err)
	}
	if err := ing.PutFile("img-1", bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	if err := ing.Close(); err != nil {
		t.Fatal(err)
	}

	names, err := client.List(clientConfig(srv, addr))
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != "img-1" {
		t.Fatalf("list = %v", names)
	}
	var got bytes.Buffer
	res, err := client.Restore(clientConfig(srv, addr), "img-1", true, &got)
	if err != nil {
		t.Fatal(err)
	}
	if res.Bytes != uint64(len(data)) || !bytes.Equal(got.Bytes(), data) {
		t.Fatalf("restored %d bytes, differ=%v", res.Bytes, !bytes.Equal(got.Bytes(), data))
	}
}

// TestSecondGenerationMovesFewBytes is the bandwidth-elimination claim:
// a second backup that is a near-duplicate of the first (≈2% locally
// mutated) must move less than 15% of its raw bytes over the wire, and
// both generations must restore bit-identically.
func TestSecondGenerationMovesFewBytes(t *testing.T) {
	srv, _, addr := startServer(t, nil)
	gen1 := genData(7, 2<<20)
	gen2 := mutate(gen1, 8, 10, 4096) // 10 edits × 4 KiB ≈ 2% of 2 MiB

	// Generation 1: everything is new; the server needs (almost) all of it.
	ing1, err := client.Connect(clientConfig(srv, addr))
	if err != nil {
		t.Fatal(err)
	}
	if err := ing1.PutFile("img-gen1", bytes.NewReader(gen1)); err != nil {
		t.Fatal(err)
	}
	if err := ing1.Close(); err != nil {
		t.Fatal(err)
	}

	// Generation 2 on a fresh session: hash negotiation against the wire
	// chunk cache must eliminate the unchanged chunks.
	ing2, err := client.Connect(clientConfig(srv, addr))
	if err != nil {
		t.Fatal(err)
	}
	if err := ing2.PutFile("img-gen2", bytes.NewReader(gen2)); err != nil {
		t.Fatal(err)
	}
	if err := ing2.Close(); err != nil {
		t.Fatal(err)
	}
	st := ing2.Stats()
	if st.InputBytes != int64(len(gen2)) {
		t.Fatalf("gen2 input bytes = %d, want %d", st.InputBytes, len(gen2))
	}
	ratio := float64(st.WireBytesOut) / float64(st.InputBytes)
	t.Logf("gen2: %d input bytes, %d wire bytes out (%.2f%%), %d/%d chunks sent",
		st.InputBytes, st.WireBytesOut, ratio*100, st.ChunksSent, st.ChunksOffered)
	if ratio >= 0.15 {
		t.Fatalf("near-duplicate backup moved %.2f%% of raw bytes, want < 15%%", ratio*100)
	}
	if st.ChunksSent >= st.ChunksOffered/2 {
		t.Fatalf("sent %d of %d offered chunks; expected most to be cache hits",
			st.ChunksSent, st.ChunksOffered)
	}

	for name, want := range map[string][]byte{"img-gen1": gen1, "img-gen2": gen2} {
		var got bytes.Buffer
		if _, err := client.Restore(clientConfig(srv, addr), name, true, &got); err != nil {
			t.Fatalf("restore %s: %v", name, err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("%s: restored bytes differ from input", name)
		}
	}
}

// killConn injects a connection death: after budget written bytes, every
// further Write fails and the underlying conn is closed.
type killConn struct {
	net.Conn
	mu     sync.Mutex
	budget int
}

var errInjected = errors.New("injected connection death")

func (c *killConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.budget <= 0 {
		c.Conn.Close()
		return 0, errInjected
	}
	if len(p) > c.budget {
		n, _ := c.Conn.Write(p[:c.budget])
		c.budget = 0
		c.Conn.Close()
		return n, errInjected
	}
	c.budget -= len(p)
	return c.Conn.Write(p)
}

// TestKillConnectionResumeStoreEquality kills the client's connection
// mid-ingest (after ~600 KiB of a 2-generation backup) and checks that
// the client transparently resumes and that the final server store is
// object-for-object identical to an uninterrupted run over the same
// inputs.
func TestKillConnectionResumeStoreEquality(t *testing.T) {
	gen1 := genData(21, 1<<20)
	gen2 := mutate(gen1, 22, 8, 4096)

	put := func(srv *Server, addr string, faulty bool) client.Stats {
		t.Helper()
		cfg := clientConfig(srv, addr)
		if faulty {
			var once sync.Once
			cfg.Dial = func(a string) (net.Conn, error) {
				nc, err := net.Dial("tcp", a)
				if err != nil {
					return nil, err
				}
				injected := false
				once.Do(func() { injected = true })
				if injected {
					return &killConn{Conn: nc, budget: 600 << 10}, nil
				}
				return nc, nil
			}
		}
		ing, err := client.Connect(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := ing.PutFile("img-gen1", bytes.NewReader(gen1)); err != nil {
			t.Fatal(err)
		}
		if err := ing.PutFile("img-gen2", bytes.NewReader(gen2)); err != nil {
			t.Fatal(err)
		}
		if err := ing.Close(); err != nil {
			t.Fatal(err)
		}
		return ing.Stats()
	}

	srvA, engA, addrA := startServer(t, nil)
	statsA := put(srvA, addrA, true)
	if statsA.Reconnects == 0 {
		t.Fatal("fault injection did not trigger a reconnect; the test proved nothing")
	}
	t.Logf("interrupted run: %d reconnects, %d wire bytes out", statsA.Reconnects, statsA.WireBytesOut)

	srvB, engB, addrB := startServer(t, nil)
	put(srvB, addrB, false)

	if err := engA.Finish(); err != nil {
		t.Fatal(err)
	}
	if err := engB.Finish(); err != nil {
		t.Fatal(err)
	}
	compareDisks(t, engA, engB)
}

// compareDisks asserts two engines' simulated disks hold exactly the
// same objects in every category — the "resume produced the same store
// as an uninterrupted run" criterion.
func compareDisks(t *testing.T, a, b *core.Dedup) {
	t.Helper()
	cats := []simdisk.Category{simdisk.Data, simdisk.Hook, simdisk.Manifest, simdisk.FileManifest}
	for _, cat := range cats {
		an, bn := a.Disk().Names(cat), b.Disk().Names(cat)
		if len(an) != len(bn) {
			t.Fatalf("%s: %d objects vs %d", cat, len(an), len(bn))
		}
		seen := make(map[string]bool, len(bn))
		for _, n := range bn {
			seen[n] = true
		}
		for _, n := range an {
			if !seen[n] {
				t.Fatalf("%s: object %q only in interrupted store", cat, n)
			}
			ad, err := a.Disk().Read(cat, n)
			if err != nil {
				t.Fatal(err)
			}
			bd, err := b.Disk().Read(cat, n)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(ad, bd) {
				t.Fatalf("%s/%s: object bytes differ between interrupted and clean store", cat, n)
			}
		}
	}
}

// TestDrainWaitsForInFlightSession pins the graceful-shutdown contract:
// a Drain started while a session is mid-backup completes only after the
// session closes, and the backed-up file is intact afterwards.
func TestDrainWaitsForInFlightSession(t *testing.T) {
	srv, eng, addr := startServer(t, nil)
	data := genData(31, 512<<10)
	ing, err := client.Connect(clientConfig(srv, addr))
	if err != nil {
		t.Fatal(err)
	}
	if err := ing.PutFile("img", bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}

	drained := make(chan error, 1)
	go func() { drained <- srv.Drain(testCtx(t)) }()
	select {
	case err := <-drained:
		t.Fatalf("drain returned %v while a session was still open", err)
	case <-time.After(100 * time.Millisecond):
	}
	if err := ing.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if err := eng.Finish(); err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := eng.Restore("img", &got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), data) {
		t.Fatal("file ingested across a drain is corrupt")
	}
}

// TestDrainExpiresParkedSession: a session parked by a dropped
// connection can never reattach once the listener is closed, so Drain
// must expire it (aborting its open file) instead of waiting out
// ResumeTimeout — with the daemon defaults (resume 2m > drain 1m) one
// dropped client used to make every SIGTERM sit the full drain timeout
// and report "drain incomplete".
func TestDrainExpiresParkedSession(t *testing.T) {
	srv, _, addr := startServer(t, func(c *Config) { c.ResumeTimeout = time.Hour })
	c, write, read := rawConn(t, addr)
	write(wire.TypeHello, wire.Hello{Mode: wire.ModeIngest, Options: srv.Options()}.Marshal())
	if f := read(); f.Type != wire.TypeHelloOK {
		t.Fatalf("expected HelloOK, got %s", wire.TypeName(f.Type))
	}
	write(wire.TypeFileBegin, wire.FileBegin{Seq: 1, Name: "half"}.Marshal())
	expectAck(t, read, 1)
	c.Close()
	deadline := time.Now().Add(5 * time.Second)
	for srv.cfg.Registry.Counter("server.sessions.active").Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("session never parked after its connection dropped")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if n := srv.SessionCount(); n != 1 {
		t.Fatalf("%d sessions parked, want 1", n)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	start := time.Now()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("drain with only a parked session: %v", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("drain took %v, want well under a second", d)
	}
	if n := srv.SessionCount(); n != 0 {
		t.Fatalf("%d sessions survive the drain", n)
	}
}

func testCtx(t *testing.T) context.Context {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	t.Cleanup(cancel)
	return ctx
}
