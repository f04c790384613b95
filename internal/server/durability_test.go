package server

import (
	"bytes"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"mhdedup/dedup"
	"mhdedup/internal/client"
	"mhdedup/internal/core"
	"mhdedup/internal/metrics"
	"mhdedup/internal/wire"
)

// durableOpts returns DurabilityOptions for tests: background maintenance
// off (tests drive Commit/Compact themselves) and a private registry.
func durableOpts() dedup.DurabilityOptions {
	return dedup.DurabilityOptions{
		FlushInterval: -1,
		Registry:      metrics.NewRegistry(),
	}
}

// startDurableServer mounts dir as a durable store and serves an engine
// over it with the Durability wired in: FileEnd acks wait on the group
// commit, and admission is shed when the durability budgets are breached.
func startDurableServer(t *testing.T, dir string, dopt dedup.DurabilityOptions, mut func(*Config)) (*Server, *core.Dedup, *dedup.Durability, string) {
	t.Helper()
	opts := dedup.Options{ECS: 4096, SD: 64, CacheManifests: 64}
	eng, dur, _, err := dedup.ResumeDurable(dedup.MHD, opts, dir, dopt)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Engine:     eng.(*core.Dedup),
		Durability: dur,
		Registry:   metrics.NewRegistry(),
		Events:     testEvents(t),
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
	return srv, eng.(*core.Dedup), dur, ln.Addr().String()
}

// TestServerCheckpointSurvivesKill pins the continuous-durability contract
// dedupd relies on: files whose FileEnd was acknowledged survive a server
// kill with NO drain, NO engine Finish and NO store save — the write-ahead
// log alone carries them into the next mount.
func TestServerCheckpointSurvivesKill(t *testing.T) {
	dir := t.TempDir()
	srv, _, _, addr := startDurableServer(t, dir, durableOpts(), nil)

	gen1 := genData(41, 768<<10)
	gen2 := mutate(gen1, 42, 6, 4096)
	ing, err := client.Connect(clientConfig(srv, addr))
	if err != nil {
		t.Fatal(err)
	}
	if err := ing.PutFile("img-gen1", bytes.NewReader(gen1)); err != nil {
		t.Fatal(err)
	}
	if err := ing.PutFile("img-gen2", bytes.NewReader(gen2)); err != nil {
		t.Fatal(err)
	}
	// Kill: tear down the listener and every connection mid-traffic. The
	// engine is abandoned exactly as a crashed process would leave it —
	// nothing is finalized, persisted or closed.
	srv.Close()

	eng2, dur2, rep, err := dedup.ResumeDurable(dedup.MHD, dedup.Options{ECS: 4096, SD: 64}, dir, durableOpts())
	if err != nil {
		t.Fatalf("reopen after kill: %v", err)
	}
	defer dur2.Close()
	if rep.Records == 0 {
		t.Fatal("reopen replayed nothing; the acked files cannot have come from the log")
	}
	t.Logf("replayed %d log records (%d bytes) across %d segments", rep.Records, rep.Bytes, rep.Segments)
	for name, want := range map[string][]byte{"img-gen1": gen1, "img-gen2": gen2} {
		var got bytes.Buffer
		if err := eng2.(*core.Dedup).Restore(name, &got); err != nil {
			t.Fatalf("restore %s after kill: %v", name, err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("%s: restored bytes differ after kill+replay", name)
		}
	}

	// Folding the log and reopening again must land in the same place.
	if err := dur2.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := dur2.Close(); err != nil {
		t.Fatal(err)
	}
	eng3, dur3, rep3, err := dedup.ResumeDurable(dedup.MHD, dedup.Options{ECS: 4096, SD: 64}, dir, durableOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer dur3.Close()
	if rep3.Records != 0 {
		t.Fatalf("post-compaction reopen replayed %d records, want 0", rep3.Records)
	}
	var got bytes.Buffer
	if err := eng3.(*core.Dedup).Restore("img-gen2", &got); err != nil || !bytes.Equal(got.Bytes(), gen2) {
		t.Fatalf("restore after compaction: %v, equal=%v", err, bytes.Equal(got.Bytes(), gen2))
	}
}

// TestOverloadShedding is the backpressure e2e: once the durable log blows
// past its budget, new sessions and new files get a retryable Overloaded
// frame instead of queueing in RAM; the client retries transparently and
// succeeds as soon as compaction restores admission.
func TestOverloadShedding(t *testing.T) {
	dir := t.TempDir()
	dopt := durableOpts()
	dopt.CompactLogBytes = -1 // no auto-compaction: the test holds the log open
	dopt.CompactInterval = -1
	dopt.ShedLogBytes = 64 << 10
	srv, _, dur, addr := startDurableServer(t, dir, dopt, nil)

	// Fill the log past the shed budget with one acked file.
	ing, err := client.Connect(clientConfig(srv, addr))
	if err != nil {
		t.Fatal(err)
	}
	if err := ing.PutFile("img-1", bytes.NewReader(genData(51, 256<<10))); err != nil {
		t.Fatal(err)
	}
	if reason, over := dur.Overloaded(); !over {
		t.Fatalf("log not overloaded after 256 KiB ingest (reason=%q)", reason)
	}

	// A brand-new session is refused at the door, retryably.
	_, write, read := rawConn(t, addr)
	write(wire.TypeHello, wire.Hello{Mode: wire.ModeIngest}.Marshal())
	expectError(t, read(), wire.CodeOverloaded, true)
	if srv.cShed.Load() == 0 {
		t.Fatal("shed counter not bumped")
	}

	// The already-attached session is shed at its next FileBegin — but
	// keeps retrying through the client's transparent recovery, and
	// succeeds once compaction folds the log.
	data2 := genData(52, 128<<10)
	putDone := make(chan error, 1)
	go func() { putDone <- ing.PutFile("img-2", bytes.NewReader(data2)) }()

	shedBefore := srv.cShed.Load()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && srv.cShed.Load() == shedBefore {
		time.Sleep(2 * time.Millisecond)
	}
	if srv.cShed.Load() == shedBefore {
		t.Fatal("in-session FileBegin was never shed")
	}
	// Restore admission; the client's next retry must go through.
	if err := dur.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := <-putDone; err != nil {
		t.Fatalf("PutFile did not survive shedding: %v", err)
	}
	if err := ing.Close(); err != nil {
		t.Fatal(err)
	}
	st := ing.Stats()
	if st.Reconnects == 0 {
		t.Fatal("client never reconnected; shedding was not exercised end to end")
	}
	t.Logf("client survived %d sheds with %d reconnects", srv.cShed.Load(), st.Reconnects)

	// And the shed file is durable and intact.
	var got bytes.Buffer
	if _, err := client.Restore(clientConfig(srv, addr), "img-2", true, &got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), data2) {
		t.Fatal("file ingested across shedding is corrupt")
	}
}

// TestSustainedWriteSoak runs concurrent ingest, concurrent verified
// restores, continuous group commits, and background compaction + scrub
// against one durable store for a while (race detector's favorite meal),
// then kills nothing, drains cleanly, reopens, and checks every file.
func TestSustainedWriteSoak(t *testing.T) {
	dir := t.TempDir()
	reg := metrics.NewRegistry()
	dopt := dedup.DurabilityOptions{
		FlushInterval:   2 * time.Millisecond,
		CompactLogBytes: 64 << 10,
		CompactInterval: 50 * time.Millisecond,
		ShedLogBytes:    1 << 30, // the soak is about corruption, not shedding
		ScrubInterval:   40 * time.Millisecond,
		PaceHistogram:   reg.Histogram("server.apply_ns"),
		P99Budget:       50 * time.Millisecond,
		Registry:        reg,
	}
	srv, eng, dur, addr := startDurableServer(t, dir, dopt, func(c *Config) {
		c.Registry = reg
	})
	dur.Start()

	duration := 2 * time.Second
	if testing.Short() {
		duration = 500 * time.Millisecond
	}
	stopAt := time.Now().Add(duration)

	var mu sync.Mutex
	files := map[string][]byte{}
	record := func(name string, data []byte) {
		mu.Lock()
		files[name] = data
		mu.Unlock()
	}
	someFile := func() (string, []byte) {
		mu.Lock()
		defer mu.Unlock()
		for name, data := range files {
			return name, data
		}
		return "", nil
	}

	const writers = 3
	var wg sync.WaitGroup
	errCh := make(chan error, writers+1)
	for wtr := 0; wtr < writers; wtr++ {
		wtr := wtr
		wg.Add(1)
		go func() {
			defer wg.Done()
			ing, err := client.Connect(clientConfig(srv, addr))
			if err != nil {
				errCh <- err
				return
			}
			defer ing.Close()
			base := genData(int64(100+wtr), 256<<10)
			for i := 0; time.Now().Before(stopAt); i++ {
				name := fmt.Sprintf("w%d-img-%d", wtr, i)
				data := mutate(base, int64(1000*wtr+i), 5, 4096)
				if err := ing.PutFile(name, bytes.NewReader(data)); err != nil {
					errCh <- fmt.Errorf("%s: %w", name, err)
					return
				}
				record(name, data) // acked ⇒ durable from here on
			}
		}()
	}
	// A reader hammers verified restores while compaction churns beneath it.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for time.Now().Before(stopAt) {
			name, want := someFile()
			if name == "" {
				time.Sleep(time.Millisecond)
				continue
			}
			var got bytes.Buffer
			if _, err := client.Restore(clientConfig(srv, addr), name, true, &got); err != nil {
				errCh <- fmt.Errorf("restore %s mid-soak: %w", name, err)
				return
			}
			if !bytes.Equal(got.Bytes(), want) {
				errCh <- fmt.Errorf("restore %s mid-soak: bytes differ", name)
				return
			}
		}
	}()
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	st := dur.WAL().Stats()
	if st.Compactions == 0 {
		t.Fatal("soak never compacted; the log grew unbounded")
	}
	t.Logf("soak: %d files, %d compactions, %d group commits", len(files), st.Compactions, st.Syncs)

	// Clean shutdown, then reopen and verify every acked file.
	if err := srv.Drain(testCtx(t)); err != nil {
		t.Fatal(err)
	}
	if err := eng.Finish(); err != nil {
		t.Fatal(err)
	}
	if err := dur.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := dur.Close(); err != nil {
		t.Fatal(err)
	}
	eng2, dur2, _, err := dedup.ResumeDurable(dedup.MHD, dedup.Options{ECS: 4096, SD: 64}, dir, durableOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer dur2.Close()
	for name, want := range files {
		var got bytes.Buffer
		if err := eng2.(*core.Dedup).Restore(name, &got); err != nil {
			t.Fatalf("restore %s after soak: %v", name, err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("%s: bytes differ after soak round trip", name)
		}
	}
}
