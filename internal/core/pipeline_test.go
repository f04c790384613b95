package core

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"testing"
	"time"

	"mhdedup/internal/chunker"
	"mhdedup/internal/hashutil"
	"mhdedup/internal/simdisk"
)

// TestPipelineParityWithSynchronous is the pipeline's master test: at every
// batch edge it must deliver exactly what a serial loop calling Next and
// SumBytes chunk by chunk would have seen — the same chunks with the same
// hashes in the same order, and then the chunker's terminal error, after
// (never instead of) the good chunks that preceded it in its batch.
func TestPipelineParityWithSynchronous(t *testing.T) {
	boom := errors.New("stream died")
	for _, tc := range []struct {
		chunks int
		err    error
	}{
		{0, nil}, {1, nil}, {batchChunks - 1, nil}, {batchChunks, nil},
		{batchChunks + 1, nil}, {3*batchChunks + 7, nil},
		{0, boom}, {batchChunks, boom}, {batchChunks + 5, boom},
	} {
		chunks := make([]chunker.Chunk, tc.chunks)
		for i := range chunks {
			chunks[i].Data = randBytes(int64(i), 1+i%300)
		}
		wantErr := tc.err
		if wantErr == nil {
			wantErr = io.EOF
		}
		p := newChunkPipeline(&sliceChunker{chunks: chunks, err: tc.err})
		for i, c := range chunks {
			got, err := p.next()
			if err != nil {
				t.Fatalf("%d chunks, err %v: chunk %d: %v", tc.chunks, tc.err, i, err)
			}
			if !bytes.Equal(got.data, c.Data) || got.hash != hashutil.SumBytes(c.Data) {
				t.Fatalf("%d chunks, err %v: chunk %d differs from the serial loop's", tc.chunks, tc.err, i)
			}
		}
		for range 2 { // the terminal error is sticky
			if _, err := p.next(); err != wantErr {
				t.Errorf("%d chunks, err %v: terminal error %v, want %v", tc.chunks, tc.err, err, wantErr)
			}
		}
		p.stop()
	}
}

// TestPipelineReaderFailsMidBatch is the same contract seen through the
// engine: when the reader dies mid-batch, every chunk cut before the error
// has been ingested by the time PutFile returns it.
func TestPipelineReaderFailsMidBatch(t *testing.T) {
	boom := errors.New("stream died")
	data := randBytes(202, 100_000) // 1.x batches at ECS 512
	failing := func() io.Reader {
		return io.MultiReader(bytes.NewReader(data), &failingReader{err: boom})
	}
	cfg := testConfig()
	ch, err := chunker.NewCDC(failing(), cfg.chunkerParams())
	if err != nil {
		t.Fatal(err)
	}
	var want int64
	for {
		if _, err = ch.Next(); err != nil {
			break
		}
		want++
	}
	if want <= batchChunks || want%batchChunks == 0 || err != boom {
		t.Fatalf("fixture: %d chunks then %v, want a partial second batch then the reader's error", want, err)
	}
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.PutFile("x", failing()); !errors.Is(err, boom) {
		t.Fatalf("PutFile error = %v, want the reader's error", err)
	}
	if got := d.Stats().ChunksIn; got != want {
		t.Errorf("%d chunks ingested before the error surfaced, the serial loop saw %d", got, want)
	}
}

func TestPipelineErrorPropagation(t *testing.T) {
	d, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("stream died")
	err = d.PutFile("x", io.MultiReader(
		bytes.NewReader(randBytes(203, 100_000)),
		&failingReader{err: boom},
	))
	if !errors.Is(err, boom) {
		t.Errorf("pipeline error = %v, want the reader's error", err)
	}
	// The engine must remain usable for subsequent files.
	if err := d.PutFile("y", bytes.NewReader(randBytes(204, 50_000))); err != nil {
		t.Fatalf("engine unusable after failed file: %v", err)
	}
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
}

// failingReader yields an error immediately.
type failingReader struct{ err error }

func (r *failingReader) Read([]byte) (int, error) { return 0, r.err }

// endlessChunker produces chunks forever — a stand-in for an input stream
// much longer than the pipeline's read-ahead.
type endlessChunker struct{ n int }

func (c *endlessChunker) Next() (chunker.Chunk, error) {
	c.n++
	return chunker.Chunk{Data: randBytes(int64(c.n), 4096)}, nil
}

// TestPipelineStopMidStreamNoGoroutineLeak abandons a pipeline with chunks
// still queued, workers mid-hash and the reader blocked on read-ahead —
// stop() must unwind all of them. The goroutine count is the leak oracle.
func TestPipelineStopMidStreamNoGoroutineLeak(t *testing.T) {
	baseline := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		p := newChunkPipeline(&endlessChunker{})
		// Consume a few chunks so queued batches, hashing goroutines and
		// the producer are all in flight, then walk away mid-stream.
		for j := 0; j < 5; j++ {
			if _, err := p.next(); err != nil {
				t.Fatalf("next: %v", err)
			}
		}
		p.stop()
	}
	waitForGoroutines(t, baseline)
}

// TestPipelineStopAfterExhaustion: stop() after the stream drained to its
// terminal error must be a clean no-op (this is the normal PutFile path —
// the deferred stop always runs).
func TestPipelineStopAfterExhaustion(t *testing.T) {
	baseline := runtime.NumGoroutine()
	var chunks []chunker.Chunk
	for i := 0; i < 8; i++ {
		chunks = append(chunks, chunker.Chunk{Data: randBytes(int64(300+i), 2048)})
	}
	p := newChunkPipeline(&sliceChunker{chunks: chunks})
	var got int
	for {
		_, err := p.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("next: %v", err)
		}
		got++
	}
	if got != len(chunks) {
		t.Errorf("drained %d chunks, want %d", got, len(chunks))
	}
	p.stop()
	waitForGoroutines(t, baseline)
}

// TestPutFileAbortReleasesPipeline: a PutFile that dies mid-stream (reader
// error) must tear its pipeline down via the deferred stop — no goroutine
// may outlive the call.
func TestPutFileAbortReleasesPipeline(t *testing.T) {
	d, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	baseline := runtime.NumGoroutine()
	boom := errors.New("stream died")
	for i := 0; i < 5; i++ {
		err := d.PutFile(fmt.Sprintf("x%d", i), io.MultiReader(
			bytes.NewReader(randBytes(int64(500+i), 200_000)),
			&failingReader{err: boom},
		))
		if !errors.Is(err, boom) {
			t.Fatalf("PutFile error = %v, want %v", err, boom)
		}
	}
	waitForGoroutines(t, baseline)
}

func TestPipelineEmptyAndTinyFiles(t *testing.T) {
	cfg := testConfig()
	files := map[string][]byte{"empty": {}, "tiny": []byte("abc"), "tiny2": []byte("abc")}
	d := ingest(t, cfg, files, []string{"empty", "tiny", "tiny2"})
	checkRestore(t, d, files)
}

// TestPutFileTeardownDoesNotWaitForSource: when the ordered stage fails
// mid-file, PutFile's return may wait for the producer to finish the chunk
// it is cutting, but not for the rest of its batch — the source may be a
// pipe whose writer only learns of the failure from PutFile returning (the
// server's ingest feed). Zeros never match the divisor, so every chunk is
// exactly Max bytes and the test knows where the producer stands.
func TestPutFileTeardownDoesNotWaitForSource(t *testing.T) {
	cfg := testConfig()
	max := 4 * cfg.ECS
	disk := simdisk.New()
	d, err := NewOnDisk(cfg, disk)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.PutFile("a", bytes.NewReader(make([]byte, 8*max))); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("manifest unreadable")
	faulted := make(chan struct{})
	var once sync.Once
	disk.SetFailureHook(func(op simdisk.Op, cat simdisk.Category, _ string) error {
		if op == simdisk.OpRead && cat == simdisk.Manifest {
			once.Do(func() { close(faulted) })
			return boom
		}
		return nil
	})

	baseline := runtime.NumGoroutine()
	pr, pw := io.Pipe()
	defer pr.Close() // releases a feed the pipeline rightly never read
	result := make(chan error, 1)
	go func() { result <- d.PutFile("b", pr) }()
	// One full batch: Write returns once the producer has cut it. Its first
	// chunk hits a's hook and the manifest load fails.
	if _, err := pw.Write(make([]byte, batchChunks*max)); err != nil {
		t.Fatal(err)
	}
	<-faulted
	// The producer is now waiting for the bytes of batch 2. Supply one
	// chunk's worth and pause without closing. (A feed may slip in between
	// the fault and the teardown that follows it, so allow a few — far
	// fewer than the batch a producer polling per batch would wait for.)
	for range 8 {
		go pw.Write(make([]byte, max+1))
		select {
		case err := <-result:
			if !errors.Is(err, boom) {
				t.Fatalf("PutFile error = %v, want the injected fault", err)
			}
			pr.Close()
			waitForGoroutines(t, baseline)
			return
		case <-time.After(200 * time.Millisecond):
		}
	}
	t.Fatal("PutFile did not return: its teardown is waiting for the source to fill a batch")
}

func BenchmarkIngest(b *testing.B) {
	data := randBytes(1, 8<<20)
	cfg := DefaultConfig()
	cfg.ECS = 4096
	cfg.SD = 16
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := d.PutFile("f", bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
		if err := d.Finish(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestPutFileStalledReaderIsGivenUp: a source that stops making progress —
// (0, nil) for ever, legal for an io.Reader and at one time enough to hang
// PutFile beyond any cancellation, the chunker spinning inside Next where
// the producer polls nothing — fails the file with io.ErrNoProgress, like
// any mid-stream read error, and leaves no goroutine behind.
func TestPutFileStalledReaderIsGivenUp(t *testing.T) {
	d, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	baseline := runtime.NumGoroutine()
	err = d.PutFile("stalled", io.MultiReader(bytes.NewReader(randBytes(600, 10_000)),
		&failingReader{})) // a failingReader with no error to fail with stalls
	if !errors.Is(err, io.ErrNoProgress) {
		t.Fatalf("PutFile error = %v, want io.ErrNoProgress", err)
	}
	waitForGoroutines(t, baseline)
}

// slowReader sleeps before every Read and delivers at most max bytes.
type slowReader struct {
	r     io.Reader
	max   int
	delay time.Duration
}

func (s *slowReader) Read(p []byte) (int, error) {
	time.Sleep(s.delay)
	return s.r.Read(p[:min(len(p), s.max)])
}

// TestSlowReaderShowsAsScanWait pins what the two per-batch waits mean: a
// source that trickles keeps the chunker from cutting, so the ordered
// stage's starvation lands in core.scan_wait_ns — most of the time the
// reader slept — and not in core.hash_wait_ns, the digests of a batch
// being ready soon after its last chunk is cut.
func TestSlowReaderShowsAsScanWait(t *testing.T) {
	d, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	const reads, delay = 128, 2 * time.Millisecond
	src := &slowReader{r: bytes.NewReader(randBytes(601, reads*16<<10)), max: 16 << 10, delay: delay}
	scan0, hash0 := hScanWaitNS.Snapshot(), hHashWaitNS.Snapshot()
	if err := d.PutFile("slow", src); err != nil {
		t.Fatal(err)
	}
	scan, hash := hScanWaitNS.Snapshot(), hHashWaitNS.Snapshot()
	if scan.Count == scan0.Count || scan.Count-scan0.Count != hash.Count-hash0.Count {
		t.Fatalf("%d scan waits and %d hash waits observed, want one of each per batch",
			scan.Count-scan0.Count, hash.Count-hash0.Count)
	}
	scanWait, hashWait := time.Duration(scan.Sum-scan0.Sum), time.Duration(hash.Sum-hash0.Sum)
	if slept := reads * delay; scanWait < slept/2 || hashWait > scanWait/4 {
		t.Errorf("reader slept %v: scan wait %v (want most of it), hash wait %v (want little)",
			slept, scanWait, hashWait)
	}
}
