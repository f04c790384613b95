package store

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"mhdedup/internal/hashutil"
	"mhdedup/internal/simdisk"
)

// buildFragmentedStore synthesizes a store whose single file has a
// deliberately hostile recipe: many small refs alternating between
// containers, with gaps, overlaps and backward jumps — everything the
// planner and the reorder buffer must get right. Returns the store, the
// file name and the expected bytes.
func buildFragmentedStore(t *testing.T, seed int64, refCount int) (*Store, string, []byte) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	disk := simdisk.New()
	s := New(disk, FormatBasic)

	const containerSize = 64 << 10
	containers := map[hashutil.Sum][]byte{}
	var names []hashutil.Sum
	for i := 0; i < 4; i++ {
		data := make([]byte, containerSize)
		rng.Read(data)
		name := hashutil.SumString(fmt.Sprintf("frag-c%d", i))
		if err := s.WriteDiskChunk(name, data); err != nil {
			t.Fatal(err)
		}
		containers[name] = data
		names = append(names, name)
	}

	fm := &FileManifest{File: "frag/file"}
	var want []byte
	// Long runs of same-container refs (coalescible, some with gaps),
	// interrupted by jumps to other containers.
	c := names[0]
	pos := int64(0)
	for len(fm.Refs) < refCount {
		switch rng.Intn(5) {
		case 0: // switch container, random position
			c = names[rng.Intn(len(names))]
			pos = int64(rng.Intn(containerSize / 2))
		case 1: // small backward overlap
			pos -= int64(rng.Intn(256))
			if pos < 0 {
				pos = 0
			}
		case 2: // gap forward
			pos += int64(rng.Intn(2048))
		}
		size := int64(64 + rng.Intn(2048))
		if pos+size > containerSize {
			pos = 0
		}
		fm.Refs = append(fm.Refs, FileRef{Container: c, Start: pos, Size: size})
		want = append(want, containers[c][pos:pos+size]...)
		pos += size
	}
	if err := s.WriteFileManifest(fm); err != nil {
		t.Fatal(err)
	}
	return s, fm.File, want
}

// TestPipelineMatchesSerialReference is the core differential invariant at
// the store layer: for every worker count and window size — including
// pathological one-read windows that force constant reordering pressure —
// the pipeline's output is bit-identical to the serial per-ref walk.
func TestPipelineMatchesSerialReference(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		s, file, want := buildFragmentedStore(t, seed, 300)
		var serial bytes.Buffer
		if err := s.RestoreFile(file, &serial); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(serial.Bytes(), want) {
			t.Fatalf("seed %d: serial reference path diverges from construction", seed)
		}
		for _, workers := range []int{0, 1, 2, 8} {
			for _, window := range []int64{0, 1, 4096, 1 << 20} {
				opts := RestoreOptions{Workers: workers, WindowBytes: window}
				var got bytes.Buffer
				stats, err := s.RestoreFileStats(file, &got, opts)
				if err != nil {
					t.Fatalf("seed %d workers %d window %d: %v", seed, workers, window, err)
				}
				if !bytes.Equal(got.Bytes(), want) {
					t.Fatalf("seed %d workers %d window %d: output diverges (%d vs %d bytes)",
						seed, workers, window, got.Len(), len(want))
				}
				if stats.Refs != 300 || stats.Reads < 1 || stats.Reads > stats.Refs {
					t.Fatalf("implausible stats: %+v", stats)
				}
				if stats.OutputBytes != int64(len(want)) {
					t.Fatalf("stats.OutputBytes %d, want %d", stats.OutputBytes, len(want))
				}
			}
		}
	}
}

// blockingWriter stalls the restore's output: the first Write signals
// stalled and parks until released. It lets the backpressure test freeze
// the emitter mid-restore.
type blockingWriter struct {
	stalled  chan struct{}
	release  chan struct{}
	once     sync.Once
	received int64
}

func (b *blockingWriter) Write(p []byte) (int, error) {
	b.once.Do(func() {
		close(b.stalled)
		<-b.release
	})
	b.received += int64(len(p))
	return len(p), nil
}

// TestPipelineBackpressureBoundsMemory freezes the writer and checks the
// window actually bounds work: with the emitter stalled no credit is ever
// returned, so the container bytes the readers fetch can never exceed the
// window budget (admission happens before the disk read). Peak window
// occupancy must respect the same bound.
func TestPipelineBackpressureBoundsMemory(t *testing.T) {
	s, file, want := buildFragmentedStore(t, 7, 400)
	const window = 16 << 10

	baseline := s.Disk().Counters().BytesRead[simdisk.Data]
	w := &blockingWriter{stalled: make(chan struct{}), release: make(chan struct{})}
	done := make(chan RestoreStats, 1)
	go func() {
		stats, err := s.RestoreFileStats(file, w, RestoreOptions{Workers: 8, WindowBytes: window})
		if err != nil {
			t.Error(err)
		}
		done <- stats
	}()

	<-w.stalled
	// Give the readers every chance to run ahead; if the window did not
	// bound admission they would fetch the whole plan here.
	time.Sleep(100 * time.Millisecond)
	inFlight := s.Disk().Counters().BytesRead[simdisk.Data] - baseline
	// Everything fetched so far was admitted into the window while zero
	// bytes have been credited back (the writer is frozen before its first
	// byte lands). Oversized reads are impossible here: every planned read
	// of this store is far smaller than the window... but the plan may
	// coalesce, so allow one max-read slack on top of the budget.
	var largest int64
	fm, err := s.ReadFileManifest(file)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := planRestore(fm, RestoreOptions{}.gap())
	if err != nil {
		t.Fatal(err)
	}
	for i := range plan.reads {
		if plan.reads[i].length > largest {
			largest = plan.reads[i].length
		}
	}
	bound := int64(window)
	if largest > bound {
		bound = largest
	}
	if inFlight > bound {
		t.Fatalf("with writer stalled, %d container bytes fetched; window bound is %d (largest read %d)",
			inFlight, bound, largest)
	}
	if inFlight == 0 {
		t.Fatal("no bytes fetched while stalled; pipeline did not start")
	}

	close(w.release)
	stats := <-done
	if w.received != int64(len(want)) {
		t.Fatalf("restored %d bytes, want %d", w.received, len(want))
	}
	if stats.PeakWindowBytes > bound {
		t.Fatalf("PeakWindowBytes %d exceeds bound %d", stats.PeakWindowBytes, bound)
	}
	if stats.PeakWindowBytes <= 0 {
		t.Fatal("PeakWindowBytes not recorded")
	}
}

// TestPipelineOversizedReadRunsAlone: a window smaller than a single
// planned read must not wedge the pipeline — the oversized read is
// admitted into an empty window and becomes the effective bound.
func TestPipelineOversizedReadRunsAlone(t *testing.T) {
	s, file, want := buildFragmentedStore(t, 11, 200)
	var got bytes.Buffer
	stats, err := s.RestoreFileStats(file, &got, RestoreOptions{Workers: 4, WindowBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatal("oversized-read restore diverges from reference")
	}
	// With a 1-byte window every read is oversized and runs alone: the
	// peak equals the largest planned read.
	fm, _ := s.ReadFileManifest(file)
	plan, _ := planRestore(fm, RestoreOptions{}.gap())
	var largest int64
	for i := range plan.reads {
		if plan.reads[i].length > largest {
			largest = plan.reads[i].length
		}
	}
	if stats.PeakWindowBytes != largest {
		t.Fatalf("PeakWindowBytes %d, want largest read %d", stats.PeakWindowBytes, largest)
	}
}

// TestPipelineReadErrorPropagates: a failing container read must surface
// as the restore's error — with the real cause, not a generic pipeline
// failure — for every worker count.
func TestPipelineReadErrorPropagates(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		s, file, _ := buildFragmentedStore(t, 13, 150)
		boom := errors.New("injected read failure")
		var reads int
		var mu sync.Mutex
		s.Disk().SetFailureHook(func(op simdisk.Op, cat simdisk.Category, name string) error {
			if op != simdisk.OpRead || cat != simdisk.Data {
				return nil
			}
			mu.Lock()
			defer mu.Unlock()
			reads++
			if reads == 5 { // let a few succeed so the failure lands mid-pipeline
				return boom
			}
			return nil
		})
		var got bytes.Buffer
		err := s.RestoreFileOpts(file, &got, RestoreOptions{Workers: workers})
		if err == nil {
			t.Fatalf("workers %d: injected read failure not reported", workers)
		}
		if !errors.Is(err, boom) {
			t.Fatalf("workers %d: error %v does not wrap the injected failure", workers, err)
		}
		if strings.Contains(err.Error(), "pipeline failed") {
			t.Fatalf("workers %d: got generic pipeline error %v, want the real cause", workers, err)
		}
	}
}

// TestPipelineWriterErrorPropagates: the destination failing mid-restore
// must abort the pipeline promptly and return the writer's error.
func TestPipelineWriterErrorPropagates(t *testing.T) {
	s, file, _ := buildFragmentedStore(t, 17, 150)
	boom := errors.New("destination full")
	ew := &errAfterWriter{n: 3, err: boom}
	err := s.RestoreFileOpts(file, ew, RestoreOptions{Workers: 8, WindowBytes: 8 << 10})
	if !errors.Is(err, boom) {
		t.Fatalf("writer error not propagated: %v", err)
	}
}

// errAfterWriter accepts n writes then fails forever.
type errAfterWriter struct {
	n    int
	err  error
	seen int
}

func (e *errAfterWriter) Write(p []byte) (int, error) {
	e.seen++
	if e.seen > e.n {
		return 0, e.err
	}
	return len(p), nil
}

// TestVerifierPipelineMatchesSerial: the one verified path must produce the
// constructed bytes — which the naive per-ref walk (Store.RestoreFile, the
// oracle: there is no second verified path to compare against) must
// produce too — for the serial walk and for parallel worker counts.
func TestVerifierPipelineMatchesSerial(t *testing.T) {
	s, files := buildVerifyStore(t)
	v := NewVerifier(s, VerifyOpts{})
	for name, want := range files {
		var naive, serial bytes.Buffer
		if err := s.RestoreFile(name, &naive); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(naive.Bytes(), want) {
			t.Fatalf("%s: naive ref-walk diverges from construction", name)
		}
		if err := v.RestoreFile(name, &serial); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(serial.Bytes(), want) {
			t.Fatalf("%s: serial verified restore diverges", name)
		}
		for _, workers := range []int{1, 2, 8} {
			var got bytes.Buffer
			if _, err := v.RestoreRange(name, 0, -1, &got, RestoreOptions{Workers: workers, WindowBytes: 512}); err != nil {
				t.Fatalf("%s workers %d: %v", name, workers, err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Fatalf("%s workers %d: verified pipeline output diverges", name, workers)
			}
		}
	}
}

// TestVerifierPipelineRefusesCorruptData: flip a stored bit and the
// verifying pipeline must fail the restore of any file whose refs overlap
// the damage — and still restore untouched files.
func TestVerifierPipelineRefusesCorruptData(t *testing.T) {
	s, files := buildVerifyStore(t)
	// Corrupt container c2 in both of its entries ([0,256) referenced by
	// f/one, [256,768) by f/two); f/shared references only c1. Damage must
	// be refused exactly where refs overlap it.
	c2 := hashutil.SumString("c2")
	flipStoredByte(t, s.Disk(), c2, 100)
	flipStoredByte(t, s.Disk(), c2, 300)

	v := NewVerifier(s, VerifyOpts{})
	for _, name := range []string{"f/one", "f/two"} {
		var got bytes.Buffer
		_, err := v.RestoreRange(name, 0, -1, &got, RestoreOptions{Workers: 4})
		if err == nil {
			t.Fatalf("%s: corrupt container restored without error", name)
		}
		if !strings.Contains(err.Error(), "corrupt") {
			t.Fatalf("%s: error %v does not name corruption", name, err)
		}
	}
	var got bytes.Buffer
	if _, err := v.RestoreRange("f/shared", 0, -1, &got, RestoreOptions{Workers: 4}); err != nil {
		t.Fatalf("f/shared references only clean data, got %v", err)
	}
	if !bytes.Equal(got.Bytes(), files["f/shared"]) {
		t.Fatal("f/shared bytes diverge")
	}
}

// flipStoredByte XORs one stored byte of a Data object in place.
func flipStoredByte(t *testing.T, disk *simdisk.Disk, name hashutil.Sum, off int) {
	t.Helper()
	data, err := disk.Read(simdisk.Data, name.Hex())
	if err != nil {
		t.Fatal(err)
	}
	mutated := append([]byte(nil), data...)
	mutated[off] ^= 0xff
	if err := disk.Write(simdisk.Data, name.Hex(), mutated); err != nil {
		t.Fatal(err)
	}
}
