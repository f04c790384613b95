package store

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mhdedup/internal/hashutil"
	"mhdedup/internal/simdisk"
)

// buildFragmentedStore synthesizes a store whose single file has a
// deliberately hostile recipe: many small refs alternating between
// containers, with gaps, overlaps and backward jumps — everything the
// planner and the executor must get right. Returns the store, the file
// name and the expected bytes.
func buildFragmentedStore(t *testing.T, seed int64, refCount int) (*Store, string, []byte) {
	t.Helper()
	s := New(simdisk.New(), FormatBasic)
	file, want := fillFragmented(t, s, seed, refCount)
	return s, file, want
}

// fillFragmented writes buildFragmentedStore's containers and file into s,
// in s's manifest and recipe formats. Every container is tiled by manifest
// entries, so the file restores through the verified path too.
func fillFragmented(t *testing.T, s *Store, seed int64, refCount int) (string, []byte) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))

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
		m := NewManifest(name, s.Format())
		for off := int64(0); off < containerSize; off += 1 << 10 {
			m.Append(Entry{Hash: hashutil.SumBytes(data[off : off+1<<10]), Start: off, Size: 1 << 10})
		}
		if err := s.CreateManifest(m); err != nil {
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
	return fm.File, want
}

// refWalk is the restore oracle: the naive walk of a file's recipe, one
// container read per ref, that every restore path once was. It lives only
// in test code; TestRestoreDifferential holds the one executor to it.
func refWalk(t *testing.T, s *Store, file string) []byte {
	t.Helper()
	fm, err := s.ReadFileManifest(file)
	if err != nil {
		t.Fatal(err)
	}
	var out []byte
	for _, ref := range fm.Refs {
		data, err := s.ReadDiskChunkRange(ref.Container, ref.Start, ref.Size)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, data...)
	}
	return out
}

// TestRestoreDifferential is the one differential table: every way into the
// one executor — plain and verified, flat and tree recipes, whole files and
// ranges, every look-ahead width — writes exactly the bytes of the ref-walk
// oracle.
func TestRestoreDifferential(t *testing.T) {
	layouts := map[string]func() *Store{
		"flat": func() *Store { return New(simdisk.New(), FormatBasic) },
		"tree": treeStore,
	}
	for layout, mk := range layouts {
		s := mk()
		file, built := fillFragmented(t, s, 23, 300)
		want := refWalk(t, s, file)
		if !bytes.Equal(want, built) {
			t.Fatalf("%s: ref-walk oracle diverges from construction", layout)
		}
		total := int64(len(want))
		paths := map[string]func(string, int64, int64, io.Writer, RestoreOptions) (RangeStats, error){
			"plain":    s.RestoreRange,
			"verified": NewVerifier(s, VerifyOpts{}).RestoreRange,
		}
		for path, restore := range paths {
			for _, workers := range []int{0, 1, 2, 8} {
				for _, r := range [][2]int64{{0, -1}, {total/3 + 7, 20_000}, {total - 5_000, -1}, {total + 10, 64}} {
					off, length := r[0], r[1]
					lo, hi := min(off, total), total
					if length >= 0 {
						hi = min(off+length, total)
					}
					var got bytes.Buffer
					rs, err := restore(file, off, length, &got, RestoreOptions{Workers: workers})
					label := fmt.Sprintf("%s %s workers %d range [%d,+%d)", layout, path, workers, off, length)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if !bytes.Equal(got.Bytes(), want[lo:hi]) {
						t.Fatalf("%s: output diverges from the ref walk (%d vs %d bytes)", label, got.Len(), hi-lo)
					}
					if rs.FileBytes != total || rs.Length != hi-lo || rs.OutputBytes != hi-lo {
						t.Fatalf("%s: stats %+v, want %d of %d bytes", label, rs, hi-lo, total)
					}
				}
			}
		}
	}
}

// TestPipelineMatchesSerialReference is the core differential invariant at
// the store layer: for every worker count the executor's output is
// bit-identical to the per-ref walk (the refWalk oracle), over several
// recipes.
func TestPipelineMatchesSerialReference(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		s, file, want := buildFragmentedStore(t, seed, 300)
		if !bytes.Equal(refWalk(t, s, file), want) {
			t.Fatalf("seed %d: ref-walk oracle diverges from construction", seed)
		}
		for _, workers := range []int{0, 1, 2, 8} {
			var got bytes.Buffer
			stats, err := s.RestoreFileStats(file, &got, RestoreOptions{Workers: workers})
			if err != nil {
				t.Fatalf("seed %d workers %d: %v", seed, workers, err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Fatalf("seed %d workers %d: output diverges (%d vs %d bytes)",
					seed, workers, got.Len(), len(want))
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

// blockingWriter stalls the restore's output: the first Write signals
// stalled and parks until released. It lets the width test freeze the
// emitter mid-restore.
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

// steppedWriter stops the restore's output at every Write until the test
// lets it go: each Write announces itself on at and waits on next.
type steppedWriter struct {
	at, next chan struct{}
	received int64
}

func (w *steppedWriter) Write(p []byte) (int, error) {
	w.at <- struct{}{}
	<-w.next
	w.received += int64(len(p))
	return len(p), nil
}

// fetchedAtEachEmission runs a synthetic plan — one read of each length, one
// segment each, served from one shared buffer with no disk behind it, so a
// read can be as large as the window it is to fill — at width, behind a
// writer stopped at every read's emission in turn, and checks that by then
// exactly want[i] bytes have been fetched in all.
func fetchedAtEachEmission(t *testing.T, width int, lengths, want []int64) {
	t.Helper()
	plan := &restorePlan{file: "synthetic"}
	var largest int64
	for _, n := range lengths {
		plan.reads = append(plan.reads, plannedRead{length: n, segs: []planSegment{{size: n}}})
		plan.refs++
		plan.outputBytes += n
		plan.plannedBytes += n
		largest = max(largest, n)
	}
	buf := make([]byte, largest)
	var fetched atomic.Int64
	read := func(pr *plannedRead) ([]byte, error) {
		fetched.Add(pr.length)
		return buf[:pr.length], nil
	}

	s := New(simdisk.New(), FormatBasic)
	w := &steppedWriter{at: make(chan struct{}), next: make(chan struct{})}
	done := make(chan error, 1)
	go func() {
		_, err := s.runPlan(plan, read, w, RestoreOptions{Workers: width})
		done <- err
	}()
	for i := range lengths {
		<-w.at
		for deadline := time.Now().Add(10 * time.Second); fetched.Load() < want[i]; {
			if time.Now().After(deadline) {
				t.Fatalf("emitting read %d: only %d bytes fetched, want %d", i, fetched.Load(), want[i])
			}
			time.Sleep(time.Millisecond)
		}
		time.Sleep(20 * time.Millisecond) // every chance to run further ahead
		if got := fetched.Load(); got != want[i] {
			t.Fatalf("emitting read %d: %d bytes fetched, want %d", i, got, want[i])
		}
		w.next <- struct{}{}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if w.received != plan.outputBytes {
		t.Fatalf("restored %d bytes, want %d", w.received, plan.outputBytes)
	}
}

// TestPipelineBackpressureBoundsMemory: behind a writer that stops at each
// read's emission, the reads fetched and not yet emitted stay within
// restoreWindow, however wide the executor may run. Eight reads of
// 3 MiB at width 8: two fit the 8 MiB window, so two are fetched ahead of
// each emission and no more.
func TestPipelineBackpressureBoundsMemory(t *testing.T) {
	const n, size = 8, 3 << 20
	lengths, want := make([]int64, n), make([]int64, n)
	for i := range lengths {
		lengths[i] = size
		want[i] = int64(min(n, i+restoreWindow/size)) * size
	}
	if want[0] > restoreWindow {
		t.Fatalf("the model admits %d bytes past the %d-byte window", want[0], restoreWindow)
	}
	fetchedAtEachEmission(t, n, lengths, want)
}

// TestPipelineOversizedReadRunsAlone: a read larger than the whole window
// must not wedge the executor — it starts once nothing else is outstanding,
// and nothing starts behind it until it is emitted.
func TestPipelineOversizedReadRunsAlone(t *testing.T) {
	const mib = 1 << 20
	lengths := []int64{mib, restoreWindow + mib, mib, mib}
	fetchedAtEachEmission(t, 4, lengths, []int64{
		mib,                   // the oversized read waits for read 0
		2*mib + restoreWindow, // and then runs alone
		4*mib + restoreWindow, // the two behind it fit together
		4*mib + restoreWindow,
	})
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
		_, err := s.RestoreFileStats(file, &got, RestoreOptions{Workers: workers})
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
	_, err := s.RestoreFileStats(file, ew, RestoreOptions{Workers: 8})
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

// planOf is the schedule a restore of file executes.
func planOf(t *testing.T, s *Store, file string) *restorePlan {
	t.Helper()
	fm, err := s.ReadFileManifest(file)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := planRestore(fm)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// readProbe wraps the plain planned read with the executor's-eye counters:
// how many reads were ever started, how many are inside the read right
// now, and the most that ever were.
type readProbe struct {
	s                       *Store
	started, inside, widest atomic.Int64
	// before, when set, runs inside every read ahead of the disk access;
	// returning an error fails the read without touching the disk.
	before func(pr *plannedRead) error
}

func (p *readProbe) read(pr *plannedRead) ([]byte, error) {
	p.started.Add(1)
	n := p.inside.Add(1)
	defer p.inside.Add(-1)
	for w := p.widest.Load(); n > w && !p.widest.CompareAndSwap(w, n); w = p.widest.Load() {
	}
	if p.before != nil {
		if err := p.before(pr); err != nil {
			return nil, err
		}
	}
	return p.s.readPlanned(pr)
}

// TestPipelineWidth pins look-ahead from both sides. Enough: when every
// read parks until Workers of them (or all that are left) are parked, a
// restore can only finish if the executor really keeps Workers reads in
// flight. Not more: with the writer frozen on its first byte nothing has
// been emitted, so the reads started are the reads outstanding, and they
// settle at exactly Workers however long the writer stalls — the window
// is far larger than the planned reads, so only the width can stop them.
func TestPipelineWidth(t *testing.T) {
	s, file, want := buildFragmentedStore(t, 19, 300)
	plan := planOf(t, s, file)
	for _, width := range []int{2, 8} {
		opts := RestoreOptions{Workers: width}

		var mu sync.Mutex
		parked, left, gate := 0, len(plan.reads), make(chan struct{})
		probe := &readProbe{s: s, before: func(*plannedRead) error {
			mu.Lock()
			parked++
			mine := gate
			if parked == min(width, left) {
				left, parked, gate = left-parked, 0, make(chan struct{})
				close(mine)
			}
			mu.Unlock()
			<-mine
			return nil
		}}
		var got bytes.Buffer
		finished := make(chan error, 1)
		go func() {
			_, err := s.runPlan(plan, probe.read, &got, opts)
			finished <- err
		}()
		select {
		case err := <-finished:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("workers %d: restore never had %d reads in flight at once", width, width)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("workers %d: output diverges", width)
		}
		if w := probe.widest.Load(); w != int64(width) {
			t.Fatalf("workers %d: at most %d reads were in flight at once", width, w)
		}

		probe = &readProbe{s: s}
		w := &blockingWriter{stalled: make(chan struct{}), release: make(chan struct{})}
		go func() {
			_, err := s.runPlan(plan, probe.read, w, opts)
			finished <- err
		}()
		<-w.stalled
		for deadline := time.Now().Add(10 * time.Second); probe.started.Load() < int64(width); {
			if time.Now().After(deadline) {
				t.Fatalf("workers %d: only %d reads started behind a stalled writer", width, probe.started.Load())
			}
			time.Sleep(time.Millisecond)
		}
		time.Sleep(50 * time.Millisecond) // every chance to run further ahead
		if n := probe.started.Load(); n != int64(width) {
			t.Fatalf("workers %d: %d reads started with nothing emitted", width, n)
		}
		close(w.release)
		if err := <-finished; err != nil {
			t.Fatal(err)
		}
		if w.received != int64(len(want)) {
			t.Fatalf("workers %d: restored %d bytes, want %d", width, w.received, len(want))
		}
	}
}

// TestPipelineQuiescence: a restore that fails — on a read in the middle of
// the plan, or on its writer — returns only after every read it started
// ahead has come back, and starts none afterwards: once it has returned,
// no read is inside the disk and the disk's read counter no longer moves.
// A per-read device latency keeps the look-ahead reads in flight at the
// moment the failure is met.
func TestPipelineQuiescence(t *testing.T) {
	boom := errors.New("injected failure")
	s, file, _ := buildFragmentedStore(t, 29, 300)
	plan := planOf(t, s, file)
	s.Disk().SetReadDelay(2 * time.Millisecond)
	failAt := &plan.reads[len(plan.reads)/2]
	cases := map[string]struct {
		before func(pr *plannedRead) error
		w      func() io.Writer
	}{
		"read failure": {func(pr *plannedRead) error {
			if pr == failAt {
				return boom
			}
			return nil
		}, func() io.Writer { return io.Discard }},
		"writer failure": {nil, func() io.Writer { return &errAfterWriter{n: 3, err: boom} }},
	}
	for name, tc := range cases {
		for _, workers := range []int{1, 2, 8} {
			probe := &readProbe{s: s, before: tc.before}
			_, err := s.runPlan(plan, probe.read, tc.w(), RestoreOptions{Workers: workers})
			inside, reads := probe.inside.Load(), s.Disk().Counters().Reads[simdisk.Data]
			if !errors.Is(err, boom) {
				t.Fatalf("%s workers %d: err = %v", name, workers, err)
			}
			if inside != 0 {
				t.Fatalf("%s workers %d: returned with %d reads still in flight", name, workers, inside)
			}
			if n := probe.started.Load(); n == 0 || n == int64(len(plan.reads)) {
				t.Fatalf("%s workers %d: %d of %d reads started; the failure did not land mid-plan", name, workers, n, len(plan.reads))
			}
			time.Sleep(10 * time.Millisecond)
			if after := s.Disk().Counters().Reads[simdisk.Data]; after != reads {
				t.Fatalf("%s workers %d: disk read counter moved %d → %d after the restore returned", name, workers, reads, after)
			}
		}
	}
}

// TestVerifierPipelineMatchesSerial: the one verified path must produce the
// constructed bytes — which the naive per-ref walk (the refWalk oracle:
// there is no second verified path to compare against) must produce too —
// for the inline executor and for wider look-aheads.
func TestVerifierPipelineMatchesSerial(t *testing.T) {
	s, files := buildVerifyStore(t)
	v := NewVerifier(s, VerifyOpts{})
	for name, want := range files {
		var serial bytes.Buffer
		if !bytes.Equal(refWalk(t, s, name), want) {
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
			if _, err := v.RestoreRange(name, 0, -1, &got, RestoreOptions{Workers: workers}); err != nil {
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
