package dedup

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mhdedup/internal/hashutil"
	"mhdedup/internal/metrics"
	"mhdedup/internal/simdisk"
	"mhdedup/internal/store"
)

// Container reads return views of the stored bytes (simdisk.Disk.ReadRange),
// so every holder of one — the restore executor, the verifier, HHR's
// reloads, the writers a restore feeds — shares the stored object itself. The
// two tests here hold the whole store to that contract.

// fingerprints returns the SHA-1 of every Data object on disk.
func fingerprints(t *testing.T, disk *simdisk.Disk) map[string]hashutil.Sum {
	t.Helper()
	fp := make(map[string]hashutil.Sum)
	for _, name := range disk.Names(simdisk.Data) {
		data, err := disk.Read(simdisk.Data, name)
		if err != nil {
			t.Fatal(err)
		}
		fp[name] = hashutil.SumBytes(data)
	}
	return fp
}

// unchanged fails t unless every object of fp still on disk holds the bytes
// it was fingerprinted with. Only a GC sweep may have removed some (gone).
func unchanged(t *testing.T, after string, disk *simdisk.Disk, fp map[string]hashutil.Sum, gone bool) {
	t.Helper()
	kept := 0
	for name, want := range fp {
		if _, ok := disk.Size(simdisk.Data, name); !ok {
			if !gone {
				t.Fatalf("after %s: container %.8s is gone", after, name)
			}
			continue
		}
		data, err := disk.Read(simdisk.Data, name)
		if err != nil {
			t.Fatalf("after %s: %v", after, err)
		}
		if hashutil.SumBytes(data) != want {
			t.Fatalf("after %s: stored container %.8s changed", after, name)
		}
		kept++
	}
	if kept == 0 {
		t.Fatalf("after %s: none of the %d fingerprinted containers is left to check", after, len(fp))
	}
}

// TestStoredBytesStayImmutable fingerprints every stored container, runs
// everything that reads containers — plain, verified and ranged restores at
// widths 1 and 8, a generational ingest whose HHR reloads merged entries,
// Scrub, VerifyContainer, a GC sweep, a durable compaction and a reopen — and
// demands every container that existed before hold the same bytes after.
func TestStoredBytesStayImmutable(t *testing.T) {
	dir := t.TempDir()
	opts := Options{ECS: 512, SD: 4, BloomBytes: 1 << 16}
	eng, dur, _, err := ResumeDurable(MHD, opts, dir,
		DurabilityOptions{FlushInterval: -1, Registry: metrics.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer dur.Close()
	files := map[string][]byte{"a/1": randBytes(90, 256<<10), "b/1": randBytes(91, 160<<10)}
	put := func(names ...string) {
		for _, name := range names {
			if err := eng.PutFile(name, bytes.NewReader(files[name])); err != nil {
				t.Fatal(err)
			}
		}
		if err := dur.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	put("a/1", "b/1")
	disk := eng.Disk()
	fp := fingerprints(t, disk)

	edit := func(base []byte, seed int64, at ...int) []byte {
		out := append([]byte(nil), base...)
		for i, off := range at {
			copy(out[off:], randBytes(seed+int64(i), 3000))
		}
		return out
	}
	files["a/2"] = edit(files["a/1"], 92, 40<<10, 150<<10)
	files["b/2"] = edit(files["b/1"], 94, 70<<10)
	put("a/2", "b/2")
	if hhr := eng.Report().HHROps; hhr == 0 {
		t.Fatal("the second generation re-chunked no merged entry: HHR never reloaded one")
	}
	unchanged(t, "a generational ingest", disk, fp, false)

	format, _ := store.DetectFormat(disk)
	s := &Store{st: store.New(disk, format)}
	for _, workers := range []int{1, 8} {
		for name, want := range files {
			for _, verify := range []bool{false, true} {
				for _, r := range [][2]int64{{0, -1}, {1000, 70 << 10}, {int64(len(want)) - 5000, 5000}} {
					var got bytes.Buffer
					_, err := s.restoreAt(workers, verify, name, r[0], r[1], &got)
					end := int64(len(want))
					if r[1] >= 0 {
						end = r[0] + r[1]
					}
					if err != nil || !bytes.Equal(got.Bytes(), want[r[0]:end]) {
						t.Fatalf("%s [%d,+%d) workers %d verify %v: %v", name, r[0], r[1], workers, verify, err)
					}
				}
			}
		}
		unchanged(t, fmt.Sprintf("restores %d wide", workers), disk, fp, false)
	}

	if rep, err := s.Scrub(VerifyOpts{}); err != nil || !rep.OK() {
		t.Fatalf("scrub: %+v, %v", rep, err)
	}
	v := store.NewVerifier(s.st, store.VerifyOpts{})
	for _, name := range disk.Names(simdisk.Data) {
		if bad, err := v.VerifyContainer(name); err != nil || len(bad) > 0 {
			t.Fatalf("VerifyContainer(%.8s): %v, %v", name, bad, err)
		}
	}
	unchanged(t, "Scrub and VerifyContainer", disk, fp, false)

	if err := s.Delete("b/1"); err != nil {
		t.Fatal(err)
	}
	delete(files, "b/1")
	if _, err := s.Sweep(); err != nil {
		t.Fatal(err)
	}
	unchanged(t, "a GC sweep", disk, fp, true)

	if err := dur.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := dur.Compact(); err != nil {
		t.Fatal(err)
	}
	reopened, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	unchanged(t, "a durable compaction and reopen", reopened.st.Disk(), fp, true)
	for name, want := range files {
		var got bytes.Buffer
		if err := reopened.VerifyRestore(name, &got); err != nil || !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("%s after the reopen: %v", name, err)
		}
	}
}

// emitChecker is a restore's writer that compares every byte as it arrives
// with the file's content, so a byte emitted before a restore fails counts
// as much as one emitted by a restore that succeeds.
type emitChecker struct {
	want []byte
	n    int
	bad  int // offset of the first wrong byte, or -1
}

func (c *emitChecker) Write(p []byte) (int, error) {
	if c.bad < 0 && (c.n+len(p) > len(c.want) || !bytes.Equal(p, c.want[c.n:c.n+len(p)])) {
		c.bad = c.n
	}
	c.n += len(p)
	return len(p), nil
}

// TestVerifiedRestoreRacesStoredBitFlips runs verified restores, eight reads
// in flight each, while stored containers keep having a bit flipped and
// flipped back underneath them. A restore reads views of whichever bytes were
// stored when it read; whatever it finally emits must be bytes that hashed to
// their claim — so every byte it writes is the file's own, whether or not the
// restore then fails — and under -race, no reader may share memory a flip
// writes.
func TestVerifiedRestoreRacesStoredBitFlips(t *testing.T) {
	dir, files := buildSavedStore(t)
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	disk := s.st.Disk()
	containers := disk.Names(simdisk.Data)
	sort.Strings(containers)
	names := make([]string, 0, len(files))
	for name := range files {
		names = append(names, name)
	}
	sort.Strings(names)
	fp := fingerprints(t, disk)

	stop := make(chan struct{})
	var flips atomic.Int64
	var flipper sync.WaitGroup
	flipper.Add(1)
	go func() {
		defer flipper.Done()
		rng := rand.New(rand.NewSource(8))
		for {
			select {
			case <-stop:
				return
			default:
			}
			c, bit := containers[rng.Intn(len(containers))], rng.Int()
			if err := disk.FlipStoredBit(simdisk.Data, c, bit); err != nil {
				t.Error(err)
				return
			}
			time.Sleep(100 * time.Microsecond)
			if err := disk.FlipStoredBit(simdisk.Data, c, bit); err != nil {
				t.Error(err)
				return
			}
			flips.Add(1)
		}
	}()

	var ok, failed atomic.Int64
	var restorers sync.WaitGroup
	for g := 0; g < 4; g++ {
		restorers.Add(1)
		go func() {
			defer restorers.Done()
			for i := 0; i < 5; i++ {
				for _, name := range names {
					w := &emitChecker{want: files[name], bad: -1}
					_, err := s.restoreAt(8, true, name, 0, -1, w)
					if w.bad >= 0 {
						t.Errorf("%s: a verified restore emitted a wrong byte at %d (restore error: %v)", name, w.bad, err)
						return
					}
					if err != nil {
						failed.Add(1)
					} else if w.n != len(files[name]) {
						t.Errorf("%s: restored %d of %d bytes without an error", name, w.n, len(files[name]))
						return
					} else {
						ok.Add(1)
					}
				}
			}
		}()
	}
	restorers.Wait()
	close(stop)
	flipper.Wait()
	if flips.Load() == 0 || ok.Load() == 0 {
		t.Fatalf("%d flips, %d clean restores: the race did not run", flips.Load(), ok.Load())
	}
	t.Logf("%d flips: %d verified restores clean, %d refused, none emitted a wrong byte",
		flips.Load(), ok.Load(), failed.Load())
	unchanged(t, "every flip was flipped back", disk, fp, false)
}
