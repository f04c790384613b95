package dedup

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"mhdedup/internal/metrics"
	"mhdedup/internal/simdisk"
)

// buildSavedStore ingests a small disk-image-like workload (three backups
// sharing most of their content) with MHD and saves it, returning the store
// directory and the expected content of every file.
func buildSavedStore(t *testing.T) (string, map[string][]byte) {
	t.Helper()
	base := randBytes(50, 180_000)
	gen2 := append([]byte(nil), base...)
	copy(gen2[60_000:], randBytes(51, 4_000))
	gen3 := append([]byte(nil), gen2...)
	copy(gen3[120_000:], randBytes(52, 4_000))
	files := map[string][]byte{
		"m0/day1.img": base,
		"m0/day2.img": gen2,
		"m0/day3.img": gen3,
	}

	eng, err := New(MHD, Options{ECS: 512, SD: 4, BloomBytes: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"m0/day1.img", "m0/day2.img", "m0/day3.img"} {
		if err := eng.PutFile(name, bytes.NewReader(files[name])); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Finish(); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := SaveStore(eng, dir); err != nil {
		t.Fatal(err)
	}
	return dir, files
}

// TestVerifiedRestoreAndScrubUnderBitFlips is the acceptance criterion of
// the fault-injection work: corrupt a percentage of the stored containers
// with random persistent bit flips, then demand that
//
//   - VerifyRestore never hands back corrupt bytes: every file either
//     restores byte-identical to its original or fails with an error —
//     100% detection, zero silent corruption;
//   - Scrub quarantines exactly the corrupted objects (no survivors, no
//     collateral), preserving their bytes under quarantine/;
//   - after the scrub, unaffected files still restore and affected files
//     keep failing loudly.
func TestVerifiedRestoreAndScrubUnderBitFlips(t *testing.T) {
	for _, rate := range []float64{0.01, 0.05, 0.20} {
		rate := rate
		t.Run(fmt.Sprintf("rate-%g", rate), func(t *testing.T) {
			dir, files := buildSavedStore(t)
			s, err := OpenStore(dir)
			if err != nil {
				t.Fatal(err)
			}

			// Inject persistent single-bit flips into a deterministic subset
			// of the Data containers. Retry seeds until at least one object
			// is hit so the low-rate case still tests something.
			var corrupted []string
			for seed := int64(1); len(corrupted) == 0; seed++ {
				corrupted = s.st.Disk().CorruptStored(simdisk.Data, rate, seed)
				if seed > 1000 {
					t.Fatal("no container corrupted after 1000 seeds")
				}
			}
			isCorrupt := make(map[string]bool, len(corrupted))
			for _, name := range corrupted {
				isCorrupt[name] = true
			}

			detected := 0
			for name, want := range files {
				var buf bytes.Buffer
				err := s.VerifyRestore(name, &buf)
				if err != nil {
					detected++
					continue
				}
				if !bytes.Equal(buf.Bytes(), want) {
					t.Fatalf("%s: VerifyRestore returned corrupt bytes without an error", name)
				}
			}
			if detected == 0 {
				// Every file restored clean: only possible if the flipped
				// ranges are unreferenced by any file, which this workload's
				// full-coverage recipes rule out.
				t.Fatalf("corrupted %d containers, yet no restore failed", len(corrupted))
			}

			rep, err := s.Scrub(VerifyOpts{})
			if err != nil {
				t.Fatal(err)
			}
			if rep.OK() {
				t.Fatal("scrub of a corrupted store reported OK")
			}
			got := make(map[string]bool, len(rep.Quarantined))
			for _, q := range rep.Quarantined {
				got[q] = true
			}
			for _, name := range corrupted {
				if !got["data/"+name] {
					t.Errorf("corrupted container %s not quarantined", name[:8])
				}
			}
			if len(rep.Quarantined) != len(corrupted) {
				t.Errorf("quarantined %d objects, corrupted %d: %v vs %v",
					len(rep.Quarantined), len(corrupted), rep.Quarantined, corrupted)
			}
			// The quarantine preserved the evidence on disk.
			for _, name := range corrupted {
				p := filepath.Join(dir, "quarantine", "data-"+simdisk.EncodeName(name))
				if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
					t.Errorf("quarantined bytes for %s missing: %v", name[:8], err)
				}
			}

			// Post-scrub: affected files fail loudly, unaffected restore.
			affected := make(map[string]bool, len(rep.AffectedFiles))
			for _, f := range rep.AffectedFiles {
				affected[f] = true
			}
			for name, want := range files {
				var buf bytes.Buffer
				err := s.VerifyRestore(name, &buf)
				if affected[name] {
					if err == nil {
						t.Errorf("%s references quarantined data but restored silently", name)
					}
					continue
				}
				if err != nil {
					t.Errorf("unaffected file %s failed post-scrub: %v", name, err)
				} else if !bytes.Equal(buf.Bytes(), want) {
					t.Errorf("unaffected file %s restored wrong bytes", name)
				}
			}

			// A second scrub finds a clean (if diminished) store.
			rep2, err := s.Scrub(VerifyOpts{})
			if err != nil {
				t.Fatal(err)
			}
			if !rep2.OK() || len(rep2.Quarantined) != 0 {
				t.Errorf("second scrub not clean: %+v", rep2)
			}
		})
	}
}

// TestScrubCleanAcrossAllEngines: a healthy store produced by every engine
// passes a verified scrub untouched — the verifier's manifest-claim index
// understands each format's recipes.
func TestScrubCleanAcrossAllEngines(t *testing.T) {
	base := randBytes(60, 120_000)
	edited := append([]byte(nil), base...)
	copy(edited[40_000:], randBytes(61, 3_000))
	for _, a := range Algorithms() {
		a := a
		t.Run(string(a), func(t *testing.T) {
			eng, err := New(a, Options{ECS: 512, SD: 4, BloomBytes: 1 << 16})
			if err != nil {
				t.Fatal(err)
			}
			if err := eng.PutFile("d1", bytes.NewReader(base)); err != nil {
				t.Fatal(err)
			}
			if err := eng.PutFile("d2", bytes.NewReader(edited)); err != nil {
				t.Fatal(err)
			}
			if err := eng.Finish(); err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			if err := SaveStore(eng, dir); err != nil {
				t.Fatal(err)
			}
			s, err := OpenStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := s.Scrub(VerifyOpts{})
			if err != nil {
				t.Fatal(err)
			}
			if !rep.OK() || len(rep.Quarantined) != 0 {
				t.Fatalf("clean store scrub = %+v", rep)
			}
			for _, name := range []string{"d1", "d2"} {
				var buf bytes.Buffer
				if err := s.VerifyRestore(name, &buf); err != nil {
					t.Fatalf("verified restore %s: %v", name, err)
				}
			}
		})
	}
}

// TestVerifyRestoreSharesOneVerifier: the Verifier (which caches the
// manifest claims of every container a restore has touched) is shared
// across VerifyRestore calls — `restore -all -verify` decodes each
// manifest at most once, not once per file that references its container —
// and is dropped only when a mutation (Delete, Sweep, Scrub) invalidates
// it.
func TestVerifyRestoreSharesOneVerifier(t *testing.T) {
	dir, files := buildSavedStore(t)
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := s.Files()
	if len(names) != len(files) {
		t.Fatalf("Files() = %v", names)
	}

	manifestReads := 0
	readsOf := map[string]int{}
	s.st.Disk().SetFailureHook(func(op simdisk.Op, cat simdisk.Category, name string) error {
		if op == simdisk.OpRead && cat == simdisk.Manifest {
			manifestReads++
			readsOf[name]++
		}
		return nil
	})
	defer s.st.Disk().SetFailureHook(nil)

	var buf bytes.Buffer
	for pass := 0; pass < 2; pass++ {
		for _, name := range names {
			buf.Reset()
			if err := s.VerifyRestore(name, &buf); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), files[name]) {
				t.Fatalf("%s restored wrong bytes", name)
			}
		}
	}
	afterFirst := manifestReads
	if afterFirst == 0 {
		t.Fatal("verified restores read no manifests; the counter hook is off target")
	}
	for name, n := range readsOf {
		if n != 1 {
			t.Fatalf("manifest %s read %d times over two passes of every file: verifier not shared", name[:8], n)
		}
	}

	// A mutation invalidates the index: the next VerifyRestore rebuilds it.
	if err := s.Delete(names[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Sweep(); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := s.VerifyRestore(names[1], &buf); err != nil {
		t.Fatalf("restore after Delete+Sweep: %v", err)
	}
	if !bytes.Equal(buf.Bytes(), files[names[1]]) {
		t.Fatalf("%s restored wrong bytes after sweep", names[1])
	}
	if manifestReads == afterFirst {
		t.Fatal("VerifyRestore after Delete/Sweep served a stale verifier (no manifest re-reads)")
	}
	if err := s.VerifyRestore(names[0], &bytes.Buffer{}); err == nil {
		t.Fatal("deleted file still restores")
	}
}

// TestOnlineScrubSeesBitRot: the online scrub of a durable store (dedupd
// -scrub-interval) restores every file through the verified path, so one
// flipped bit in a persisted container fails the pass — mounting a
// generation checks only object counts and byte totals, and an unverified
// restore would read the rotten byte without complaint.
func TestOnlineScrubSeesBitRot(t *testing.T) {
	dir := t.TempDir()
	eng, dur, _, err := ResumeDurable(MHD, Options{ECS: 1024, SD: 8, BloomBytes: 1 << 16}, dir,
		DurabilityOptions{FlushInterval: -1, Registry: metrics.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer dur.Close()
	if err := eng.PutFile("img", bytes.NewReader(randBytes(60, 1<<20))); err != nil {
		t.Fatal(err)
	}
	if err := eng.Finish(); err != nil {
		t.Fatal(err)
	}
	if err := dur.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := dur.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := dur.Scrub(); err != nil {
		t.Fatalf("scrub of an intact store: %v", err)
	}

	containers, err := filepath.Glob(filepath.Join(dir, "gen-*", "chunks", "*"))
	if err != nil || len(containers) == 0 {
		t.Fatalf("no persisted containers under %s: %v", dir, err)
	}
	var largest string
	var size int64
	for _, c := range containers {
		if fi, err := os.Stat(c); err == nil && fi.Size() > size {
			largest, size = c, fi.Size()
		}
	}
	raw, err := os.ReadFile(largest)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x10
	if err := os.WriteFile(largest, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := dur.Scrub(); err == nil {
		t.Fatal("a flipped bit in a persisted container scrubbed clean")
	}
}

// TestDurableContainerStreamsWhileCut: through a durable engine a container
// is in the log, extent by extent, before its file ends, the file's commit
// journals a seal instead of the bytes again, a crash before the seal
// mounts nothing of that file, a compaction in mid-file loses none of it,
// and a put that fails leaves no extents behind for compaction to carry.
func TestDurableContainerStreamsWhileCut(t *testing.T) {
	dir := t.TempDir()
	opts := Options{ECS: 1024, SD: 8, BloomBytes: 1 << 16}
	dopts := DurabilityOptions{FlushInterval: -1, Registry: metrics.NewRegistry()}
	eng, dur, _, err := ResumeDurable(MHD, opts, dir, dopts)
	if err != nil {
		t.Fatal(err)
	}
	first, second := randBytes(61, 1<<20), randBytes(62, 1<<20)
	if err := eng.PutFile("first", bytes.NewReader(first)); err != nil {
		t.Fatal(err)
	}
	if err := dur.Commit(); err != nil {
		t.Fatal(err)
	}
	st := dur.WAL().Stats()
	if st.StreamedBytes < int64(len(first))/2 {
		t.Fatalf("only %d of %d bytes were written back before the commit", st.StreamedBytes, len(first))
	}
	if st.DurableBytes > int64(len(first))*11/10 {
		t.Fatalf("log holds %d bytes for a %d-byte file: the container was logged twice", st.DurableBytes, len(first))
	}

	// The second file dies half way — after a compaction has folded the log
	// under its first extents — and a third is cut across another one.
	half := &compactingReader{r: bytes.NewReader(second), at: len(second) / 2, dur: dur, fail: true}
	if err := eng.PutFile("second", half); err == nil || half.err != nil {
		t.Fatalf("put through a failing reader = %v (compaction: %v)", err, half.err)
	}
	if err := dur.Compact(); err != nil {
		t.Fatal(err)
	}
	if st := dur.WAL().Stats(); st.PendingRecords != 0 {
		t.Fatalf("a compaction after the failed put re-logged %d records: its extents were kept", st.PendingRecords)
	}
	whole := &compactingReader{r: bytes.NewReader(second), at: len(second) / 2, dur: dur}
	if err := eng.PutFile("third", whole); err != nil || whole.err != nil {
		t.Fatalf("put across a compaction = %v (compaction: %v)", err, whole.err)
	}
	if err := dur.Commit(); err != nil {
		t.Fatal(err)
	}
	// No Close: the process dies here, a fourth file's extents in the log.
	eng.PutFile("fourth", &compactingReader{r: bytes.NewReader(randBytes(63, 1<<20)), at: 1 << 19, fail: true})
	dur.WAL().Sync()

	eng2, dur2, rep, err := ResumeDurable(MHD, opts, dir, dopts)
	if err != nil {
		t.Fatal(err)
	}
	defer dur2.Close()
	if rep.Unsealed != 1 {
		t.Fatalf("replay %+v, want exactly the fourth file's container unsealed", rep)
	}
	for name, want := range map[string][]byte{"first": first, "third": second} {
		var buf bytes.Buffer
		if err := eng2.Restore(name, &buf); err != nil || !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("%s after the crash: %v, %d of %d bytes", name, err, buf.Len(), len(want))
		}
	}
	for _, name := range []string{"second", "fourth"} {
		if err := eng2.Restore(name, io.Discard); err == nil {
			t.Fatalf("%s was never committed and restores", name)
		}
	}
}

// compactingReader compacts dur (when set) once at bytes have been read,
// and then fails (when fail is set) instead of reading on.
type compactingReader struct {
	r    io.Reader
	at   int
	dur  *Durability
	fail bool
	err  error
	n    int
}

func (c *compactingReader) Read(p []byte) (int, error) {
	if c.n >= c.at && c.at >= 0 {
		c.at = -1
		if c.dur != nil {
			c.err = c.dur.Compact()
		}
		if c.fail {
			return 0, errors.New("reader died")
		}
	}
	n, err := c.r.Read(p[:min(len(p), 64<<10)])
	c.n += n
	return n, err
}

// TestOpenStoreRecoversInterruptedSave crashes a SaveStore mid-flight at
// the public API level and checks that OpenStore transparently mounts the
// previous consistent generation, Check passes, and the first generation's
// files restore byte-identical.
func TestOpenStoreRecoversInterruptedSave(t *testing.T) {
	rng := rand.New(rand.NewSource(70))
	content := randBytes(71, 150_000)
	eng, err := New(MHD, Options{ECS: 512, SD: 4, BloomBytes: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.PutFile("img", bytes.NewReader(content)); err != nil {
		t.Fatal(err)
	}
	if err := eng.Finish(); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := SaveStore(eng, dir); err != nil {
		t.Fatal(err)
	}

	// Grow the live engine, then kill the second save at a random point.
	eng2, err := Resume(MHD, Options{ECS: 512, SD: 4, BloomBytes: 1 << 16}, dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng2.PutFile("img2", bytes.NewReader(randBytes(72, 90_000))); err != nil {
		t.Fatal(err)
	}
	if err := eng2.Finish(); err != nil {
		t.Fatal(err)
	}
	var point int
	killAt := 1 + rng.Intn(20)
	eng2.Disk().SetSaveHook(func(string, []byte) ([]byte, error) {
		point++
		if point == killAt {
			return nil, simdisk.ErrKilled
		}
		return nil, nil
	})
	err = SaveStore(eng2, dir)
	eng2.Disk().SetSaveHook(nil)
	if !errors.Is(err, simdisk.ErrKilled) {
		t.Fatalf("killed save error = %v", err)
	}

	rep, err := RecoverStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Generation == 0 {
		t.Fatalf("recover mounted no generation: %+v", rep)
	}
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if problems := s.Check(); len(problems) != 0 {
		t.Fatalf("recovered store inconsistent: %v", problems)
	}
	var buf bytes.Buffer
	if err := s.VerifyRestore("img", &buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), content) {
		t.Fatal("recovered store restored wrong bytes for the committed file")
	}

	// A clean save commits the new state; the new file becomes durable.
	if err := SaveStore(eng2, dir); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.VerifyRestore("img2", &bytes.Buffer{}); err != nil {
		t.Fatalf("post-recovery save lost the new file: %v", err)
	}
}
