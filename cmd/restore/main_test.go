package main

import (
	"bytes"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"mhdedup/dedup"
	"mhdedup/internal/simdisk"
)

func buildStore(t *testing.T) (string, map[string][]byte) {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	files := map[string][]byte{}
	eng, err := dedup.New(dedup.MHD, dedup.Options{ECS: 512, SD: 4, BloomBytes: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"m0/a", "m0/b"} {
		data := make([]byte, 120_000)
		rng.Read(data)
		files[name] = data
		if err := eng.PutFile(name, bytes.NewReader(data)); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Finish(); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "store")
	if err := dedup.SaveStore(eng, dir); err != nil {
		t.Fatal(err)
	}
	return dir, files
}

// corruptOneContainer flips a bit in one stored Data container of the store
// directory and saves the damage back, returning the container's name.
func corruptOneContainer(t *testing.T, storeDir string) string {
	t.Helper()
	// Corrupt via the public surface: load, flip one stored bit, save.
	disk, err := simdisk.LoadDir(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	names := disk.Names(simdisk.Data)
	if len(names) == 0 {
		t.Fatal("store has no containers")
	}
	sort.Strings(names)
	fd := simdisk.NewFaultDisk(disk, simdisk.FaultPlan{Seed: 9})
	if err := fd.FlipStoredBit(simdisk.Data, names[0], 37); err != nil {
		t.Fatal(err)
	}
	if err := disk.SaveDir(storeDir); err != nil {
		t.Fatal(err)
	}
	return names[0]
}

func TestRestoreSingleFile(t *testing.T) {
	storeDir, files := buildStore(t)
	out := filepath.Join(t.TempDir(), "a.out")
	if err := run(restoreOptions{storeDir: storeDir, file: "m0/a", out: out}, io.Discard); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, files["m0/a"]) {
		t.Error("restored file differs")
	}
	if _, err := os.Stat(out + ".tmp"); !os.IsNotExist(err) {
		t.Error("temp file left behind after successful restore")
	}
}

func TestRestoreAll(t *testing.T) {
	storeDir, files := buildStore(t)
	outDir := t.TempDir()
	if err := run(restoreOptions{storeDir: storeDir, all: true, out: outDir, verify: true}, io.Discard); err != nil {
		t.Fatal(err)
	}
	for name, want := range files {
		got, err := os.ReadFile(filepath.Join(outDir, filepath.FromSlash(name)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s differs", name)
		}
	}
}

func TestRestoreList(t *testing.T) {
	storeDir, _ := buildStore(t)
	if err := run(restoreOptions{storeDir: storeDir, list: true}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestRestoreErrors(t *testing.T) {
	storeDir, _ := buildStore(t)
	cases := []restoreOptions{
		{list: true},                    // no store
		{storeDir: storeDir},            // no mode
		{storeDir: storeDir, file: "x"}, // -file without -out
		{storeDir: storeDir, all: true}, // -all without -out
		{storeDir: storeDir, file: "ghost", out: filepath.Join(t.TempDir(), "g")}, // unknown file
	}
	for i, o := range cases {
		if err := run(o, io.Discard); err == nil {
			t.Errorf("case %d should have failed", i)
		}
	}
}

func TestRestoreFailureLeavesNoPartialOutput(t *testing.T) {
	storeDir, _ := buildStore(t)
	corruptOneContainer(t, storeDir)
	outDir := t.TempDir()
	var buf bytes.Buffer
	err := run(restoreOptions{storeDir: storeDir, all: true, out: outDir, verify: true}, &buf)
	if err == nil {
		t.Fatal("verified restore of a corrupt store should exit non-zero")
	}
	if !strings.Contains(buf.String(), "FAILED") {
		t.Errorf("per-file summary missing FAILED line:\n%s", buf.String())
	}
	// No final-named output of a failed file, truncated or otherwise, and
	// no temp debris.
	entries, err := os.ReadDir(filepath.Join(outDir, "m0"))
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".tmp") {
			t.Errorf("temp file %s left behind", e.Name())
		}
	}
	// Every file that was written must be byte-complete: a verified restore
	// never renames a partial file into place. (Completeness is attested by
	// the summary: files reported "restored" exist, failed ones do not.)
	out := buf.String()
	for _, e := range entries {
		if !strings.Contains(out, "restored m0/"+e.Name()) {
			t.Errorf("file %s exists but was not reported restored", e.Name())
		}
	}
}

func TestScrubFlagQuarantinesAndSaves(t *testing.T) {
	storeDir, _ := buildStore(t)
	bad := corruptOneContainer(t, storeDir)
	var buf bytes.Buffer
	if err := run(restoreOptions{storeDir: storeDir, scrub: true}, &buf); err != nil {
		t.Fatalf("scrub: %v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "quarantined data/"+bad) {
		t.Errorf("scrub output does not report the quarantined container:\n%s", buf.String())
	}
	if _, err := os.Stat(filepath.Join(storeDir, "quarantine", "data-"+bad)); err != nil {
		t.Errorf("quarantined bytes not preserved: %v", err)
	}
	// The scrubbed store was saved back: a fresh scrub is clean.
	buf.Reset()
	if err := run(restoreOptions{storeDir: storeDir, scrub: true}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "store is clean") {
		t.Errorf("second scrub not clean:\n%s", buf.String())
	}
}

func TestDeleteAndGC(t *testing.T) {
	storeDir, files := buildStore(t)
	if err := run(restoreOptions{storeDir: storeDir, del: "m0/a", gc: true}, io.Discard); err != nil {
		t.Fatal(err)
	}
	// Reopen: m0/a gone, m0/b intact and restorable.
	st, err := dedup.OpenStore(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	names := st.Files()
	if len(names) != 1 || names[0] != "m0/b" {
		t.Fatalf("Files after delete = %v", names)
	}
	var got bytes.Buffer
	if err := st.Restore("m0/b", &got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), files["m0/b"]) {
		t.Error("survivor corrupted by GC")
	}
	if problems := st.Check(); len(problems) != 0 {
		t.Errorf("store inconsistent after GC: %v", problems)
	}
}

func TestCheckFlag(t *testing.T) {
	storeDir, _ := buildStore(t)
	if err := run(restoreOptions{storeDir: storeDir, check: true}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

// TestRestoreWorkersMatchesSerial is the CLI-level differential check:
// -workers 8 (with a window small enough to keep the executor under
// constant backpressure) and -workers 0 (one read at a time, inline) must
// both write the original bytes, for single-file and -all restores, plain
// and verified.
func TestRestoreWorkersMatchesSerial(t *testing.T) {
	storeDir, files := buildStore(t)
	for _, verify := range []bool{false, true} {
		serialDir, parallelDir := t.TempDir(), t.TempDir()
		if err := run(restoreOptions{storeDir: storeDir, all: true, out: serialDir, verify: verify, workers: 0}, io.Discard); err != nil {
			t.Fatal(err)
		}
		if err := run(restoreOptions{storeDir: storeDir, all: true, out: parallelDir, verify: verify,
			workers: 8, window: 4 << 10}, io.Discard); err != nil {
			t.Fatal(err)
		}
		for name := range files {
			rel := filepath.FromSlash(name)
			serial, err := os.ReadFile(filepath.Join(serialDir, rel))
			if err != nil {
				t.Fatal(err)
			}
			parallel, err := os.ReadFile(filepath.Join(parallelDir, rel))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(serial, parallel) {
				t.Errorf("verify=%v: %s differs between -workers 0 (inline) and -workers 8", verify, name)
			}
			if !bytes.Equal(serial, files[name]) {
				t.Errorf("verify=%v: %s differs from original", verify, name)
			}
		}
	}
	out := filepath.Join(t.TempDir(), "one.out")
	if err := run(restoreOptions{storeDir: storeDir, file: "m0/a", out: out, workers: 8, window: 1}, io.Discard); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, files["m0/a"]) {
		t.Error("-workers 8 single-file restore differs from original")
	}
}

func TestRestoreRejectsNegativeWorkers(t *testing.T) {
	storeDir, _ := buildStore(t)
	err := run(restoreOptions{storeDir: storeDir, list: true, workers: -1}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "-workers") {
		t.Fatalf("negative -workers accepted: %v", err)
	}
}

// TestRestoreListAndAllDeterministic pins the reporting order: -list
// output and the per-file lines of -all must be sorted and identical
// across runs, so diffs of restore logs (and the differential harness
// built on them) never churn on map iteration order.
func TestRestoreListAndAllDeterministic(t *testing.T) {
	storeDir, _ := buildStore(t)
	var prev string
	for i := 0; i < 3; i++ {
		var buf bytes.Buffer
		if err := run(restoreOptions{storeDir: storeDir, list: true}, &buf); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
		if !sort.StringsAreSorted(lines) {
			t.Fatalf("-list output not sorted: %q", lines)
		}
		if i > 0 && buf.String() != prev {
			t.Fatalf("-list output changed between runs:\n%s\nvs\n%s", prev, buf.String())
		}
		prev = buf.String()
	}
	prev = ""
	for i := 0; i < 3; i++ {
		var buf bytes.Buffer
		if err := run(restoreOptions{storeDir: storeDir, all: true, out: t.TempDir(), workers: 2}, &buf); err != nil {
			t.Fatal(err)
		}
		if i > 0 && buf.String() != prev {
			t.Fatalf("-all report changed between runs:\n%s\nvs\n%s", prev, buf.String())
		}
		prev = buf.String()
	}
}

func TestRestoreRangedCLI(t *testing.T) {
	storeDir, files := buildStore(t)
	want := files["m0/a"]

	// An interior window, a tail clamped past EOF, and an offset with the
	// default to-EOF length.
	for _, tc := range []struct {
		offset, length int64
		lo, hi         int64
	}{
		{4096, 10_000, 4096, 14_096},
		{int64(len(want)) - 100, 5000, int64(len(want)) - 100, int64(len(want))},
		{77, -1, 77, int64(len(want))},
	} {
		for _, verify := range []bool{false, true} {
			out := filepath.Join(t.TempDir(), "slice.out")
			opts := restoreOptions{storeDir: storeDir, file: "m0/a", out: out,
				offset: tc.offset, length: tc.length, verify: verify}
			var buf bytes.Buffer
			if err := run(opts, &buf); err != nil {
				t.Fatalf("ranged run(offset=%d length=%d verify=%v): %v", tc.offset, tc.length, verify, err)
			}
			got, err := os.ReadFile(out)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want[tc.lo:tc.hi]) {
				t.Errorf("offset=%d length=%d verify=%v: got %d bytes, want [%d:%d)",
					tc.offset, tc.length, verify, len(got), tc.lo, tc.hi)
			}
			if !strings.Contains(buf.String(), "range [") {
				t.Errorf("summary missing range line: %q", buf.String())
			}
		}
	}

	// -offset/-length without -file is refused.
	err := run(restoreOptions{storeDir: storeDir, all: true, out: t.TempDir(), offset: 5}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "require -file") {
		t.Fatalf("ranged -all: %v", err)
	}
}
