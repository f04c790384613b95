package simdisk

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// mountReplayed mounts a store directory the way a durable open does:
// newest committed generation + the write-ahead log's valid prefix.
func mountReplayed(t *testing.T, dir string) (*Disk, WALReplayReport) {
	t.Helper()
	d, rep, err := Load(dir, false)
	if err != nil {
		t.Fatalf("load %s: %v", dir, err)
	}
	return d, rep
}

// writeSeg materializes one log segment by hand: magic + records, with the
// final tearBytes chopped off to model a torn tail.
func writeSeg(t *testing.T, dir string, n int, recs []WALRecord, tearBytes int) {
	t.Helper()
	buf := []byte(walMagic)
	for _, r := range recs {
		buf = appendWALRecord(buf, r)
	}
	if tearBytes > 0 {
		if tearBytes >= len(buf) {
			t.Fatalf("tear %d >= segment %d", tearBytes, len(buf))
		}
		buf = buf[:len(buf)-tearBytes]
	}
	if err := os.MkdirAll(filepath.Join(dir, walDirName), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, walDirName, walSegName(n)), buf, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestWALRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	d := New()
	d.SetWAL(w)

	if err := d.Create(Data, "c1", []byte("chunk one")); err != nil {
		t.Fatal(err)
	}
	if err := d.Create(Hook, "h1", []byte("hook")); err != nil {
		t.Fatal(err)
	}
	if err := d.Create(FileManifest, "m0/disk:1", []byte("recipe")); err != nil {
		t.Fatal(err)
	}
	if err := d.Write(Data, "c1", []byte("chunk one, rewritten")); err != nil {
		t.Fatal(err)
	}
	if err := d.Create(Data, "c2", []byte("chunk two")); err != nil {
		t.Fatal(err)
	}
	if err := d.Delete(Data, "c2"); err != nil {
		t.Fatal(err)
	}
	if st := w.Stats(); st.PendingRecords != 6 {
		t.Fatalf("pending records = %d, want 6", st.PendingRecords)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	st := w.Stats()
	if st.PendingRecords != 0 || st.DurableRecords != 6 || st.Syncs != 1 {
		t.Fatalf("stats after sync = %+v", st)
	}
	if st.LastSyncUnixNano == 0 {
		t.Error("LastSyncUnixNano not stamped")
	}

	// A mount without any generation commit sees exactly the logged state.
	back, rep := mountReplayed(t, dir)
	if rep.Records != 6 || rep.Truncated {
		t.Fatalf("replay report = %+v, want 6 records, no truncation", rep)
	}
	if !sameState(snapshot(d), snapshot(back)) {
		t.Fatal("replayed state differs from live state")
	}

	// And a mount on top of a generation (compaction) + later records.
	if err := d.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	if err := d.Create(Data, "c3", []byte("post-compaction")); err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	back, rep = mountReplayed(t, dir)
	if rep.Records != 1 {
		t.Fatalf("post-compaction replay records = %d, want 1", rep.Records)
	}
	if !sameState(snapshot(d), snapshot(back)) {
		t.Fatal("generation + log replay differs from live state")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestWALTornTailDiscard(t *testing.T) {
	dir := t.TempDir()
	rec := func(name, data string) WALRecord {
		return WALRecord{Op: WALSet, Cat: Data, Name: name, Data: []byte(data)}
	}
	writeSeg(t, dir, 1, []WALRecord{rec("a", "aaaa"), rec("b", "bbbb")}, 0)
	writeSeg(t, dir, 2, []WALRecord{rec("c", "cccc"), rec("d", "dddd")}, 5) // torn mid-record
	writeSeg(t, dir, 3, []WALRecord{rec("e", "eeee")}, 0)                   // beyond the torn tail

	// Replay is read-only and stops cleanly at the tear: a, b, c visible;
	// the torn d and everything after (all of segment 3) discarded.
	d, rep, err := Load(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Records != 3 || !rep.Truncated || rep.TruncatedSegment != walSegName(2) {
		t.Fatalf("replay report = %+v", rep)
	}
	if len(rep.DiscardedSegments) != 1 || rep.DiscardedSegments[0] != walSegName(3) {
		t.Fatalf("discarded = %v, want [%s]", rep.DiscardedSegments, walSegName(3))
	}
	for _, name := range []string{"a", "b", "c"} {
		if !d.Exists(Data, name) {
			t.Errorf("record %q lost", name)
		}
	}
	if d.Exists(Data, "d") || d.Exists(Data, "e") {
		t.Error("torn or post-tear record visible")
	}

	// Recover trims the debris on disk: segment 2 truncated to its valid
	// prefix, segment 3 removed.
	rrep, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Post-tear segments are removed before the torn one is truncated
	// (reverse order — see recoverWAL's re-entrancy comment).
	want := []string{"remove:" + walSegName(3), "truncate:" + walSegName(2)}
	if fmt.Sprint(rrep.WALTrimmed) != fmt.Sprint(want) {
		t.Fatalf("WALTrimmed = %v, want %v", rrep.WALTrimmed, want)
	}
	if _, err := os.Stat(filepath.Join(dir, walDirName, walSegName(3))); !os.IsNotExist(err) {
		t.Error("post-tear segment survived Recover")
	}
	d2, rep2 := mountReplayed(t, dir)
	if rep2.Truncated || rep2.Records != 3 {
		t.Fatalf("post-recover replay = %+v, want clean 3 records", rep2)
	}
	if !sameState(snapshot(d), snapshot(d2)) {
		t.Fatal("state changed across Recover")
	}

	// OpenWAL performs the same trim itself and never appends after
	// discardable bytes: the fresh active segment follows the kept ones.
	w, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if st := w.Stats(); st.Segment != 3 || st.DurableRecords != 3 {
		t.Fatalf("reopened stats = %+v, want segment 3 over 3 records", st)
	}
}

// TestLoadRepairsBestEffort: a Load that may repair folds the generation
// and the log in the same pass as its trim, and when no repair can be made
// (a read-only directory; here every repair step fails) it still loads
// exactly what a read-only Load does. A later Load that can write trims.
func TestLoadRepairsBestEffort(t *testing.T) {
	dir := t.TempDir()
	gen := New()
	gen.Create(Manifest, "m", []byte("in the generation"))
	if err := gen.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(filepath.Join(dir, "gen-000002.tmp"), 0o755); err != nil {
		t.Fatal(err)
	}
	rec := func(name, data string) WALRecord {
		return WALRecord{Op: WALSet, Cat: Data, Name: name, Data: []byte(data)}
	}
	writeSeg(t, dir, 1, []WALRecord{rec("a", "aaaa"), rec("b", "bbbb")}, 5) // torn
	writeSeg(t, dir, 2, []WALRecord{rec("c", "cccc")}, 0)                   // beyond the tear
	want, wantRep := mountReplayed(t, dir)
	if len(snapshot(want)[Manifest]) != 1 || len(snapshot(want)[Data]) != 1 {
		t.Fatalf("read-only load = %v, want the generation's manifest and record a", snapshot(want))
	}

	recoverHook = func(step string) error { return fmt.Errorf("read-only: %s", step) }
	d, rep, err := Load(dir, true)
	recoverHook = nil
	if err != nil || !sameState(snapshot(d), snapshot(want)) || rep.Records != wantRep.Records || len(rep.Trimmed) != 0 {
		t.Fatalf("Load with every repair failing = %+v, %v; want the read-only load, nothing trimmed", rep, err)
	}
	if _, err := os.Stat(filepath.Join(dir, "gen-000002.tmp")); err != nil {
		t.Fatalf("the failed repair removed the interrupted save: %v", err)
	}

	d, rep, err = Load(dir, true)
	if err != nil || !sameState(snapshot(d), snapshot(want)) || len(rep.Trimmed) != 2 {
		t.Fatalf("Load = %+v, %v; want the same objects and the torn segment and the one after it trimmed", rep, err)
	}
	if _, err := os.Stat(filepath.Join(dir, "gen-000002.tmp")); !os.IsNotExist(err) {
		t.Fatalf("the interrupted save survived a repairing Load: %v", err)
	}
	if _, rep := mountReplayed(t, dir); rep.Truncated || rep.Records != 1 {
		t.Fatalf("after the repair the log replays as %+v, want one record and no torn tail", rep)
	}
}

func TestWALGroupCommit(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	d := New()
	d.SetWAL(w)

	var batches []int
	var batchMu sync.Mutex
	w.SetBatchObserver(func(n int) {
		batchMu.Lock()
		batches = append(batches, n)
		batchMu.Unlock()
	})

	// Park the first flush inside its fsync, append a burst of records
	// while it is in flight, then release: the burst's waiters must share
	// one group commit instead of one fsync each.
	entered := make(chan struct{})
	release := make(chan struct{})
	var fsyncs int
	w.SetHook(func(op string, data []byte) ([]byte, error) {
		if strings.HasPrefix(op, "fsync:") {
			fsyncs++
			if fsyncs == 1 {
				close(entered)
				<-release
			}
		}
		return data, nil
	})

	if err := d.Create(Data, "first", []byte("x")); err != nil {
		t.Fatal(err)
	}
	lead := make(chan error, 1)
	go func() { lead <- w.Sync() }()
	<-entered

	const burst = 24
	for i := 0; i < burst; i++ {
		if err := d.Create(Data, fmt.Sprintf("burst-%02d", i), []byte("payload")); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, burst)
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) { defer wg.Done(); errs[i] = w.Sync() }(i)
	}
	close(release)
	if err := <-lead; err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("waiter %d: %v", i, err)
		}
	}

	st := w.Stats()
	if st.DurableRecords != burst+1 || st.PendingRecords != 0 {
		t.Fatalf("stats = %+v, want %d durable", st, burst+1)
	}
	if st.Syncs != 2 {
		t.Fatalf("fsync batches = %d, want exactly 2 (leader + one shared group commit)", st.Syncs)
	}
	batchMu.Lock()
	defer batchMu.Unlock()
	if len(batches) != 2 || batches[0] != 1 || batches[1] != burst {
		t.Fatalf("batch sizes = %v, want [1 %d]", batches, burst)
	}
}

func TestWALCompactionFoldsLog(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	d := New()
	d.SetWAL(w)
	for i := 0; i < 8; i++ {
		if err := d.Create(Data, fmt.Sprintf("c%d", i), bytes.Repeat([]byte{byte(i)}, 64)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := d.Create(Data, "unsynced", []byte("buffered only")); err != nil {
		t.Fatal(err)
	}

	// The generation commit folds both the durable segments and the
	// buffered record, restarting the log empty.
	if err := d.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	st := w.Stats()
	if st.DurableRecords != 0 || st.PendingRecords != 0 || st.Compactions != 1 {
		t.Fatalf("stats after compaction = %+v, want an empty log", st)
	}
	names, _, err := walSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != walSegName(st.Segment) {
		t.Fatalf("segments after compaction = %v, want only the fresh active one", names)
	}
	back, rep := mountReplayed(t, dir)
	if rep.Records != 0 {
		t.Fatalf("replay after compaction applied %d records, want 0", rep.Records)
	}
	if !sameState(snapshot(d), snapshot(back)) {
		t.Fatal("compacted state does not round-trip")
	}
}

func TestWALStickyErrorHealedByCompaction(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	d := New()
	d.SetWAL(w)

	boom := errors.New("disk on fire")
	w.SetHook(func(op string, data []byte) ([]byte, error) {
		if strings.HasPrefix(op, "fsync:") {
			return nil, boom
		}
		return data, nil
	})
	if err := d.Create(Data, "a", []byte("aaaa")); err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(); !errors.Is(err, boom) {
		t.Fatalf("sync error = %v, want the injected failure", err)
	}
	// The log is broken: nothing can be acked, and further records are
	// dropped (their state is safe in RAM).
	if err := d.Create(Data, "b", []byte("bbbb")); err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(); !errors.Is(err, boom) {
		t.Fatalf("sync after failure = %v, want sticky error", err)
	}
	w.SetHook(nil)
	if err := w.Sync(); !errors.Is(err, boom) {
		t.Fatalf("sticky error must persist until compaction, got %v", err)
	}

	// A generation commit re-captures the full state and heals the log.
	if err := d.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(); err != nil {
		t.Fatalf("error not healed by compaction: %v", err)
	}
	if err := d.Create(Data, "c", []byte("cccc")); err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	back, _ := mountReplayed(t, dir)
	if !sameState(snapshot(d), snapshot(back)) {
		t.Fatal("healed log does not round-trip")
	}
}

func TestSaveWithoutWALRemovesStaleLog(t *testing.T) {
	// A store that once ran durably leaves its log behind; a later
	// non-durable save must remove it, or the stale records would replay
	// on top of the new generation and resurrect dead state.
	dir := t.TempDir()
	writeSeg(t, dir, 1, []WALRecord{{Op: WALSet, Cat: Data, Name: "ghost", Data: []byte("boo")}}, 0)

	d := New()
	if err := d.Create(Data, "real", []byte("real")); err != nil {
		t.Fatal(err)
	}
	if err := d.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, walDirName)); !os.IsNotExist(err) {
		t.Fatal("stale wal/ survived a non-durable generation commit")
	}
	back, rep := mountReplayed(t, dir)
	if rep.Records != 0 {
		t.Fatalf("stale log replayed %d records", rep.Records)
	}
	if back.Exists(Data, "ghost") {
		t.Fatal("stale log resurrected a dead object")
	}
}

// ---------------------------------------------------------------------------
// Staged objects: extents, seals, streamed appends.

func ext(name string, off int64, data string) WALRecord {
	return WALRecord{Op: WALExtent, Cat: Data, Name: name, Off: off, Data: []byte(data)}
}

func seal(name string, n int64) WALRecord {
	return WALRecord{Op: WALSeal, Cat: Data, Name: name, Off: n}
}

// TestWALReplayStagedObjects holds replay to the stage/seal visibility
// rule over hand-built logs: an object is mounted whole at its seal or not
// at all, a run restarted at offset 0 (a name reused after a crash, a run
// re-logged by compaction on top of left-over segments) replaces what was
// staged, and a log whose extents and seals do not add up is refused loudly.
func TestWALReplayStagedObjects(t *testing.T) {
	set := WALRecord{Op: WALSet, Cat: Data, Name: "s", Data: []byte("set")}
	cases := []struct {
		name     string
		segs     [][]WALRecord
		tear     int // bytes chopped off the last segment
		want     map[string]string
		unsealed int
		err      string
	}{
		{name: "extents-then-seal", segs: [][]WALRecord{{ext("x", 0, "ab"), set, ext("x", 2, "cde"), seal("x", 5)}},
			want: map[string]string{"x": "abcde", "s": "set"}},
		{name: "no-seal-no-object", segs: [][]WALRecord{{ext("x", 0, "ab"), ext("x", 2, "cde"), set}},
			want: map[string]string{"s": "set"}, unsealed: 1},
		{name: "torn-before-seal", segs: [][]WALRecord{{set, ext("x", 0, "abcde"), seal("x", 5)}}, tear: 3,
			want: map[string]string{"s": "set"}, unsealed: 1},
		{name: "relogged-run-over-leftover-segment", segs: [][]WALRecord{
			{ext("x", 0, "ab"), ext("x", 2, "cd")},
			{ext("x", 0, "ab"), ext("x", 2, "cd"), ext("x", 4, "e"), seal("x", 5)}},
			want: map[string]string{"x": "abcde"}},
		{name: "name-reused-after-orphan", segs: [][]WALRecord{
			{ext("x", 0, "orphaned by a crash")},
			{ext("x", 0, "new"), seal("x", 3)}},
			want: map[string]string{"x": "new"}},
		{name: "sealed-twice-from-scratch", segs: [][]WALRecord{{ext("x", 0, "ab"), seal("x", 2), ext("x", 0, "ab"), seal("x", 2)}},
			want: map[string]string{"x": "ab"}},
		{name: "empty-extent", segs: [][]WALRecord{{ext("x", 0, ""), ext("x", 0, "a"), ext("x", 1, ""), seal("x", 1)}},
			want: map[string]string{"x": "a"}},
		{name: "gap", segs: [][]WALRecord{{ext("x", 0, "ab"), ext("x", 3, "d")}}, err: `extent of data "x" at 3, 2 bytes staged`},
		{name: "overlap", segs: [][]WALRecord{{ext("x", 0, "abc"), ext("x", 2, "cd")}}, err: "extent of"},
		{name: "far-offset", segs: [][]WALRecord{{ext("x", 1<<62, "a")}}, err: "extent of"},
		{name: "seal-without-extents", segs: [][]WALRecord{{set, seal("s", 3)}}, err: `seal of data "s" at 3 bytes, 0 staged`},
		{name: "double-seal", segs: [][]WALRecord{{ext("x", 0, "ab"), seal("x", 2), seal("x", 2)}}, err: "seal of"},
		{name: "short-seal", segs: [][]WALRecord{{ext("x", 0, "abc"), seal("x", 2)}}, err: "seal of"},
		{name: "long-seal", segs: [][]WALRecord{{ext("x", 0, "abc"), seal("x", 4)}}, err: "seal of"},
		{name: "seal-in-other-category", segs: [][]WALRecord{{ext("x", 0, "abc"), {Op: WALSeal, Cat: Hook, Name: "x", Off: 3}}}, err: "seal of"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			for i, recs := range c.segs {
				tear := 0
				if i == len(c.segs)-1 {
					tear = c.tear
				}
				writeSeg(t, dir, i+1, recs, tear)
			}
			d, rep, err := Load(dir, false)
			if c.err != "" {
				if err == nil || !strings.Contains(err.Error(), c.err) {
					t.Fatalf("replay error = %v, want one naming %q", err, c.err)
				}
				// The same log is refused by every way in: repair and mount.
				if _, err := Recover(dir); err == nil {
					t.Error("Recover accepted a log replay refuses")
				}
				if _, _, _, err := Mount(dir); err == nil {
					t.Error("Mount accepted a log replay refuses")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			got := map[string]string{}
			for name, data := range snapshot(d)[Data] {
				got[name] = string(data)
			}
			if fmt.Sprint(got) != fmt.Sprint(c.want) || rep.Unsealed != c.unsealed {
				t.Fatalf("mounted %v with %d unsealed, want %v with %d", got, rep.Unsealed, c.want, c.unsealed)
			}
			// Mount reads the log once and must see what replay saw.
			md, w, mrep, err := Mount(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			if !sameState(snapshot(d), snapshot(md)) || mrep.Records != rep.Records || mrep.Unsealed != rep.Unsealed {
				t.Fatalf("Mount report %+v / state differs from Load's %+v", mrep, rep)
			}
			if st := w.Stats(); st.DurableRecords != rep.Records || st.Segment != len(c.segs)+1 {
				t.Fatalf("mounted log stats = %+v, want %d records under segment %d", st, rep.Records, len(c.segs)+1)
			}
		})
	}
}

// FuzzWALScanReplay feeds arbitrary segment bytes (the magic is supplied)
// to the scan, the replay, the repair and the mount. None may panic; a
// replay either refuses the log or mounts exactly what a byte-at-a-time
// model of the stage/seal rule mounts — so no partly staged object ever
// surfaces — and never more bytes than the segment holds; what replay
// refuses, repair and mount refuse; and a repaired log replays to the same
// state with no torn tail left.
func FuzzWALScanReplay(f *testing.F) {
	enc := func(recs ...WALRecord) []byte {
		var buf []byte
		for _, r := range recs {
			buf = appendWALRecord(buf, r)
		}
		return buf
	}
	set := WALRecord{Op: WALSet, Cat: Manifest, Name: "m", Data: []byte("manifest")}
	f.Add(enc(ext("x", 0, "ab"), set, ext("x", 2, "cde"), seal("x", 5), WALRecord{Op: WALDelete, Cat: Data, Name: "x"}))
	f.Add(enc(ext("x", 0, "ab"), ext("x", 3, "gap")))
	f.Add(enc(ext("x", 0, "abc"), ext("x", 1, "overlap"), seal("x", 8)))
	f.Add(enc(ext("x", 0, "ab"), ext("x", 0, "ab"), ext("x", 2, "c"), seal("x", 3)))
	f.Add(enc(ext("x", 1<<62, "far")))
	f.Add(enc(seal("x", 0), seal("x", 7)))
	f.Add(enc(ext("x", 0, "ab"), seal("x", 2), seal("x", 2)))
	f.Add(enc(ext("x", 0, "abc"), seal("x", 2)))
	f.Add(enc(ext("x", 0, "abc"), seal("x", 1<<40)))
	f.Add(enc(set, ext("m", 0, "a"))[:30])
	f.Add(append(enc(ext("x", 0, "ab")), enc(seal("x", 2))[:12]...))
	f.Add(enc(WALRecord{Op: WALContract, Data: []byte(`{"ecs":4096}`)}, set))
	f.Fuzz(func(t *testing.T, body []byte) {
		seg := append([]byte(walMagic), body...)
		recs, valid, whole := walScanSegment(seg)
		if valid > len(seg) || (whole && valid != len(seg)) {
			t.Fatalf("scan: valid prefix %d of %d bytes, whole=%v", valid, len(seg), whole)
		}

		// The model: objects and staged bytes as plain strings.
		type key struct {
			cat  Category
			name string
		}
		objects, staged := map[key]string{}, map[key]string{}
		refused, contract := false, ""
		for _, r := range recs {
			k := key{r.Cat, r.Name}
			switch r.Op {
			case WALContract:
				contract = string(r.Data)
			case WALSet:
				objects[k] = string(r.Data)
			case WALDelete:
				delete(objects, k)
			case WALExtent:
				if r.Off == 0 {
					staged[k] = ""
				}
				if _, ok := staged[k]; !ok || r.Off != int64(len(staged[k])) {
					refused = true
				}
				staged[k] += string(r.Data)
			case WALSeal:
				if _, ok := staged[k]; !ok || r.Off != int64(len(staged[k])) {
					refused = true
				}
				objects[k] = staged[k]
				delete(staged, k)
			}
			if refused {
				break
			}
		}

		if len(recs) == 0 && !whole {
			return // nothing but a torn tail: its repair (two fsyncs) has tests of its own
		}
		dir := t.TempDir()
		if err := os.MkdirAll(filepath.Join(dir, walDirName), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, walDirName, walSegName(1)), seg, 0o644); err != nil {
			t.Fatal(err)
		}
		d, rep, err := Load(dir, false)
		_, rerr := Recover(dir)
		if (err != nil) != refused || (rerr != nil) != refused {
			t.Fatalf("model refuses=%v, replay error %v, recover error %v", refused, err, rerr)
		}
		if refused {
			if _, _, _, err := Mount(dir); err == nil {
				t.Fatal("Mount accepted a log replay refuses")
			}
			return
		}
		var mounted int
		if got := string(d.Contract(nil)); got != contract {
			t.Fatalf("mounted contract %q, model says %q", got, contract)
		}
		for cat, objs := range snapshot(d) {
			if cat == contractKey {
				continue
			}
			for name, data := range objs {
				if want, ok := objects[key{cat, name}]; !ok || want != string(data) {
					t.Fatalf("mounted %v %q = %q, model says %q (present %v)", cat, name, data, want, ok)
				}
				mounted += len(data)
				delete(objects, key{cat, name})
			}
		}
		if len(objects) != 0 || mounted > len(seg) || rep.Unsealed != len(staged) || rep.Records != int64(len(recs)) {
			t.Fatalf("replay %+v mounted %d bytes of a %d-byte segment, missed %d objects, model has %d unsealed",
				rep, mounted, len(seg), len(objects), len(staged))
		}
		again, arep := mountReplayed(t, dir)
		if arep.Truncated || !sameState(snapshot(d), snapshot(again)) {
			t.Fatalf("repaired log replays differently: %+v", arep)
		}
	})
}

// TestWALStreamsAheadOfSync pins what early write-back may and may not do:
// past the threshold a background write puts the queue in the segment
// without any Sync, those bytes still count as pending (a crash may lose
// them; admission control must see them), only Sync fsyncs — once — and
// the mount afterwards is the same as an unstreamed log's.
func TestWALStreamsAheadOfSync(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	w.streamAt = 64
	d := New()
	d.SetWAL(w)
	payload := bytes.Repeat([]byte("streamed "), 50)
	d.Stage(Data, "c", 0, [][]byte{payload[:200], payload[200:]})
	w.waitIdle()
	seg := filepath.Join(dir, walDirName, walSegName(1))
	info, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	st := w.Stats()
	if info.Size() < int64(len(payload)) || st.StreamedBytes != info.Size()-int64(len(walMagic)) {
		t.Fatalf("segment holds %d bytes, stats %+v: the extent was not written back", info.Size(), st)
	}
	if st.PendingBytes != st.StreamedBytes || st.PendingRecords != 1 || st.DurableRecords != 0 || st.Syncs != 0 {
		t.Fatalf("streamed bytes must stay pending until an fsync: %+v", st)
	}
	if d.Exists(Data, "c") {
		t.Fatal("a staged object is visible before its seal")
	}
	if err := d.Create(Data, "c", payload); err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	st = w.Stats()
	if st.PendingBytes != 0 || st.DurableRecords != 2 || st.Syncs != 1 {
		t.Fatalf("stats after sync = %+v, want extent + seal durable in one fsync", st)
	}
	if logged := st.DurableBytes - int64(len(walMagic)); logged > int64(len(payload))+100 {
		t.Fatalf("log holds %d bytes for a %d-byte object: the seal carried the payload again", logged, len(payload))
	}
	back, rep := mountReplayed(t, dir)
	if rep.Records != 2 || !sameState(snapshot(d), snapshot(back)) {
		t.Fatalf("replay %+v differs from live state", rep)
	}

	// A create that does not match what was staged is logged whole.
	d.Stage(Data, "short", 0, [][]byte{[]byte("abc")})
	if err := d.Create(Data, "short", []byte("abcd")); err != nil {
		t.Fatal(err)
	}
	// And an unstaged one leaves nothing for compaction to re-log.
	d.Stage(Data, "gone", 0, [][]byte{[]byte("never sealed")})
	d.Unstage(Data, "gone")
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	back, rep = mountReplayed(t, dir)
	if rep.Unsealed != 2 || !sameState(snapshot(d), snapshot(back)) {
		t.Fatalf("replay %+v differs from live state", rep)
	}
	if err := d.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	if st := w.Stats(); st.PendingRecords != 0 {
		t.Fatalf("compaction re-logged %d records of objects nobody will seal", st.PendingRecords)
	}
}

// TestWALBackgroundWriteErrorIsSticky: a write that fails off the caller's
// goroutine must fail the next Sync — nothing is acknowledged on top of a
// hole in the log — and keep failing it until a generation commit heals.
func TestWALBackgroundWriteErrorIsSticky(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	w.streamAt = 64
	d := New()
	d.SetWAL(w)
	boom := errors.New("disk on fire")
	w.SetHook(func(op string, data []byte) ([]byte, error) {
		if strings.HasPrefix(op, "append:") {
			return nil, boom
		}
		return data, nil
	})
	if err := d.Create(Data, "a", bytes.Repeat([]byte{1}, 200)); err != nil {
		t.Fatal(err)
	}
	w.waitIdle()
	w.SetHook(nil)
	if err := d.Create(Data, "b", []byte("after the failure")); err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(); !errors.Is(err, boom) {
		t.Fatalf("sync after a failed background write = %v, want the injected failure", err)
	}
	if st := w.Stats(); st.Syncs != 0 || st.DurableRecords != 0 {
		t.Fatalf("something was acknowledged past a failed write: %+v", st)
	}
	if back, _ := mountReplayed(t, dir); len(back.Names(Data)) != 0 {
		t.Fatal("a record reached the log after the write that failed")
	}
	if err := d.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(); err != nil {
		t.Fatalf("log not healed by compaction: %v", err)
	}
	back, _ := mountReplayed(t, dir)
	if !sameState(snapshot(d), snapshot(back)) {
		t.Fatal("healed store does not round-trip")
	}
}

// TestWALConcurrentSessionsStream: sessions staging, sealing and committing
// side by side, background writes and group commits taking turns on the
// segment and compactions folding the log under half-staged containers —
// and the remount is the live state, every container whole.
func TestWALConcurrentSessionsStream(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	w.streamAt = 512
	d := New()
	d.SetWAL(w)
	var wg sync.WaitGroup
	for s := 0; s < 4; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(s)))
			for i := 0; i < 40; i++ {
				name := fmt.Sprintf("s%d-c%d", s, i)
				data := make([]byte, 200+rng.Intn(2000))
				rng.Read(data)
				for off := 0; off < len(data); {
					n := min(1+rng.Intn(700), len(data)-off)
					d.Stage(Data, name, int64(off), [][]byte{data[off : off+n]})
					off += n
				}
				if i == 5+8*s {
					// Between this container's extents and its seal, and
					// wherever the other sessions happen to be.
					if err := d.SaveDir(dir); err != nil {
						t.Error(err)
					}
				}
				if err := d.Create(Data, name, data); err != nil {
					t.Error(err)
				}
				if err := d.Create(FileManifest, name, []byte(name)); err != nil {
					t.Error(err)
				}
				if err := w.Sync(); err != nil {
					t.Error(err)
				}
			}
		}(s)
	}
	wg.Wait()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	back, rep := mountReplayed(t, dir)
	if rep.Unsealed != 0 || rep.Truncated || !sameState(snapshot(d), snapshot(back)) {
		t.Fatalf("remount %+v differs from the live state", rep)
	}
	if st := w.Stats(); st.Compactions != 4 || st.StreamedBytes == 0 {
		t.Fatalf("stats %+v: the run never compacted or never streamed", st)
	}
}

// ---------------------------------------------------------------------------
// The kill-every-point crash matrix.

// wop is one step of a scripted durable workload.
type wop struct {
	// 'C' create, 'W' write, 'D' delete, 'S' sync (ack), 'G' generation
	// commit (ack), 'E' stage data[lo:hi] as an extent at lo, 'O' create
	// owned (the seal of what was staged), 'K' stamp data as the contract.
	kind   byte
	cat    Category
	name   string
	data   []byte
	lo, hi int
}

// walKillScript builds the deterministic workload of one seed: object
// mutations with group commits between them and one compaction mid-stream,
// so kill points land in log appends, fsyncs, the generation commit and
// the segment swap alike.
func walKillScript(seed int64) []wop {
	rng := rand.New(rand.NewSource(seed))
	payload := func(n int) []byte {
		b := make([]byte, 1+rng.Intn(n))
		rng.Read(b)
		return b
	}
	return []wop{
		{kind: 'K', data: []byte(`{"algorithm":"mhd","ecs":4096}`)},
		{kind: 'C', cat: Data, name: "c1", data: payload(200)},
		{kind: 'C', cat: Hook, name: "h1", data: payload(40)},
		{kind: 'S'},
		{kind: 'C', cat: Data, name: "c2", data: payload(300)},
		{kind: 'W', cat: Data, name: "c1", data: payload(150)},
		{kind: 'S'},
		{kind: 'G'},
		{kind: 'C', cat: FileManifest, name: "f/one", data: payload(80)},
		{kind: 'D', cat: Data, name: "c2"},
		{kind: 'S'},
		{kind: 'C', cat: Data, name: "c3", data: payload(500)},
		{kind: 'S'},
	}
}

// walStagedScript is the history the streamed log adds: two sessions, A and
// B, each cutting files as stage → stage → seal → manifest → file manifest
// → commit, interleaved, with a generation commit between B's first extent
// and its seal and another while A's second container is half staged. Run
// with a write-back threshold of 64 bytes, so kill points land in streamed
// appends (extents both over and under the threshold), fsyncs and both
// compactions.
func walStagedScript(seed int64) []wop {
	rng := rand.New(rand.NewSource(seed))
	payload := func(n int) []byte {
		b := make([]byte, n+rng.Intn(n))
		rng.Read(b)
		return b
	}
	xa, yb, za := payload(300), payload(400), payload(250)
	return []wop{
		{kind: 'E', cat: Data, name: "xa", data: xa, lo: 0, hi: 120},
		{kind: 'E', cat: Data, name: "yb", data: yb, lo: 0, hi: 30},
		{kind: 'E', cat: Data, name: "xa", data: xa, lo: 120, hi: len(xa)},
		{kind: 'O', cat: Data, name: "xa", data: xa},
		{kind: 'C', cat: Manifest, name: "xa", data: payload(40)},
		{kind: 'C', cat: FileManifest, name: "f/a1", data: payload(30)},
		{kind: 'S'},
		{kind: 'E', cat: Data, name: "yb", data: yb, lo: 30, hi: 200},
		{kind: 'G'},
		{kind: 'E', cat: Data, name: "yb", data: yb, lo: 200, hi: len(yb)},
		{kind: 'O', cat: Data, name: "yb", data: yb},
		{kind: 'C', cat: Manifest, name: "yb", data: payload(40)},
		{kind: 'C', cat: FileManifest, name: "f/b1", data: payload(30)},
		{kind: 'E', cat: Data, name: "za", data: za, lo: 0, hi: 100},
		{kind: 'S'},
		{kind: 'W', cat: Manifest, name: "xa", data: payload(45)},
		{kind: 'G'},
		{kind: 'E', cat: Data, name: "za", data: za, lo: 100, hi: len(za)},
		{kind: 'O', cat: Data, name: "za", data: za},
		{kind: 'C', cat: FileManifest, name: "f/a2", data: payload(30)},
		{kind: 'S'},
		{kind: 'D', cat: Data, name: "xa"},
		{kind: 'S'},
	}
}

// waitIdle returns once no background write or group commit owns the
// segment: scripted runs call it after every step, so the order of
// persistence points — and with it each kill point — is the same every run.
func (w *WAL) waitIdle() {
	w.mu.Lock()
	defer w.mu.Unlock()
	for w.busy {
		w.idle.Wait()
	}
}

// walRunResult is what a (possibly killed) scripted run observed:
// snapshots after every mutation, and the index of the last mutation whose
// acknowledgement barrier succeeded.
type walRunResult struct {
	snaps  []map[Category]map[string][]byte
	acked  int
	killed bool
}

// runWALScript executes script against a fresh durable mount of dir,
// stopping at the first barrier that reports the injected kill exactly as a
// crash would (no Close, no cleanup). streamAt, when not 0, replaces the
// log's write-back threshold.
func runWALScript(t *testing.T, dir string, script []wop, streamAt int64, hook SaveHook) walRunResult {
	t.Helper()
	w, err := OpenWAL(dir)
	if err != nil {
		t.Fatalf("open wal: %v", err)
	}
	if streamAt > 0 {
		w.streamAt = streamAt
	}
	d := New()
	d.SetWAL(w)
	w.SetHook(hook)
	d.SetSaveHook(hook)

	res := walRunResult{snaps: []map[Category]map[string][]byte{snapshot(d)}}
	barrier := func(err error) bool {
		if err == nil {
			res.acked = len(res.snaps) - 1
			return true
		}
		if errors.Is(err, ErrKilled) {
			res.killed = true
			return false
		}
		t.Fatalf("barrier failed with a non-crash error: %v", err)
		return false
	}
	for _, op := range script {
		w.waitIdle()
		switch op.kind {
		case 'E':
			// Two slices, so Parts is exercised as the engine uses it.
			mid := (op.lo + op.hi) / 2
			d.Stage(op.cat, op.name, int64(op.lo), [][]byte{op.data[op.lo:mid], op.data[mid:op.hi]})
			continue
		case 'O':
			if err := d.Create(op.cat, op.name, append([]byte(nil), op.data...)); err != nil {
				t.Fatalf("create owned %q: %v", op.name, err)
			}
		case 'K':
			d.Contract(op.data)
		case 'C':
			if err := d.Create(op.cat, op.name, op.data); err != nil {
				t.Fatalf("create %q: %v", op.name, err)
			}
		case 'W':
			if err := d.Write(op.cat, op.name, op.data); err != nil {
				t.Fatalf("write %q: %v", op.name, err)
			}
		case 'D':
			if err := d.Delete(op.cat, op.name); err != nil {
				t.Fatalf("delete %q: %v", op.name, err)
			}
		case 'S':
			if !barrier(w.Sync()) {
				return res
			}
			continue
		case 'G':
			if !barrier(d.SaveDir(dir)) {
				return res
			}
			continue
		}
		res.snaps = append(res.snaps, snapshot(d))
	}
	if !barrier(w.Close()) {
		return res
	}
	return res
}

// TestWALKillEveryPoint is the acceptance matrix: the scripted workload is
// killed at every persistence point — log appends (torn and clean), group
// commit fsyncs, every step of the generation commit and the segment swap —
// across several seeds, and after every kill the recovered mount must be
// prefix-consistent: it equals the state after some mutation prefix that
// includes every acknowledged mutation. Recovery itself must be idempotent.
func TestWALKillEveryPoint(t *testing.T) {
	seeds := []int64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	histories := []struct {
		prefix   string
		script   func(seed int64) []wop
		streamAt int64
		points   int // fewest persistence points a crash-free run must have
	}{
		{"", walKillScript, 0, 10},
		{"staged-", walStagedScript, 64, 30},
	}
	runs := 0
	for _, h := range histories {
		for _, seed := range seeds {
			script := h.script(seed)

			// Probe run: count the workload's persistence points.
			var total int
			probeDir := t.TempDir()
			res := runWALScript(t, probeDir, script, h.streamAt, func(path string, data []byte) ([]byte, error) {
				total++
				return data, nil
			})
			if res.killed || res.acked != len(res.snaps)-1 {
				t.Fatalf("probe run did not complete: %+v", res)
			}
			back, rep := mountReplayed(t, probeDir)
			if !sameState(snapshot(back), res.snaps[len(res.snaps)-1]) {
				t.Fatal("crash-free run does not round-trip")
			}
			if rep.Unsealed != 0 {
				t.Fatalf("crash-free run left %d unsealed objects in the log", rep.Unsealed)
			}
			if total < h.points {
				t.Fatalf("suspiciously few kill points: %d", total)
			}

			for kill := 1; kill <= total; kill++ {
				for _, tear := range []bool{false, true} {
					kill, tear := kill, tear
					runs++
					t.Run(fmt.Sprintf("%sseed-%d-kill-%d-tear-%v", h.prefix, seed, kill, tear), func(t *testing.T) {
						dir := t.TempDir()
						var point int
						res := runWALScript(t, dir, script, h.streamAt, func(path string, data []byte) ([]byte, error) {
							point++
							if point == kill && tear && len(data) > 1 {
								// Torn write: half the payload reaches the
								// platter before the crash.
								return data[:len(data)/2], ErrKilled
							}
							if point >= kill {
								// The process is dead: a kill inside a background
								// write surfaces at the next barrier, and nothing
								// may reach the directory in between.
								return nil, ErrKilled
							}
							return data, nil
						})
						if !res.killed {
							t.Fatalf("kill point %d never fired", kill)
						}

						if _, err := Recover(dir); err != nil {
							t.Fatalf("recover after kill: %v", err)
						}
						got, _ := mountReplayed(t, dir)
						state := snapshot(got)
						match := -1
						for i := res.acked; i < len(res.snaps); i++ {
							if sameState(state, res.snaps[i]) {
								match = i
								break
							}
						}
						if match < 0 {
							t.Fatalf("recovered state is not a mutation prefix covering all %d acked mutations", res.acked)
						}

						// Recovery converges: a second Recover changes nothing.
						if _, err := Recover(dir); err != nil {
							t.Fatalf("second recover: %v", err)
						}
						again, _ := mountReplayed(t, dir)
						if !sameState(state, snapshot(again)) {
							t.Fatal("second Recover changed the mounted state")
						}
					})
				}
			}
		}
	}
	if !testing.Short() && runs < 100 {
		t.Fatalf("crash matrix ran only %d seeded runs, want >= 100", runs)
	}
}

// ---------------------------------------------------------------------------
// Recover idempotence over debris layouts, with crashes inside Recover.

// TestRecoverIdempotentDebris drives Recover's own kill seam over a table
// of crash-debris layouts: for each layout, recovery is killed at every
// repair step and re-run, and the converged mount must equal the mount a
// crash-free recovery produces. A further Recover must be a no-op.
func TestRecoverIdempotentDebris(t *testing.T) {
	rec := func(name, data string) WALRecord {
		return WALRecord{Op: WALSet, Cat: Data, Name: name, Data: []byte(data)}
	}
	saveBase := func(t *testing.T, dir string) {
		d := New()
		if err := d.Create(Data, "base", []byte("committed")); err != nil {
			t.Fatal(err)
		}
		if err := d.Create(FileManifest, "f/base", []byte("recipe")); err != nil {
			t.Fatal(err)
		}
		if err := d.SaveDir(dir); err != nil {
			t.Fatal(err)
		}
	}
	layouts := []struct {
		name  string
		build func(t *testing.T, dir string)
	}{
		{"stale-tmp-and-torn-tail", func(t *testing.T, dir string) {
			saveBase(t, dir)
			tmp := filepath.Join(dir, "gen-000002.tmp", "chunks")
			if err := os.MkdirAll(tmp, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(tmp, "junk"), []byte("partial"), 0o644); err != nil {
				t.Fatal(err)
			}
			writeSeg(t, dir, 4, []WALRecord{rec("w1", "logged"), rec("w2", "torn")}, 7)
		}},
		{"orphan-partial-generation", func(t *testing.T, dir string) {
			saveBase(t, dir)
			orphan := filepath.Join(dir, "gen-000002", "chunks")
			if err := os.MkdirAll(orphan, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(orphan, "halfway"), []byte("no GEN.json"), 0o644); err != nil {
				t.Fatal(err)
			}
			writeSeg(t, dir, 1, []WALRecord{rec("w1", "logged")}, 0)
		}},
		{"torn-marker", func(t *testing.T, dir string) {
			saveBase(t, dir)
			marker := filepath.Join(dir, markerFile)
			raw, err := os.ReadFile(marker)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(marker, raw[:len(raw)/2], 0o644); err != nil {
				t.Fatal(err)
			}
			writeSeg(t, dir, 2, []WALRecord{rec("w1", "logged")}, 0)
		}},
		{"bad-magic-mid-log", func(t *testing.T, dir string) {
			writeSeg(t, dir, 1, []WALRecord{rec("w1", "kept")}, 0)
			if err := os.WriteFile(filepath.Join(dir, walDirName, walSegName(2)), []byte("GARBAGE!"), 0o644); err != nil {
				t.Fatal(err)
			}
			writeSeg(t, dir, 3, []WALRecord{rec("w3", "beyond the corruption")}, 0)
		}},
		{"wal-only-torn-tail", func(t *testing.T, dir string) {
			writeSeg(t, dir, 1, []WALRecord{rec("w1", "kept"), rec("w2", "torn")}, 3)
		}},
		{"legacy-layout-with-log-debris", func(t *testing.T, dir string) {
			// Category dirs at top level — the pre-generation layout, no
			// longer loaded — are nobody's: neither mounted nor touched.
			if err := os.MkdirAll(filepath.Join(dir, "chunks"), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, "chunks", "old"), []byte("legacy"), 0o644); err != nil {
				t.Fatal(err)
			}
			writeSeg(t, dir, 1, []WALRecord{rec("w1", "kept"), rec("w2", "torn")}, 3)
		}},
	}

	for _, lt := range layouts {
		lt := lt
		t.Run(lt.name, func(t *testing.T) {
			defer func() { recoverHook = nil }()

			// Reference: a crash-free recovery of this layout.
			refDir := t.TempDir()
			lt.build(t, refDir)
			var steps []string
			recoverHook = func(step string) error { steps = append(steps, step); return nil }
			if _, err := Recover(refDir); err != nil {
				t.Fatalf("clean recover: %v", err)
			}
			recoverHook = nil
			ref, _ := mountReplayed(t, refDir)
			want := snapshot(ref)
			if len(steps) == 0 {
				t.Fatalf("layout needs no repairs; it does not exercise the seam")
			}

			// A second recovery finds nothing left to repair.
			rep, err := Recover(refDir)
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.RolledBack) != 0 || len(rep.WALTrimmed) != 0 || rep.RepairedMarker {
				t.Fatalf("second Recover still repairing: %+v", rep)
			}

			// Kill the recovery at every repair step; re-running must
			// converge on the reference state.
			for kill := 1; kill <= len(steps); kill++ {
				kill := kill
				t.Run(fmt.Sprintf("kill-step-%d", kill), func(t *testing.T) {
					dir := t.TempDir()
					lt.build(t, dir)
					var n int
					recoverHook = func(step string) error {
						n++
						if n == kill {
							return ErrKilled
						}
						return nil
					}
					if _, err := Recover(dir); !errors.Is(err, ErrKilled) {
						t.Fatalf("killed recover error = %v, want ErrKilled", err)
					}
					recoverHook = nil
					if _, err := Recover(dir); err != nil {
						t.Fatalf("recover after crash inside recovery: %v", err)
					}
					got, grep := mountReplayed(t, dir)
					if grep.Truncated {
						t.Error("converged log still has a torn tail")
					}
					if !sameState(want, snapshot(got)) {
						t.Fatal("recovery after a crash inside Recover diverged from the crash-free result")
					}
				})
			}
		})
	}
}

// SetWAL attaches w as the disk's write-ahead delta log: every successful
// Create/Write/Delete from here on is journaled as a delta record, and a
// SaveDir into the WAL's own store directory folds the log into the new
// generation (compaction). Pass nil to detach. The WAL must belong to the
// directory the disk is persisted into; attach it right after the load,
// before any mutation (Mount does both).
func (d *Disk) SetWAL(w *WAL) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.wal = w
}

// SetHook installs fn as the log's persistence fault injector (consulted
// before every segment create/append/fsync/remove, on whichever goroutine
// makes it); nil clears it.
func (w *WAL) SetHook(fn SaveHook) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.hook = fn
}
