package store

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"mhdedup/internal/events"
	"mhdedup/internal/hashutil"
	"mhdedup/internal/metrics"
	"mhdedup/internal/simdisk"
)

// openDurableT opens dir with background maintenance off and a private
// registry, so tests control every flush/compaction themselves.
func openDurableT(t *testing.T, dir string, opts DurableOptions) (*Durable, simdisk.WALReplayReport) {
	t.Helper()
	opts.FlushInterval = -1
	if opts.Registry == nil {
		opts.Registry = metrics.NewRegistry()
	}
	d, rep, err := OpenDurable(dir, opts)
	if err != nil {
		t.Fatalf("open durable %s: %v", dir, err)
	}
	return d, rep
}

func TestDurableCommitSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	d, rep := openDurableT(t, dir, DurableOptions{})
	if rep.Records != 0 {
		t.Fatalf("fresh store replayed %d records", rep.Records)
	}
	if err := d.Disk().Create(simdisk.Data, "a", []byte("acked")); err != nil {
		t.Fatal(err)
	}
	if err := d.Disk().Create(simdisk.FileManifest, "f/a", []byte("recipe")); err != nil {
		t.Fatal(err)
	}
	if err := d.Commit(); err != nil {
		t.Fatal(err)
	}
	// Un-committed records after the barrier model the in-flight work a
	// crash may lose.
	if err := d.Disk().Create(simdisk.Data, "b", []byte("never acked")); err != nil {
		t.Fatal(err)
	}
	// No Close: the process "dies" here.

	d2, rep2 := openDurableT(t, dir, DurableOptions{})
	defer d2.Close()
	if rep2.Records != 2 {
		t.Fatalf("reopen replayed %d records, want the 2 committed ones", rep2.Records)
	}
	if got, err := d2.Disk().Read(simdisk.Data, "a"); err != nil || !bytes.Equal(got, []byte("acked")) {
		t.Fatalf("committed object = %q, %v", got, err)
	}
	if d2.Disk().Exists(simdisk.Data, "b") {
		t.Fatal("uncommitted record replayed")
	}
}

func TestDurableCompactFoldsIntoGeneration(t *testing.T) {
	dir := t.TempDir()
	d, _ := openDurableT(t, dir, DurableOptions{})
	defer d.Close()
	for i := 0; i < 5; i++ {
		if err := d.Disk().Create(simdisk.Data, fmt.Sprintf("c%d", i), bytes.Repeat([]byte{byte(i)}, 128)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := d.Compact(); err != nil {
		t.Fatal(err)
	}
	st := d.WAL().Stats()
	if st.DurableRecords != 0 || st.Compactions != 1 {
		t.Fatalf("log after compaction = %+v, want empty", st)
	}

	// A reopen replays nothing; the state lives in the generation.
	d2, rep := openDurableT(t, dir, DurableOptions{})
	defer d2.Close()
	if rep.Records != 0 {
		t.Fatalf("post-compaction reopen replayed %d records", rep.Records)
	}
	for i := 0; i < 5; i++ {
		if !d2.Disk().Exists(simdisk.Data, fmt.Sprintf("c%d", i)) {
			t.Fatalf("object c%d lost across compaction", i)
		}
	}
}

func TestDurableOverloaded(t *testing.T) {
	dir := t.TempDir()
	d, _ := openDurableT(t, dir, DurableOptions{
		ShedPendingBytes: 64,
		ShedLogBytes:     256,
	})
	defer d.Close()

	if reason, over := d.Overloaded(); over {
		t.Fatalf("fresh store overloaded: %s", reason)
	}
	// Un-fsynced records past the pending budget: the group commit is
	// behind.
	if err := d.Disk().Create(simdisk.Data, "big", bytes.Repeat([]byte{1}, 400)); err != nil {
		t.Fatal(err)
	}
	reason, over := d.Overloaded()
	if !over || !strings.Contains(reason, "log flush behind") {
		t.Fatalf("overloaded = %v %q, want pending-bytes shed", over, reason)
	}
	// After the flush, the durable footprint breaches the log budget: now
	// compaction is behind.
	if err := d.Commit(); err != nil {
		t.Fatal(err)
	}
	reason, over = d.Overloaded()
	if !over || !strings.Contains(reason, "compaction behind") {
		t.Fatalf("overloaded = %v %q, want log-bytes shed", over, reason)
	}
	// Compaction restores admission.
	if err := d.Compact(); err != nil {
		t.Fatal(err)
	}
	if reason, over := d.Overloaded(); over {
		t.Fatalf("still overloaded after compaction: %s", reason)
	}
}

func TestDurableMaintenanceCompactsBySize(t *testing.T) {
	dir := t.TempDir()
	reg := metrics.NewRegistry()
	d, _, err := OpenDurable(dir, DurableOptions{
		FlushInterval:   2 * time.Millisecond,
		CompactLogBytes: 1024,
		CompactInterval: -1,
		Registry:        reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	d.Start()

	// Append well past the size trigger; the background loop must both
	// flush the records and fold the log without any Commit/Compact call.
	for i := 0; i < 8; i++ {
		if err := d.Disk().Create(simdisk.Data, fmt.Sprintf("c%d", i), bytes.Repeat([]byte{byte(i)}, 512)); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if st := d.WAL().Stats(); st.Compactions > 0 && st.PendingRecords == 0 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("maintenance never compacted: %+v", d.WAL().Stats())
}

func TestDurableMaintenanceBacksOffUnderLatency(t *testing.T) {
	dir := t.TempDir()
	hPace := metrics.NewRegistry().Histogram("test.pace_ns")
	ev := events.New(events.Options{Level: events.LevelDebug, Out: io.Discard})
	d, _, err := OpenDurable(dir, DurableOptions{
		FlushInterval:   2 * time.Millisecond,
		CompactLogBytes: 64,
		CompactInterval: -1,
		ShedLogBytes:    1 << 40, // never urgent
		PaceHistogram:   hPace,
		P99Budget:       time.Millisecond,
		Registry:        metrics.NewRegistry(),
		Events:          ev,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	if err := d.Disk().Create(simdisk.Data, "c", bytes.Repeat([]byte{1}, 256)); err != nil {
		t.Fatal(err)
	}
	if err := d.Commit(); err != nil {
		t.Fatal(err)
	}

	// Feed the pacing histogram a stream of over-budget latencies: every
	// tick sees fresh slow samples, so compaction keeps backing off even
	// though the log is past its size trigger.
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				hPace.Observe(int64(10 * time.Millisecond))
				time.Sleep(time.Millisecond)
			}
		}
	}()
	d.Start()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && d.backoffs.Load() == 0 {
		time.Sleep(5 * time.Millisecond)
	}
	backedOff := d.backoffs.Load()
	close(stop)
	if backedOff == 0 {
		t.Fatal("maintenance never backed off under latency pressure")
	}
	if d.compactions.Load() != 0 {
		t.Fatal("compaction ran while the ingest p99 was over budget")
	}

	// Once the latency pressure stops, the next quiet tick compacts.
	deadline = time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && d.compactions.Load() == 0 {
		time.Sleep(5 * time.Millisecond)
	}
	if d.compactions.Load() == 0 {
		t.Fatal("compaction never resumed after the latency pressure ended")
	}
	foundEvent := false
	for _, e := range ev.Recent() {
		if e.Type == "compaction.backoff" {
			foundEvent = true
		}
	}
	if !foundEvent {
		t.Error("no compaction.backoff event emitted")
	}
}

// TestScrubOnlineRunsInline: the online scrub verifies beside live ingest,
// so it reads inline whatever the default width is. A default verified
// restore of the store starts reads ahead (on more than one P);
// Durable.Scrub verifies the same containers and starts none.
func TestScrubOnlineRunsInline(t *testing.T) {
	d, _ := openDurableT(t, t.TempDir(), DurableOptions{})
	defer d.Close()
	Contract{Algorithm: "cdc", Format: FormatBasic, ECS: 4096}.Stamp(d.Disk())
	s := New(d.Disk(), FormatBasic)
	file, want := fillFragmented(t, s, 5, 300)
	if err := d.Commit(); err != nil {
		t.Fatal(err)
	}
	ahead := func() int64 { return hRestoreWindow.Snapshot().Count }
	before := ahead()
	var got bytes.Buffer
	if err := NewVerifier(s, VerifyOpts{}).RestoreFile(file, &got); err != nil || !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("verified restore: %v", err)
	}
	if started := ahead() - before; (started > 0) != (verifiedWorkers() > 1) {
		t.Fatalf("a default verified restore at width %d started %d reads ahead", verifiedWorkers(), started)
	}
	before, hashed := ahead(), cVerifyHashedBytes.Load()
	if err := d.Scrub(); err != nil {
		t.Fatal(err)
	}
	if cVerifyHashedBytes.Load() == hashed {
		t.Fatal("the online scrub verified nothing")
	}
	if started := ahead() - before; started != 0 {
		t.Fatalf("the online scrub started %d reads ahead", started)
	}
}

func TestDurableScrubFlagsCorruption(t *testing.T) {
	dir := t.TempDir()
	ev := events.New(events.Options{Level: events.LevelDebug, Out: io.Discard})
	d, _ := openDurableT(t, dir, DurableOptions{Events: ev})
	defer d.Close()

	// An empty store scrubs clean.
	if err := d.Scrub(); err != nil {
		t.Fatalf("scrub of empty store: %v", err)
	}

	// A file manifest that cannot decode must surface as a scrub error —
	// found via the snapshot, without touching the live disk.
	if err := d.Disk().Create(simdisk.FileManifest, "f/bad", []byte("not a manifest")); err != nil {
		t.Fatal(err)
	}
	if err := d.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := d.Scrub(); err == nil {
		t.Fatal("scrub of a corrupt file manifest reported success")
	}
	var sawCorrupt, sawDone bool
	for _, e := range ev.Recent() {
		switch e.Type {
		case "scrub.corrupt":
			sawCorrupt = true
		case "scrub.done":
			sawDone = true
		}
	}
	if !sawCorrupt || !sawDone {
		t.Errorf("scrub events corrupt=%v done=%v, want both", sawCorrupt, sawDone)
	}
	if d.scrubErrors.Load() == 0 {
		t.Error("scrub error counter not bumped")
	}
}

// TestDurableScrubFlagsMissingContainer: a container a recipe needs but
// the store no longer holds fails the online scrub, naming the file.
func TestDurableScrubFlagsMissingContainer(t *testing.T) {
	ev := events.New(events.Options{Level: events.LevelDebug, Out: io.Discard})
	d, _ := openDurableT(t, t.TempDir(), DurableOptions{Events: ev})
	defer d.Close()
	Contract{Algorithm: "cdc", Format: FormatBasic, ECS: 4096}.Stamp(d.Disk())
	file, _ := fillFragmented(t, New(d.Disk(), FormatBasic), 7, 50)
	if err := d.Disk().Delete(simdisk.Data, hashutil.SumString("frag-c0").Hex()); err != nil {
		t.Fatal(err)
	}
	if err := d.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := d.Scrub(); err == nil {
		t.Fatal("a store missing a container scrubbed clean")
	}
	for _, e := range ev.Recent() {
		if e.Type == "scrub.corrupt" && strings.Contains(e.String(), file) {
			return
		}
	}
	t.Errorf("no scrub.corrupt event names %s", file)
}

func TestDurableGaugesExported(t *testing.T) {
	dir := t.TempDir()
	reg := metrics.NewRegistry()
	d, _ := openDurableT(t, dir, DurableOptions{Registry: reg})
	defer d.Close()
	if err := d.Disk().Create(simdisk.Data, "a", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	if err := d.Commit(); err != nil {
		t.Fatal(err)
	}
	// A container big enough to be written back while it is still staged:
	// by its commit the log has streamed it, and the commit is one more
	// sample of store.commit_ns.
	big := bytes.Repeat([]byte("0123456789abcdef"), 16<<10)
	d.Disk().Stage(simdisk.Data, "big", 0, [][]byte{big})
	if err := d.Disk().Create(simdisk.Data, "big", big); err != nil {
		t.Fatal(err)
	}
	if err := d.Commit(); err != nil {
		t.Fatal(err)
	}
	export := reg.ExportAll()
	for _, name := range []string{"store.log_bytes", "store.log_records", "store.log_pending_bytes", "store.log_streamed_bytes", "store.last_fsync_ns", "store.compactions", "store.compaction_backoffs"} {
		if _, ok := export.Gauges[name]; !ok {
			t.Errorf("gauge %s not exported", name)
		}
	}
	if export.Gauges["store.log_records"] != 3 {
		t.Errorf("store.log_records = %d, want 3 (a set, an extent, a seal)", export.Gauges["store.log_records"])
	}
	if got := export.Gauges["store.log_streamed_bytes"]; got < int64(len(big)) || got >= export.Gauges["store.log_bytes"] {
		t.Errorf("store.log_streamed_bytes = %d, want the staged %d bytes and less than store.log_bytes %d",
			got, len(big), export.Gauges["store.log_bytes"])
	}
	if export.Gauges["store.log_pending_bytes"] != 0 {
		t.Errorf("store.log_pending_bytes = %d after a commit", export.Gauges["store.log_pending_bytes"])
	}
	if export.Gauges["store.last_fsync_ns"] == 0 {
		t.Error("store.last_fsync_ns never stamped")
	}
	if _, ok := export.Histograms["store.group_commit_batch"]; !ok {
		t.Error("group-commit batch histogram not exported")
	}
	if h, ok := export.Histograms["store.commit_ns"]; !ok || h.Count != 2 {
		t.Errorf("store.commit_ns = %+v, want one sample per Commit", h)
	}
}
