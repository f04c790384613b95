package core

import (
	"bytes"
	"context"
	"crypto/sha1"
	"encoding/hex"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"mhdedup/internal/hashutil"
	"mhdedup/internal/metrics"
	"mhdedup/internal/simdisk"
	"mhdedup/internal/trace"
)

// diskSnapshot reads every stored object into a map keyed by
// "category/name". Taken after Report (reads bump disk counters).
func diskSnapshot(t *testing.T, d *Dedup) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	for _, cat := range []simdisk.Category{
		simdisk.Data, simdisk.Hook, simdisk.Manifest, simdisk.FileManifest,
	} {
		for _, name := range d.Disk().Names(cat) {
			data, err := d.Disk().Read(cat, name)
			if err != nil {
				t.Fatalf("read %v/%s: %v", cat, name, err)
			}
			out[fmt.Sprintf("%v/%s", cat, name)] = data
		}
	}
	return out
}

// runVariant ingests the dataset with the given config and feeding strategy
// and returns its Report and full disk contents.
func runVariant(t *testing.T, cfg Config, ds *trace.Dataset, feed func(*Dedup) error) (metrics.Report, map[string][]byte) {
	t.Helper()
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := feed(d); err != nil {
		t.Fatal(err)
	}
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	rep := d.Report()
	return rep, diskSnapshot(t, d)
}

// compareSnapshots asserts two disk states are byte-identical.
func compareSnapshots(t *testing.T, label string, want, got map[string][]byte) {
	t.Helper()
	if len(want) != len(got) {
		t.Errorf("%s: object count %d, baseline %d", label, len(got), len(want))
	}
	for name, w := range want {
		g, ok := got[name]
		if !ok {
			t.Errorf("%s: object %s missing", label, name)
			continue
		}
		if !bytes.Equal(w, g) {
			t.Errorf("%s: object %s differs (%d vs %d bytes)", label, name, len(g), len(w))
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: extra object %s", label, name)
		}
	}
}

// goldenDigest folds a Report and a disk snapshot into one SHA-1: every
// field of the Report (%#v; %+v would print only Report.String's headline),
// then every object as "category/name size" and its bytes, in name order.
func goldenDigest(rep metrics.Report, disk map[string][]byte) string {
	names := make([]string, 0, len(disk))
	for name := range disk {
		names = append(names, name)
	}
	sort.Strings(names)
	h := sha1.New()
	fmt.Fprintf(h, "%#v\n", rep)
	for _, name := range names {
		fmt.Fprintf(h, "%s %d\n", name, len(disk[name]))
		h.Write(disk[name])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestSingleStreamDeterminism is the serial-parity regression test. The
// synchronous engine (chunk, hash and deduplicate one chunk at a time on
// the calling goroutine) is gone, so its output is kept as goldens: its
// store was recorded from its plain PutFile loop at the last commit that
// had it, and the digests below — the whole Report with it — from the
// pipelined engine that still reproduced that store. The pipelined PutFile loop and a one-worker
// IngestStreams run must both reproduce them — the same store, byte for
// byte, and the same metrics.Report — whatever the schedule and whichever
// SHA-1 kernels hash the batches and merged runs: the run is repeated at
// GOMAXPROCS 1, 2 and 8, and ci.sh runs it again under -tags purego, where
// hashutil's lanes (and its SHA-NI kernel) are off.
func TestSingleStreamDeterminism(t *testing.T) {
	cfg := trace.Default()
	cfg.Machines = 3
	cfg.Days = 3
	cfg.SnapshotBytes = 256 << 10
	cfg.EditsPerDay = 6
	cfg.EditBytes = 8 << 10
	ds, err := trace.New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	feeds := []struct {
		name string
		feed func(*Dedup) error
	}{
		{"PutFile", func(d *Dedup) error {
			return ds.EachFile(func(info trace.FileInfo, r io.Reader) error {
				return d.PutFile(info.Name, r)
			})
		}},
		// IngestStreams with one worker must walk the same files in the
		// same order: machine streams are fed in slice order, day by day —
		// exactly the EachFile order (machine-major, day-minor).
		{"IngestStreams(1)", func(d *Dedup) error {
			return d.IngestStreamsContext(context.Background(), 1, machineStreams(ds))
		}},
	}

	for _, mode := range []struct {
		name   string
		sparse bool
		golden string
	}{
		{"bf-mhd", false, "edfc7c647d41502c1b0408ddf429812cb3003db6"},
		{"si-mhd", true, "7d141dc97a64781e48d6ae96aa50a13b714188fe"},
	} {
		t.Run(mode.name, func(t *testing.T) {
			ecfg := stressConfig(mode.sparse)
			ecfg.CacheManifests = 2 // force evictions; they must replay identically
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
			var wantRep metrics.Report
			var wantDisk map[string][]byte
			for _, procs := range []int{1, 2, 8} {
				runtime.GOMAXPROCS(procs)
				for _, f := range feeds {
					label := fmt.Sprintf("GOMAXPROCS=%d sha1=%s %s", procs, hashutil.Kernel(), f.name)
					rep, disk := runVariant(t, ecfg, ds, f.feed)
					if wantDisk == nil {
						wantRep, wantDisk = rep, disk
						if got := goldenDigest(rep, disk); got != mode.golden {
							t.Errorf("%s: digest %s, the synchronous engine's was %s", label, got, mode.golden)
						}
						continue
					}
					if !reflect.DeepEqual(rep, wantRep) {
						t.Errorf("%s report differs:\n got %+v\nwant %+v", label, rep, wantRep)
					}
					compareSnapshots(t, label, wantDisk, disk)
				}
			}
		})
	}
}
