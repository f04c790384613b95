package exp

import (
	"io"
	"testing"

	"mhdedup/internal/core"
	"mhdedup/internal/trace"
)

// TestHHRAmortization demonstrates the mechanism behind the paper's Fig
// 10(b) observation that HHR's disk cost stays far below L: when a
// machine's daily changes recur at the same sites (logs, databases), the
// first generation's HHR plants EdgeHash boundaries in the old manifests
// and every later generation's duplicate slices stop at them without
// reloading anything.
func TestHHRAmortization(t *testing.T) {
	cfg := trace.Default()
	cfg.Machines = 1
	cfg.Days = 10
	cfg.SnapshotBytes = 2 << 20
	cfg.EditsPerDay = 8
	cfg.EditBytes = 16 << 10
	cfg.HotspotFraction = 1.0 // all changes recur at fixed sites
	ds, err := trace.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := core.Config{}
	c.ECS = 1024
	c.SD = 32
	c.BloomBytes = 1 << 18
	c.CacheManifests = 4
	d, err := core.New(c)
	if err != nil {
		t.Fatal(err)
	}
	var perDay []int64
	var prev int64
	err = ds.EachFile(func(info trace.FileInfo, r io.Reader) error {
		if err := d.PutFile(info.Name, r); err != nil {
			return err
		}
		perDay = append(perDay, d.Stats().HHRDiskAccesses-prev)
		prev = d.Stats().HHRDiskAccesses
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	if len(perDay) != 10 {
		t.Fatalf("expected 10 generations, got %d", len(perDay))
	}
	first := perDay[1] // day 0 stores, day 1 pays the boundary splits
	if first == 0 {
		t.Fatal("day 1 should trigger HHR at the fresh change-site boundaries")
	}
	var later int64
	for _, v := range perDay[2:] {
		later += v
	}
	// Generations 2..9 together must cost far less than generation 1 alone.
	if later >= first {
		t.Errorf("HHR not amortizing: day1=%d, days2-9 total=%d", first, later)
	}
	s := d.Stats()
	if s.HHRDiskAccesses*4 > s.DupSlices {
		t.Errorf("with recurring change sites, HHR accesses (%d) should be well below L (%d)",
			s.HHRDiskAccesses, s.DupSlices)
	}
}
