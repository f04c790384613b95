package store

import (
	"bytes"
	"math/rand"
	"testing"

	"mhdedup/internal/hashutil"
)

// sum is shorthand for a deterministic container name.
func sum(tag string) hashutil.Sum { return hashutil.SumString(tag) }

// rawManifest builds a FileManifest with the refs exactly as given —
// deliberately NOT via Append, which merges byte-contiguous runs at write
// time; the planner must handle arbitrary recipes.
func rawManifest(file string, refs ...FileRef) *FileManifest {
	return &FileManifest{File: file, Refs: refs}
}

func TestPlanCoalescesAdjacentRefs(t *testing.T) {
	c := sum("c")
	fm := rawManifest("f",
		FileRef{Container: c, Start: 0, Size: 100},
		FileRef{Container: c, Start: 100, Size: 50},
		FileRef{Container: c, Start: 150, Size: 25},
	)
	p, err := planRestore(fm, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.reads) != 1 {
		t.Fatalf("adjacent refs planned as %d reads, want 1", len(p.reads))
	}
	r := p.reads[0]
	if r.start != 0 || r.length != 175 {
		t.Fatalf("read covers [%d,+%d), want [0,+175)", r.start, r.length)
	}
	if len(r.segs) != 3 {
		t.Fatalf("read has %d segments, want 3", len(r.segs))
	}
	if p.refs != 3 || p.outputBytes != 175 || p.plannedBytes != 175 {
		t.Fatalf("plan stats refs=%d output=%d planned=%d, want 3/175/175",
			p.refs, p.outputBytes, p.plannedBytes)
	}
	if got := p.coalesceRatio(); got != 3 {
		t.Fatalf("coalesce ratio %v, want 3", got)
	}
}

func TestPlanBridgesGapsUpToLimit(t *testing.T) {
	c := sum("c")
	fm := rawManifest("f",
		FileRef{Container: c, Start: 0, Size: 100},
		FileRef{Container: c, Start: 164, Size: 100}, // 64-byte gap
	)
	p, err := planRestore(fm, 64)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.reads) != 1 {
		t.Fatalf("64-byte gap with gap=64 planned as %d reads, want 1", len(p.reads))
	}
	// The bridged read fetches the gap bytes too.
	if p.plannedBytes != 264 || p.outputBytes != 200 {
		t.Fatalf("planned=%d output=%d, want 264/200", p.plannedBytes, p.outputBytes)
	}
	if off := p.reads[0].segs[1].off; off != 164 {
		t.Fatalf("second segment at buffer offset %d, want 164", off)
	}

	// One byte over the limit: two reads.
	fm.Refs[1].Start = 165
	p, err = planRestore(fm, 64)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.reads) != 2 {
		t.Fatalf("65-byte gap with gap=64 planned as %d reads, want 2", len(p.reads))
	}
	if p.plannedBytes != 200 {
		t.Fatalf("split plan fetches %d bytes, want 200", p.plannedBytes)
	}
}

func TestPlanDoesNotCoalesceAcrossContainers(t *testing.T) {
	a, b := sum("a"), sum("b")
	fm := rawManifest("f",
		FileRef{Container: a, Start: 0, Size: 10},
		FileRef{Container: b, Start: 10, Size: 10},
		FileRef{Container: a, Start: 10, Size: 10}, // adjacent to read 0, but b interleaves
	)
	p, err := planRestore(fm, DefaultRestoreCoalesceGap)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.reads) != 3 {
		t.Fatalf("interleaved containers planned as %d reads, want 3", len(p.reads))
	}
}

func TestPlanOverlapAndBackwardGrowth(t *testing.T) {
	c := sum("c")
	// Second ref starts before the first (self-referential dedup can emit
	// this): the read must grow backwards and shift the first segment.
	fm := rawManifest("f",
		FileRef{Container: c, Start: 100, Size: 50},
		FileRef{Container: c, Start: 40, Size: 70}, // [40,110) overlaps [100,150)
	)
	p, err := planRestore(fm, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.reads) != 1 {
		t.Fatalf("overlapping refs planned as %d reads, want 1", len(p.reads))
	}
	r := p.reads[0]
	if r.start != 40 || r.length != 110 {
		t.Fatalf("read covers [%d,+%d), want [40,+110)", r.start, r.length)
	}
	// First segment (container offset 100) is now at buffer offset 60.
	if r.segs[0].off != 60 || r.segs[0].size != 50 {
		t.Fatalf("first segment off=%d size=%d, want 60/50", r.segs[0].off, r.segs[0].size)
	}
	if r.segs[1].off != 0 || r.segs[1].size != 70 {
		t.Fatalf("second segment off=%d size=%d, want 0/70", r.segs[1].off, r.segs[1].size)
	}
	// Overlapping bytes are fetched once: planned < output.
	if p.outputBytes != 120 || p.plannedBytes != 110 {
		t.Fatalf("output=%d planned=%d, want 120/110", p.outputBytes, p.plannedBytes)
	}
}

func TestPlanRejectsMalformedRefs(t *testing.T) {
	c := sum("c")
	for _, bad := range []FileRef{
		{Container: c, Start: -1, Size: 10},
		{Container: c, Start: 0, Size: -10},
	} {
		if _, err := planRestore(rawManifest("f", bad), 0); err == nil {
			t.Fatalf("malformed ref %+v accepted", bad)
		}
	}
}

// TestPlanDropsEmptyRefs: a zero-size ref (only a corrupt flat recipe has
// one) emits nothing, so it must not plan a read, stretch a neighbour's
// span over bytes no segment serves, or split a coalescible run.
func TestPlanDropsEmptyRefs(t *testing.T) {
	c := sum("c")
	p, err := planRestore(rawManifest("f",
		FileRef{Container: c, Start: 100, Size: 50},
		FileRef{Container: c, Start: 10, Size: 0},
		FileRef{Container: sum("d"), Start: 7, Size: 0},
		FileRef{Container: c, Start: 150, Size: 50},
	), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.reads) != 1 || p.reads[0].start != 100 || p.reads[0].length != 100 || len(p.reads[0].segs) != 2 {
		t.Fatalf("plan = %+v, want one read [100,+100) of two segments", p.reads)
	}
	if p.refs != 4 || p.outputBytes != 100 || p.plannedBytes != 100 {
		t.Fatalf("plan stats refs=%d output=%d planned=%d, want 4/100/100", p.refs, p.outputBytes, p.plannedBytes)
	}
}

// TestPlanSegmentsReconstructOutput is the planner's semantic invariant:
// applying the plan's segments to the planned container ranges must
// reproduce exactly the bytes the ref-by-ref walk produces, for randomized
// recipes full of overlaps, gaps, repeats and container switches.
func TestPlanSegmentsReconstructOutput(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	containers := map[hashutil.Sum][]byte{}
	var names []hashutil.Sum
	for i := 0; i < 3; i++ {
		data := make([]byte, 4096)
		rng.Read(data)
		n := sum(string(rune('a' + i)))
		containers[n] = data
		names = append(names, n)
	}
	for trial := 0; trial < 200; trial++ {
		var refs []FileRef
		var want []byte
		for n := rng.Intn(20); n >= 0; n-- {
			c := names[rng.Intn(len(names))]
			start := int64(rng.Intn(4000))
			size := int64(rng.Intn(int(4096 - start)))
			refs = append(refs, FileRef{Container: c, Start: start, Size: size})
			want = append(want, containers[c][start:start+size]...)
		}
		gap := int64(rng.Intn(512))
		p, err := planRestore(rawManifest("f", refs...), gap)
		if err != nil {
			t.Fatal(err)
		}
		var got []byte
		var planned int64
		for i := range p.reads {
			r := &p.reads[i]
			buf := containers[r.container][r.start : r.start+r.length]
			planned += r.length
			for _, seg := range r.segs {
				got = append(got, buf[seg.off:seg.off+seg.size]...)
			}
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("trial %d (gap %d): plan output diverges from ref walk (%d vs %d bytes)",
				trial, gap, len(got), len(want))
		}
		if planned != p.plannedBytes {
			t.Fatalf("trial %d: plannedBytes %d, reads total %d", trial, p.plannedBytes, planned)
		}
		if p.refs != len(refs) || len(p.reads) > len(refs) {
			t.Fatalf("trial %d: refs=%d reads=%d for %d input refs", trial, p.refs, len(p.reads), len(refs))
		}
	}
}
