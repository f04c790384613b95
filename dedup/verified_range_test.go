package dedup

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"strings"
	"testing"

	"mhdedup/internal/hashutil"
	"mhdedup/internal/simdisk"
	"mhdedup/internal/store"
)

// genStore is a generational MHD store built by the engine itself: daily
// snapshots of one machine, so the later recipes alternate between the
// containers of every day and their refs begin and end inside SHM-merged
// manifest entries — the layout on which verifying whole containers cost
// containers-touched × container size.
type genStore struct {
	st    *store.Store
	files map[string][]byte
	last  string // the newest snapshot: the longest, most fragmented recipe
}

func buildGenStore(t *testing.T, days int, snapshotBytes int64) *genStore {
	t.Helper()
	return buildGenStoreOf(t, MHD, days, snapshotBytes)
}

// buildGenStoreOf is buildGenStore through any engine.
func buildGenStoreOf(t *testing.T, alg Algorithm, days int, snapshotBytes int64) *genStore {
	t.Helper()
	cfg := DefaultWorkloadConfig()
	cfg.Machines, cfg.Days = 1, days
	cfg.SnapshotBytes = snapshotBytes
	cfg.EditsPerDay, cfg.EditBytes = 40, 4<<10
	cfg.Seed = 5
	wl, err := NewWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(alg, Options{ECS: 1024, SD: 16, BloomBytes: 1 << 16, RecipeTrees: true})
	if err != nil {
		t.Fatal(err)
	}
	g := &genStore{files: map[string][]byte{}}
	for _, f := range wl.Files() {
		r, err := wl.Open(f.Name)
		if err != nil {
			t.Fatal(err)
		}
		data, err := io.ReadAll(r)
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.PutFile(f.Name, bytes.NewReader(data)); err != nil {
			t.Fatal(err)
		}
		g.files[f.Name], g.last = data, f.Name
	}
	if err := eng.Finish(); err != nil {
		t.Fatal(err)
	}
	c, ok := store.ContractOf(eng.Disk())
	if !ok {
		t.Fatalf("%s: the engine recorded no cut contract", alg)
	}
	g.st = store.New(eng.Disk(), c.Format)
	return g
}

// claims returns the manifest entries of one container, which in the MHD
// format are exactly the claims a Verifier checks its bytes against.
func (g *genStore) claims(t *testing.T, container hashutil.Sum) []store.Entry {
	t.Helper()
	m, err := g.st.ReadManifest(container)
	if err != nil {
		t.Fatal(err)
	}
	return m.Entries
}

// refsIn returns the recipe refs of file that serve [off, off+length), and
// the distinct containers they name.
func (g *genStore) refsIn(t *testing.T, file string, off, length int64) ([]store.FileRef, map[hashutil.Sum]bool) {
	t.Helper()
	fm, err := g.st.ReadFileManifest(file)
	if err != nil {
		t.Fatal(err)
	}
	var refs []store.FileRef
	touched := map[hashutil.Sum]bool{}
	pos := int64(0)
	for _, r := range fm.Refs {
		if pos < off+length && pos+r.Size > off {
			refs = append(refs, r)
			touched[r.Container] = true
		}
		pos += r.Size
	}
	return refs, touched
}

// TestVerifiedRestoreReadsWhatItServes holds the verified path to exact
// counts on the simulated disk: a whole-file verified restore reads at
// most the bytes it serves plus one claim's worth of overhang at each edge
// of each planned read (verifying whole containers read containers-touched
// × container size), a fresh Verifier serving a 64 KiB range reads only
// the manifests of the containers that range touches (not every manifest
// in the store), and the bytes equal the naive ref-walk's.
func TestVerifiedRestoreReadsWhatItServes(t *testing.T) {
	g := buildGenStore(t, 3, 3<<20)
	disk := g.st.Disk()
	want := g.files[g.last]
	refs, touched := g.refsIn(t, g.last, 0, int64(len(want)))
	var naive []byte
	for _, r := range refs {
		data, err := g.st.ReadDiskChunkRange(r.Container, r.Start, r.Size)
		if err != nil {
			t.Fatal(err)
		}
		naive = append(naive, data.Bytes()...)
	}
	if !bytes.Equal(naive, want) {
		t.Fatal("naive ref-walk diverges from the ingested bytes")
	}

	var largest, wholeContainers int64
	for c := range touched {
		for _, e := range g.claims(t, c) {
			largest = max(largest, e.Size)
		}
	}
	for i, r := range refs { // what one verified container per crossing reads
		if i == 0 || refs[i-1].Container != r.Container {
			size, _ := g.st.DiskChunkSize(r.Container)
			wholeContainers += size
		}
	}
	if len(touched) < 3 || len(refs) < 20 {
		t.Fatalf("workload too tame: %d refs over %d containers", len(refs), len(touched))
	}

	for _, workers := range []int{1, 4} {
		before := disk.Counters()
		v := store.NewVerifier(g.st, store.VerifyOpts{})
		var got bytes.Buffer
		rs, err := v.RestoreRange(g.last, 0, -1, &got, store.RestoreOptions{Workers: workers})
		if err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		after := disk.Counters()
		if !bytes.Equal(got.Bytes(), naive) {
			t.Fatalf("workers %d: verified restore diverges from the naive ref-walk", workers)
		}
		read := after.BytesRead.Get(simdisk.Data) - before.BytesRead.Get(simdisk.Data)
		bound := rs.OutputBytes + 2*largest*int64(rs.Reads)
		t.Logf("workers %d: %d planned reads served %d bytes from %d read (%.2f×; bound %d; whole containers %d)",
			workers, rs.Reads, rs.OutputBytes, read, float64(read)/float64(rs.OutputBytes), bound, wholeContainers)
		if read > bound {
			t.Fatalf("workers %d: verified restore read %d data bytes, more than served %d + 2 × largest claim %d × %d planned reads = %d",
				workers, read, rs.OutputBytes, largest, rs.Reads, bound)
		}
		if got := after.Reads.Get(simdisk.Manifest) - before.Reads.Get(simdisk.Manifest); got != int64(len(touched)) {
			t.Fatalf("workers %d: whole-file restore read %d manifests, want one per container touched (%d)",
				workers, got, len(touched))
		}
	}

	// A fresh Verifier per ranged request — what dedupd does — must cost the
	// manifests under the range, not the store.
	const span = 64 << 10
	all := int64(len(disk.Names(simdisk.Manifest)))
	for _, off := range []int64{0, int64(len(want)) / 3, int64(len(want)) - span} {
		_, touched := g.refsIn(t, g.last, off, span)
		before := disk.Counters()
		var got bytes.Buffer
		if _, err := store.NewVerifier(g.st, store.VerifyOpts{}).RestoreRange(g.last, off, span, &got, store.RestoreOptions{}); err != nil {
			t.Fatal(err)
		}
		after := disk.Counters()
		if !bytes.Equal(got.Bytes(), want[off:off+span]) {
			t.Fatalf("range @%d: wrong bytes", off)
		}
		if n := after.Reads.Get(simdisk.Manifest) - before.Reads.Get(simdisk.Manifest); n != int64(len(touched)) {
			t.Fatalf("range @%d: read %d manifests, want the %d of the containers it touches (store holds %d)",
				off, n, len(touched), all)
		}
	}
}

// probe writes a synthetic recipe over one engine-built container whose
// refs are cut to exercise every position a claim can take relative to a
// planned read. With that container's claims c[0], c[1], … in offset order:
//
//	ref 1 serves [c[2].start+10, c[3].end-10): c[2] and c[3] straddle its edges
//	ref 2 serves [c[5].start, c[5].end-10):    c[5] straddles the read's end
//
// c[4] lies wholly inside the gap the planner bridges between the two refs
// (so both coalesce into one planned read), and c[8] is a claim of the same
// container that overlaps no served byte.
type probe struct {
	container hashutil.Sum
	c         []store.Entry
	want      []byte
}

func writeProbe(t *testing.T, g *genStore) *probe {
	t.Helper()
	// The first snapshot's container is the big one: every chunk of the
	// first image, merged SD-1 at a time.
	first, _ := g.refsIn(t, "m00/d00", 0, 1)
	p := &probe{container: first[0].Container}
	p.c = g.claims(t, p.container)
	sort.Slice(p.c, func(i, j int) bool { return p.c[i].Start < p.c[j].Start })
	if len(p.c) < 10 || p.c[4].Size+20 > store.DefaultRestoreCoalesceGap {
		t.Fatalf("container %s: %d claims, c[4] of %d bytes — cannot lay the probe out", p.container.Short(), len(p.c), p.c[4].Size)
	}
	end := func(e store.Entry) int64 { return e.Start + e.Size }
	fm := &store.FileManifest{File: "probe"}
	fm.Refs = []store.FileRef{
		{Container: p.container, Start: p.c[2].Start + 10, Size: end(p.c[3]) - 10 - (p.c[2].Start + 10)},
		{Container: p.container, Start: p.c[5].Start, Size: p.c[5].Size - 10},
	}
	if err := g.st.WriteFileManifest(fm); err != nil {
		t.Fatal(err)
	}
	data, err := g.st.Disk().Read(simdisk.Data, p.container.Hex())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range fm.Refs {
		p.want = append(p.want, data[r.Start:r.Start+r.Size]...)
	}
	rs, err := g.st.RestoreFileStats("probe", io.Discard, store.RestoreOptions{})
	if err != nil || rs.Reads != 1 {
		t.Fatalf("probe must plan into one bridged read: %+v, %v", rs, err)
	}
	return p
}

// TestVerifiedRangeFaults places persistent damage at each position a
// claim can take relative to a planned read, for a whole-file and a ranged
// restore, serial and with four workers. Damage in a claim that overlaps
// no served byte — elsewhere in the container, or in the gap a read
// bridges — must not fail the restore (Scrub still finds it); damage in
// the unserved part of a claim that straddles the read's edge must fail it
// loudly, naming the claim, because part of a claim cannot be vouched for.
func TestVerifiedRangeFaults(t *testing.T) {
	type fault struct {
		name string
		// inject damages the probe's container and returns the claim whose
		// range the restore's error must name ("" when it must succeed).
		inject func(t *testing.T, disk *simdisk.Disk, p *probe) (failing *store.Entry)
	}
	flip := func(disk *simdisk.Disk, p *probe, off int64) error {
		return disk.FlipStoredBit(simdisk.Data, p.container.Hex(), int(off)*8)
	}
	faults := []fault{
		{"flip in an unserved claim of the same container", func(t *testing.T, disk *simdisk.Disk, p *probe) *store.Entry {
			if err := flip(disk, p, p.c[8].Start+3); err != nil {
				t.Fatal(err)
			}
			return nil
		}},
		{"flip in a claim inside the bridged gap", func(t *testing.T, disk *simdisk.Disk, p *probe) *store.Entry {
			if err := flip(disk, p, p.c[4].Start+p.c[4].Size/2); err != nil {
				t.Fatal(err)
			}
			return nil
		}},
		{"flip in the unserved head of a straddling claim", func(t *testing.T, disk *simdisk.Disk, p *probe) *store.Entry {
			if err := flip(disk, p, p.c[2].Start+2); err != nil {
				t.Fatal(err)
			}
			return &p.c[2]
		}},
		{"flip in the unserved tail of a straddling claim", func(t *testing.T, disk *simdisk.Disk, p *probe) *store.Entry {
			if err := flip(disk, p, p.c[3].Start+p.c[3].Size-2); err != nil {
				t.Fatal(err)
			}
			return &p.c[3]
		}},
		{"truncation inside a straddling claim", func(t *testing.T, disk *simdisk.Disk, p *probe) *store.Entry {
			// Every served byte survives; the last 5 bytes of c[5] do not.
			if err := disk.TruncateStored(simdisk.Data, p.container.Hex(), int(p.c[5].Start+p.c[5].Size)-5); err != nil {
				t.Fatal(err)
			}
			return &p.c[5]
		}},
	}
	for _, f := range faults {
		f := f
		t.Run(f.name, func(t *testing.T) {
			g := buildGenStore(t, 2, 1<<20)
			p := writeProbe(t, g)
			failing := f.inject(t, g.st.Disk(), p)
			total := int64(len(p.want))
			for _, workers := range []int{1, 4} {
				for _, r := range []struct{ off, length int64 }{{0, -1}, {7, total - 14}} {
					hi := total
					if r.length >= 0 {
						hi = r.off + r.length
					}
					var got bytes.Buffer
					_, err := store.NewVerifier(g.st, store.VerifyOpts{}).RestoreRange("probe", r.off, r.length, &got,
						store.RestoreOptions{Workers: workers})
					switch {
					case failing == nil && err != nil:
						t.Fatalf("workers %d range %+v: damage that overlaps no served byte failed the restore: %v", workers, r, err)
					case failing == nil && !bytes.Equal(got.Bytes(), p.want[r.off:hi]):
						t.Fatalf("workers %d range %+v: wrong bytes", workers, r)
					case failing != nil && err == nil:
						t.Fatalf("workers %d range %+v: a partly served claim is damaged, yet the restore succeeded", workers, r)
					case failing != nil && !strings.Contains(err.Error(), fmt.Sprintf("range [%d,+%d)", failing.Start, failing.Size)):
						t.Fatalf("workers %d range %+v: error does not name claim [%d,+%d): %v", workers, r, failing.Start, failing.Size, err)
					}
				}
			}
			// Whatever the restore was entitled to ignore, Scrub is not.
			rep, err := g.st.Scrub(store.VerifyOpts{}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Corrupt) == 0 || rep.Corrupt[0].Container != p.container {
				t.Fatalf("Scrub missed the damage: %+v", rep)
			}
		})
	}
}
