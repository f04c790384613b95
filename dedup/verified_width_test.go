package dedup

import (
	"bytes"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"

	"mhdedup/internal/hashutil"
	"mhdedup/internal/metrics"
	"mhdedup/internal/simdisk"
	"mhdedup/internal/store"
)

// TestVerifiedWidthHashesWhatInlineHashes: on an engine-built generational
// store, every file restored through the verified path at the default width
// — reads in flight — writes the bytes that were put, and hashes and
// serves exactly the bytes a Workers: 1 restore does: the same claims, only
// concurrently. The first snapshot's container-long read is cut at claim
// boundaries only where the CPU has no SHA-1 lanes (-tags purego); with
// them its claims are hashed side by side in one SumRuns. On a single P the
// default width is inline and nothing is cut.
func TestVerifiedWidthHashesWhatInlineHashes(t *testing.T) {
	g := buildGenStore(t, 3, 3<<20)
	hashed, served := metrics.Default.Counter("store.verify.hashed_bytes"), metrics.Default.Counter("store.verify.served_bytes")
	names := make([]string, 0, len(g.files))
	for name := range g.files {
		names = append(names, name)
	}
	sort.Strings(names)
	var counts [2][2]int64
	var reads [2]int
	for i, workers := range []int{1, 0} {
		h0, s0 := hashed.Load(), served.Load()
		v := store.NewVerifier(g.st, store.VerifyOpts{})
		for _, name := range names {
			var got bytes.Buffer
			rs, err := v.RestoreRange(name, 0, -1, &got, store.RestoreOptions{Workers: workers})
			if err != nil || !bytes.Equal(got.Bytes(), g.files[name]) {
				t.Fatalf("workers %d: %s: %v (%d of %d bytes)", workers, name, err, got.Len(), len(g.files[name]))
			}
			reads[i] += rs.Reads
		}
		counts[i] = [2]int64{hashed.Load() - h0, served.Load() - s0}
	}
	t.Logf("inline: %d planned reads, hashed/served %v; default width: %d reads, %v", reads[0], counts[0], reads[1], counts[1])
	if counts[0] != counts[1] {
		t.Fatalf("hashed/served bytes: inline %v, default width %v", counts[0], counts[1])
	}
	if cut := reads[1] > reads[0]; cut != (runtime.GOMAXPROCS(0) > 1 && hashutil.Lanes() == 0) {
		t.Fatalf("GOMAXPROCS %d, lanes %d: inline %d planned reads, default width %d", runtime.GOMAXPROCS(0), hashutil.Lanes(), reads[0], reads[1])
	}
}

// widthStores are FuzzVerifiedRestoreWidth's stores, built on first use and
// kept for the process: MHD (SHM-merged claims tiling each container) and
// SubChunk (FormatMultiContainer, where claims of several manifests
// overlap). Each input damages one, restores, and puts the damaged object
// back.
var widthStores []*widthStore

type widthStore struct {
	*genStore
	names []string
	// claims maps a container to every manifest entry claiming its bytes.
	claims map[hashutil.Sum][]widthClaim
}

type widthClaim struct {
	manifest hashutil.Sum
	entry    int
	start    int64
	end      int64
}

func loadWidthStores(t *testing.T) []*widthStore {
	if widthStores != nil {
		return widthStores
	}
	for _, alg := range []Algorithm{MHD, SubChunk} {
		ws := &widthStore{genStore: buildGenStoreOf(t, alg, 3, 2<<20), claims: map[hashutil.Sum][]widthClaim{}}
		for name := range ws.files {
			ws.names = append(ws.names, name)
		}
		sort.Strings(ws.names)
		for _, name := range ws.st.Disk().Names(simdisk.Manifest) {
			m := ws.manifest(t, name)
			for i, e := range m.Entries {
				if e.Size <= 0 {
					continue // vouches for nothing
				}
				c := m.ContainerOf(e)
				ws.claims[c] = append(ws.claims[c], widthClaim{m.Name, i, e.Start, e.Start + e.Size})
			}
		}
		widthStores = append(widthStores, ws)
	}
	return widthStores
}

func (ws *widthStore) manifest(t *testing.T, name string) *store.Manifest {
	sum, err := hashutil.ParseHex(name)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := ws.st.Disk().Read(simdisk.Manifest, name)
	if err != nil {
		t.Fatal(err)
	}
	m, err := store.DecodeManifest(sum, ws.st.Format(), raw)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// FuzzVerifiedRestoreWidth is the differential of the verified path's
// width (DESIGN §11) over random ranges of engine-built files and random
// damage — a flipped stored bit, a truncated container, a manifest entry
// whose recorded hash is zeroed — placed inside a container the file's
// recipe reads. The default width and Workers: 1 return the same bytes or
// both fail; no byte either emits ever differs from the file that was put;
// and a restore fails, as corrupt data or unreadable, exactly when a
// damaged claim overlaps a byte it serves (a claim is hashed whole).
func FuzzVerifiedRestoreWidth(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint32(0), uint32(0), uint8(0), uint32(0))
	f.Add(uint8(0), uint8(0), uint32(0), uint32(0), uint8(1), uint32(900_000))
	f.Add(uint8(0), uint8(2), uint32(70_000), uint32(300_000), uint8(2), uint32(1_500_000))
	f.Add(uint8(0), uint8(5), uint32(1_000_000), uint32(0), uint8(3), uint32(123_456))
	f.Add(uint8(1), uint8(0), uint32(0), uint32(0), uint8(1), uint32(1_200_000))
	f.Add(uint8(1), uint8(4), uint32(5_000), uint32(2_000_000), uint8(3), uint32(77))
	f.Fuzz(func(t *testing.T, which, file uint8, off, length uint32, damage uint8, where uint32) {
		stores := loadWidthStores(t)
		ws := stores[int(which)%len(stores)]
		name := ws.names[int(file)%len(ws.names)]
		want := ws.files[name]
		total := int64(len(want))
		lo := int64(off) % (total + 1)
		n := int64(length) % (total - lo + 1)
		hi := lo + n
		if n == 0 {
			n, hi = -1, total // to EOF
		}

		// Served container bytes, from the recipe: [start, end) per ref piece.
		fm, err := ws.st.ReadFileManifest(name)
		if err != nil {
			t.Fatal(err)
		}
		type span struct {
			c          hashutil.Sum
			start, end int64
		}
		var served []span
		pos := int64(0)
		for _, r := range fm.Refs {
			a, b := max(lo, pos), min(hi, pos+r.Size)
			if a < b {
				served = append(served, span{r.Container, r.Start + a - pos, r.Start + b - pos})
			}
			pos += r.Size
		}

		// Damage a container of the recipe; damaged says whether a claim
		// on c over [start, end) is one the damage breaks.
		ref := fm.Refs[int(where)%len(fm.Refs)]
		at := ref.Start + int64(where/uint32(len(fm.Refs)))%ref.Size
		var damaged func(c hashutil.Sum, cl widthClaim) bool
		cat, obj := simdisk.Data, ref.Container.Hex()
		switch damage % 4 {
		case 1, 2:
			orig := ws.read(t, cat, obj)
			defer ws.restore(t, cat, obj, orig)
			disk := ws.st.Disk()
			if damage%4 == 1 {
				err = disk.FlipStoredBit(cat, obj, int(at)*8+int(where%8))
				damaged = func(c hashutil.Sum, cl widthClaim) bool {
					return c == ref.Container && cl.start <= at && at < cl.end
				}
			} else {
				err = disk.TruncateStored(cat, obj, int(at))
				damaged = func(c hashutil.Sum, cl widthClaim) bool { return c == ref.Container && cl.end > at }
			}
			if err != nil {
				t.Fatal(err)
			}
		case 3:
			var hit *widthClaim
			for i, cl := range ws.claims[ref.Container] {
				if cl.start <= at && at < cl.end {
					hit = &ws.claims[ref.Container][i]
					break
				}
			}
			if hit == nil {
				t.Fatalf("%s: container %s byte %d is claimed by no manifest", name, ref.Container.Short(), at)
			}
			cat, obj = simdisk.Manifest, hit.manifest.Hex()
			orig := ws.read(t, cat, obj)
			defer ws.restore(t, cat, obj, orig)
			m := ws.manifest(t, obj)
			m.Entries[hit.entry].Hash = hashutil.Sum{}
			if err := ws.st.Disk().Write(cat, obj, m.Encode()); err != nil {
				t.Fatal(err)
			}
			damaged = func(_ hashutil.Sum, cl widthClaim) bool {
				return cl.manifest == hit.manifest && cl.entry == hit.entry
			}
		default:
			damaged = func(hashutil.Sum, widthClaim) bool { return false }
		}
		broken := false
		for _, s := range served {
			for _, cl := range ws.claims[s.c] {
				broken = broken || (damaged(s.c, cl) && cl.start < s.end && s.start < cl.end)
			}
		}

		var outs [2]bytes.Buffer
		var errs [2]error
		for i, workers := range []int{0, 1} {
			_, errs[i] = store.NewVerifier(ws.st, store.VerifyOpts{}).RestoreRange(name, lo, n, &outs[i],
				store.RestoreOptions{Workers: workers})
			label := fmt.Sprintf("%s [%d,%d) damage %d@%d workers %d", name, lo, hi, damage%4, at, workers)
			if !bytes.HasPrefix(want[lo:hi], outs[i].Bytes()) {
				t.Fatalf("%s: emitted bytes differ from the file that was put", label)
			}
			switch err := errs[i]; {
			case err == nil && broken:
				t.Fatalf("%s: a damaged claim overlaps a served byte, yet the restore succeeded", label)
			case err != nil && !broken:
				t.Fatalf("%s: no damaged claim overlaps a served byte, yet: %v", label, err)
			case err != nil && !strings.Contains(err.Error(), "corrupt data") && !strings.Contains(err.Error(), "unreadable"):
				t.Fatalf("%s: damage surfaced as %v, want corrupt data or unreadable", label, err)
			case err == nil && int64(outs[i].Len()) != hi-lo:
				t.Fatalf("%s: restored %d bytes, want %d", label, outs[i].Len(), hi-lo)
			}
		}
		if (errs[0] == nil) != (errs[1] == nil) || !bytes.Equal(outs[0].Bytes(), outs[1].Bytes()) && errs[0] == nil {
			t.Fatalf("%s [%d,%d): default width %v, Workers 1 %v", name, lo, hi, errs[0], errs[1])
		}
	})
}

func (ws *widthStore) read(t *testing.T, cat simdisk.Category, name string) []byte {
	data, err := ws.st.Disk().Read(cat, name)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// restore puts an object's undamaged bytes back for the next input.
func (ws *widthStore) restore(t *testing.T, cat simdisk.Category, name string, data []byte) {
	if err := ws.st.Disk().Write(cat, name, data); err != nil {
		t.Fatal(err)
	}
}
