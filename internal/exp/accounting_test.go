package exp

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"mhdedup/internal/algo"
	"mhdedup/internal/metrics"
	"mhdedup/internal/simdisk"
)

// TestEveryEngineCountsWhatItReads holds every engine of the table to
// Table V's accounting: the manifest loads its Report charges are the
// manifest reads its disk served. At CacheManifests 1 every load evicts
// (and writes back) the one before; at 64 the cache keeps them. The input
// is a few generations of two files, each generation editing both, with
// one file also repeated whole (Extreme Binning's whole-file path). The
// core.* latency histograms the benchmark reads observe MHD's and
// SI-MHD's calls, and no other engine's.
func TestEveryEngineCountsWhatItReads(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	files := [2][]byte{make([]byte, 160_000), make([]byte, 120_000)}
	for _, f := range files {
		rng.Read(f)
	}
	type put struct {
		name    string
		content []byte
	}
	var puts []put
	for gen := 0; gen < 4; gen++ {
		for i := range files {
			edited := append([]byte(nil), files[i]...)
			at := rng.Intn(len(edited) - 3_000)
			rng.Read(edited[at : at+3_000])
			files[i] = edited
			puts = append(puts, put{fmt.Sprintf("g%d/f%d", gen, i), edited})
		}
		puts = append(puts, put{fmt.Sprintf("g%d/copy", gen), files[0]})
	}
	// The first counts one observation per manifest load.
	histograms := [3]string{"core.manifest_load_ns", "core.lookup_ns", "core.hook_probe_ns"}
	for _, cache := range []int{1, 64} {
		for _, e := range engines {
			t.Run(fmt.Sprintf("%s/cache=%d", e.name, cache), func(t *testing.T) {
				var before [3]int64
				for i, name := range histograms {
					before[i] = metrics.GetHistogram(name).Snapshot().Count
				}
				d, err := Build(Params{Algo: e.name, Options: algo.Options{ECS: 1024, SD: 8, CacheManifests: cache}})
				if err != nil {
					t.Fatal(err)
				}
				for _, p := range puts {
					if err := d.PutFile(p.name, bytes.NewReader(p.content)); err != nil {
						t.Fatal(err)
					}
				}
				if err := d.Finish(); err != nil {
					t.Fatal(err)
				}
				loads, reads := d.Report().ManifestLoads, d.Disk().Counters().Reads[simdisk.Manifest]
				t.Logf("manifest loads %d, manifest reads %d", loads, reads)
				if loads != reads {
					t.Errorf("Report charges %d manifest loads, the disk served %d manifest reads", loads, reads)
				}
				mhd := e.name == AlgoMHD || e.name == AlgoSIMHD
				for i, name := range histograms {
					n := metrics.GetHistogram(name).Snapshot().Count - before[i]
					if (mhd && n == 0) || (!mhd && n != 0) || (i == 0 && mhd && n != loads) {
						t.Errorf("%s observed %d calls (manifest loads %d)", name, n, loads)
					}
				}
			})
		}
	}
}
