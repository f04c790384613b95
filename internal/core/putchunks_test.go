package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"mhdedup/internal/chunker"
	"mhdedup/internal/hashutil"
	"mhdedup/internal/metrics"
	"mhdedup/internal/simdisk"
	"mhdedup/internal/store"
	"mhdedup/internal/trace"
)

// cutAs cuts data the way an engine configured as cfg would — the shared
// constructor, the engine's own parameters — and hashes each chunk: what a
// client does on the engine's behalf.
func cutAs(t testing.TB, cfg Config, data []byte) []HashedChunk {
	t.Helper()
	ch, err := chunker.New(bytes.NewReader(data), cfg.chunkerParams(), cfg.TTTD, cfg.FastCDC)
	if err != nil {
		t.Fatal(err)
	}
	var out []HashedChunk
	for {
		c, err := ch.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, HashedChunk{Hash: hashutil.SumBytes(c.Data), Data: c.Data})
	}
}

// pullRuns hands chunks out in runs of random length, empty ones included.
func pullRuns(chunks []HashedChunk, rng *rand.Rand) func() ([]HashedChunk, error) {
	return func() ([]HashedChunk, error) {
		if len(chunks) == 0 {
			return nil, io.EOF
		}
		n := min(rng.Intn(40), len(chunks))
		run := chunks[:n]
		chunks = chunks[n:]
		return run, nil
	}
}

// TestPutChunksMatchesPutFile: fed the cuts and digests the configured
// chunker would have produced, in runs of any length, PutChunks leaves the
// store PutFile leaves — every object byte for byte — and the same Report
// bar the two counters that say who scanned and hashed the input: for every
// chunker × both hook indexes, whatever the schedule (and, under -tags
// purego, with hashutil's lanes off).
func TestPutChunksMatchesPutFile(t *testing.T) {
	tcfg := trace.Default()
	tcfg.Machines = 3
	tcfg.Days = 3
	tcfg.SnapshotBytes = 256 << 10
	tcfg.EditsPerDay = 6
	tcfg.EditBytes = 8 << 10
	ds, err := trace.New(tcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, ck := range []struct {
		name       string
		tttd, gear bool
	}{{"rabin", false, false}, {"gear", false, true}, {"tttd", true, false}} {
		for _, sparse := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/sparse=%v", ck.name, sparse), func(t *testing.T) {
				cfg := stressConfig(sparse)
				cfg.CacheManifests = 2 // force evictions, as the determinism test does
				cfg.TTTD, cfg.FastCDC = ck.tttd, ck.gear
				want, wantDisk := runVariant(t, cfg, ds, func(d *Dedup) error {
					return ds.EachFile(func(info trace.FileInfo, r io.Reader) error {
						return d.PutFile(info.Name, r)
					})
				})
				if want.DupBytes == 0 || want.HHROps == 0 {
					t.Fatalf("corpus exercises nothing: %d duplicate bytes, %d HHR ops", want.DupBytes, want.HHROps)
				}
				// The engine neither scanned nor per-chunk-hashed a byte.
				want.ChunkedBytes -= want.InputBytes
				want.HashedBytes -= want.InputBytes
				for _, procs := range []int{1, 2, 8} {
					runtime.GOMAXPROCS(procs)
					rng := rand.New(rand.NewSource(int64(procs)))
					label := fmt.Sprintf("GOMAXPROCS=%d sha1=%s", procs, hashutil.Kernel())
					got, gotDisk := runVariant(t, cfg, ds, func(d *Dedup) error {
						return ds.EachFile(func(info trace.FileInfo, r io.Reader) error {
							data, err := io.ReadAll(r)
							if err != nil {
								return err
							}
							return d.PutChunksContext(context.Background(), info.Name, pullRuns(cutAs(t, cfg, data), rng))
						})
					})
					if got.ChunkedBytes != 0 || !reflect.DeepEqual(got, want) {
						t.Errorf("%s report differs:\n got %+v\nwant %+v", label, got, want)
					}
					compareSnapshots(t, label, wantDisk, gotDisk)
				}
			})
		}
	}
}

// perturb moves cuts the chunker made to where it would not have put them:
// a chunk may be split anywhere, neighbours merged up to max bytes. The
// stream is unchanged; every digest is recomputed.
func perturb(chunks []HashedChunk, max int, rng *rand.Rand) []HashedChunk {
	var out []HashedChunk
	add := func(data []byte) {
		out = append(out, HashedChunk{Hash: hashutil.SumBytes(data), Data: data})
	}
	for i := 0; i < len(chunks); i++ {
		data := chunks[i].Data
		switch r := rng.Intn(10); {
		case r == 0 && len(data) > 1:
			at := 1 + rng.Intn(len(data)-1)
			add(data[:at])
			add(data[at:])
		case r == 1 && i+1 < len(chunks) && len(data)+len(chunks[i+1].Data) <= max:
			add(append(append([]byte(nil), data...), chunks[i+1].Data...))
			i++
		default:
			out = append(out, chunks[i])
		}
	}
	return out
}

// anyCuts ingests mutated generations of one image into one engine — some
// under the engine's own cuts (PutFile), the rest as chunk runs whose cuts
// were perturbed — and checks that HHR over cuts the engine did not make
// changes no file's bytes: every file restores bit-identical, plainly and
// verified, and the store checks clean.
func anyCuts(t *testing.T, seed int64) metrics.Stats {
	rng := rand.New(rand.NewSource(seed))
	cfg := testConfig()
	cfg.SparseIndex = rng.Intn(2) == 0
	switch rng.Intn(3) {
	case 1:
		cfg.TTTD = true
	case 2:
		cfg.FastCDC = true
	}
	_, max, err := cfg.chunkerParams().Bounds()
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{}
	data := randBytes(seed, 32<<10+rng.Intn(64<<10))
	for gen := 0; gen < 5; gen++ {
		name := fmt.Sprintf("gen%d", gen)
		files[name] = data
		if rng.Intn(3) == 0 {
			err = d.PutFile(name, bytes.NewReader(data))
		} else {
			err = d.PutChunksContext(context.Background(), name, pullRuns(perturb(cutAs(t, cfg, data), max, rng), rng))
		}
		if err != nil {
			t.Fatalf("seed %d: %s: %v", seed, name, err)
		}
		next := append([]byte(nil), data...)
		for e := rng.Intn(4); e >= 0; e-- {
			off := rng.Intn(len(next))
			rng.Read(next[off:min(off+1+rng.Intn(2048), len(next))])
		}
		data = next
	}
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	checkRestore(t, d, files)
	v := store.NewVerifier(d.Store, store.VerifyOpts{})
	for name, want := range files {
		var got bytes.Buffer
		if err := v.RestoreFile(name, &got); err != nil || !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("seed %d: verified restore of %s: %d bytes of %d, %v", seed, name, got.Len(), len(want), err)
		}
	}
	if rep := store.Check(d.Disk(), store.FormatMHD); !rep.OK() {
		t.Fatalf("seed %d: store check: %v", seed, rep.Problems)
	}
	return d.Stats()
}

// TestPutChunksAnyCuts runs anyCuts over 30 seeds and checks the seeds
// together met what the property is about: duplicates were found and HHR ran.
func TestPutChunksAnyCuts(t *testing.T) {
	var in, dup, hhr int64
	for seed := int64(1); seed <= 30; seed++ {
		st := anyCuts(t, seed)
		in, dup, hhr = in+st.InputBytes, dup+st.DupBytes, hhr+st.HHROps
	}
	t.Logf("30 seeds: %d of %d input bytes duplicate (%.0f%%), %d HHR ops", dup, in, 100*float64(dup)/float64(in), hhr)
	if dup == 0 || hhr == 0 {
		t.Fatal("the seeds found no duplicates or ran no HHR: the property was not exercised")
	}
}

func FuzzPutChunksAnyCuts(f *testing.F) {
	f.Add(int64(31))
	f.Add(int64(-7))
	f.Fuzz(func(t *testing.T, seed int64) { anyCuts(t, seed) })
}

// TestPutChunksTeardown: a cancelled context and a fault of the engine's own
// each end PutChunksContext mid-run with that error, commit nothing under
// the name and leave no goroutine behind; the engine stays usable.
func TestPutChunksTeardown(t *testing.T) {
	cfg := testConfig()
	chunks := cutAs(t, cfg, randBytes(77, 256<<10))
	boom := errors.New("manifest unreadable")
	for _, tc := range []struct {
		name string
		want error
	}{{"cancel", context.Canceled}, {"engine fault", boom}} {
		t.Run(tc.name, func(t *testing.T) {
			disk := simdisk.New()
			d, err := NewOnDisk(cfg, disk)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(1))
			if err := d.PutChunksContext(context.Background(), "a", pullRuns(chunks, rng)); err != nil {
				t.Fatal(err)
			}
			baseline := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			if tc.want == boom {
				// b opens with fresh chunks and then repeats a: the first
				// repeated chunk hits a's hook, mid-run, and the manifest
				// load fails.
				disk.SetFailureHook(func(op simdisk.Op, cat simdisk.Category, _ string) error {
					if op == simdisk.OpRead && cat == simdisk.Manifest {
						return boom
					}
					return nil
				})
			}
			pulls := 0
			pull := pullRuns(append(cutAs(t, cfg, randBytes(78, 128<<10)), chunks...), rng)
			err = d.PutChunksContext(ctx, "b", func() ([]HashedChunk, error) {
				if pulls++; pulls == 3 && tc.want != boom {
					cancel()
				}
				return pull()
			})
			if !errors.Is(err, tc.want) {
				t.Fatalf("PutChunksContext = %v, want %v", err, tc.want)
			}
			disk.SetFailureHook(nil)
			waitForGoroutines(t, baseline)
			if disk.Exists(simdisk.FileManifest, "b") {
				t.Fatal("the aborted file left a FileManifest")
			}
			if err := d.PutChunksContext(context.Background(), "c", pullRuns(chunks, rng)); err != nil {
				t.Fatalf("engine unusable after the aborted file: %v", err)
			}
			checkRestore(t, d, map[string][]byte{"c": randBytes(77, 256<<10)})
		})
	}
}
