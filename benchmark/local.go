package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"mhdedup/dedup"
	"mhdedup/internal/simdisk"
	"mhdedup/internal/store"
)

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// runLocal is one repetition of fresh-local or gen-local: ingest into a
// fresh in-memory engine, then restore everything back out of it.
func runLocal(h *harness, in *input, tr *tracer) (*rep, error) {
	r := h.newRep()
	eng, err := dedup.New(dedup.MHD, engineOptions(in))
	if err != nil {
		return nil, err
	}
	if err := h.ingest(r, tr, eng, in, nil); err != nil {
		return nil, err
	}
	st := store.New(eng.Disk(), store.FormatMHD)
	h.restorePasses(r, tr, st, in)
	r.keepFor(eng.Disk(), 0)
	return r, nil
}

// ingest puts every file into eng, in order, then finishes it; commit,
// when not nil, runs after each file inside that file's put latency (the
// durable store's acknowledgement barrier). It fills the ingest metrics,
// the engine counts and the harness's process accounting.
func (h *harness) ingest(r *rep, tr *tracer, eng dedup.Engine, in *input, commit func() error) error {
	marks := markHists()
	before := readProc()
	phase := tr.open("ingest", 0, "")
	var putSecs float64
	var puts, commits []float64
	start := time.Now()
	for _, f := range in.files {
		t0 := time.Now()
		err := eng.PutFile(f.name, bytes.NewReader(f.data))
		d := time.Since(t0)
		tr.add("core.PutFile", phase, f.name, t0, d)
		r.attempted++
		if err != nil {
			return fmt.Errorf("put %s: %w", f.name, err)
		}
		putSecs += d.Seconds()
		if commit != nil {
			t1 := time.Now()
			err := commit()
			dc := time.Since(t1)
			tr.add("store.Commit", phase, f.name, t1, dc)
			if err != nil {
				return fmt.Errorf("commit after %s: %w", f.name, err)
			}
			commits = append(commits, ms(dc))
			d += dc
		}
		puts = append(puts, ms(d))
	}
	t0 := time.Now()
	err := eng.Finish()
	d := time.Since(t0)
	tr.add("core.Finish", phase, "", t0, d)
	if err != nil {
		return fmt.Errorf("finish: %w", err)
	}
	putSecs += d.Seconds()
	if commit != nil {
		t1 := time.Now()
		if err := commit(); err != nil {
			return fmt.Errorf("final commit: %w", err)
		}
		tr.add("store.Commit", phase, "", t1, time.Since(t1))
	}
	wall := time.Since(start).Seconds()
	tr.close(phase)
	after := readProc()

	r.calibrate()
	r.throughput("ingest_mb_s", in.bytes, wall)
	r.samples["put"] = puts
	if commit != nil {
		r.samples["commit"] = commits
	}
	r.v["core.put_s"] = putSecs
	marks.since(r, "core.chunk_hash_s", "core.lookup_s", "core.hook_probe_s",
		"core.manifest_load_s", "store.container_write_s")
	r.benchMetrics(before, after, in.bytes)
	r.engineCounts(in.bytes, eng)
	return nil
}

// restorePasses runs the workload's plain full restores, verified full
// restores and ranged restores against st, timing each call on its own
// and comparing its output with the input once the clock has stopped.
func (h *harness) restorePasses(r *rep, tr *tracer, st *store.Store, in *input) {
	marks := markHists()
	out := newCapture(in.maxFile)

	phase := tr.open("restore", 0, "")
	var secs float64
	var refs, reads, refsMax int
	for pass := 0; pass < h.wl.plainPasses; pass++ {
		for _, f := range in.files {
			out.reset()
			t0 := time.Now()
			rs, err := st.RestoreFileStats(f.name, out, store.RestoreOptions{})
			d := time.Since(t0)
			tr.add("store.RestoreFile", phase, f.name, t0, d)
			secs += d.Seconds()
			r.check(out, f.data, "restore "+f.name, err)
			if pass == 0 {
				refs += rs.Refs
				reads += rs.Reads
				refsMax = max(refsMax, rs.Refs)
			}
		}
	}
	tr.close(phase)
	r.calibrate()
	r.throughput("restore_mb_s", int64(h.wl.plainPasses)*in.bytes, secs)
	r.v["store.restore_s"] = secs
	r.v["store.restore_refs"] = float64(refs)
	r.v["store.restore_reads"] = float64(reads)
	r.v["store.coalesce_ratio"] = ratio(float64(refs), float64(reads))
	r.v["store.refs_per_file_max"] = float64(refsMax)
	marks.since(r, "store.container_read_s")

	// A fresh verifier, built inside the timer: nothing an earlier
	// repetition verified is remembered.
	phase = tr.open("restore-verified", 0, "")
	t0 := time.Now()
	ver := store.NewVerifier(st, store.VerifyOpts{})
	d := time.Since(t0)
	tr.add("store.NewVerifier", phase, "", t0, d)
	secs = d.Seconds()
	var verified int64
	for i, f := range in.files {
		if !h.wl.verified(in, i) {
			continue
		}
		out.reset()
		t0 := time.Now()
		err := ver.RestoreFile(f.name, out)
		d := time.Since(t0)
		tr.add("store.Verifier.RestoreFile", phase, f.name, t0, d)
		secs += d.Seconds()
		verified += int64(len(f.data))
		r.check(out, f.data, "verified restore "+f.name, err)
	}
	tr.close(phase)
	r.calibrate()
	r.throughput("restore_verified_mb_s", verified, secs)

	phase = tr.open("restore-range", 0, "")
	n := h.ranges()
	warm := n / 10
	var recipeReads, recipeMax int
	var seekMS []float64
	for i, s := range in.seeks(h.cfg.seed, warm+n) {
		f := in.files[s.file]
		out.reset()
		t0 := time.Now()
		rs, err := st.RestoreRange(f.name, s.off, s.length, out, store.RestoreOptions{})
		d := time.Since(t0)
		if i < warm {
			continue
		}
		tr.add("store.RestoreRange", phase, fmt.Sprintf("%s@%d", f.name, s.off), t0, d)
		seekMS = append(seekMS, ms(d))
		r.check(out, f.data[s.off:s.off+s.length], fmt.Sprintf("range %s@%d", f.name, s.off), err)
		recipeReads += rs.RecipeReads
		recipeMax = max(recipeMax, rs.RecipeReads)
	}
	tr.close(phase)
	r.calibrate()
	r.samples["range"] = seekMS
	r.v["store.range_p50_us"] = quantile(seekMS, 0.5) * 1000
	r.v["store.range_p99_us"] = quantile(seekMS, 0.99) * 1000
	r.v["store.recipe_reads_per_seek"] = ratio(float64(recipeReads), float64(n))
	r.v["store.recipe_reads_max"] = float64(recipeMax)
}

// keepFor remembers what the leaf replays need from the repetition's
// disk: the object sizes it wrote and its hook count. The sizes are shuffled (with a fixed seed) so that each of the WAL replay's
// group commits carries a mix of containers and small objects, as the
// run's did.
func (r *rep) keepFor(disk *simdisk.Disk, walSyncs int64) {
	k := &kept{walSyncs: int(walSyncs), hooks: disk.ObjectCount(simdisk.Hook)}
	for _, cat := range []simdisk.Category{simdisk.Data, simdisk.Hook, simdisk.Manifest,
		simdisk.FileManifest, simdisk.Recipe} {
		names := disk.Names(cat)
		sort.Strings(names) // Names is in map order
		for _, name := range names {
			size, _ := disk.Size(cat, name)
			k.walSizes = append(k.walSizes, size)
			if cat == simdisk.Data {
				k.dataSizes = append(k.dataSizes, size)
			}
		}
	}
	rand.New(rand.NewSource(1)).Shuffle(len(k.walSizes), func(i, j int) {
		k.walSizes[i], k.walSizes[j] = k.walSizes[j], k.walSizes[i]
	})
	r.keep = k
}
