package main

import (
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeTestFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	base := make([]byte, 200_000)
	rng.Read(base)
	files := map[string][]byte{
		"img/a.img": base,
		"img/b.img": append([]byte(nil), base...),
	}
	for name, data := range files {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return files
}

// baseOptions returns the small-scale settings the CLI tests share.
func baseOptions() runOptions {
	return runOptions{
		algo:     "mhd",
		ecs:      512,
		sd:       4,
		cache:    8,
		parallel: 1,
	}
}

func TestRunOnDirectoryWithVerifyAndSave(t *testing.T) {
	dir := t.TempDir()
	writeTestFiles(t, dir)
	storeDir := filepath.Join(t.TempDir(), "store")
	o := baseOptions()
	o.dir = dir
	o.verify = true
	o.save = storeDir
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(storeDir, "MANIFEST.json")); err != nil {
		t.Errorf("store not saved (commit marker missing): %v", err)
	}
	if _, err := os.Stat(filepath.Join(storeDir, "gen-000001", "chunks")); err != nil {
		t.Errorf("store not saved: %v", err)
	}
}

func TestRunResumeAppends(t *testing.T) {
	dir1 := t.TempDir()
	writeTestFiles(t, dir1)
	storeDir := filepath.Join(t.TempDir(), "store")
	o := baseOptions()
	o.dir = dir1
	o.save = storeDir
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	// Second session: new directory with different names, resumed store.
	dir2 := t.TempDir()
	rng := rand.New(rand.NewSource(2))
	data := make([]byte, 100_000)
	rng.Read(data)
	if err := os.WriteFile(filepath.Join(dir2, "c.img"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	o2 := baseOptions()
	o2.dir = dir2
	o2.verify = true
	o2.save = storeDir
	o2.resume = storeDir
	if err := run(o2); err != nil {
		t.Fatal(err)
	}
}

func TestRunWorkloadAllAlgorithms(t *testing.T) {
	for _, a := range []string{"mhd", "si-mhd", "cdc", "bimodal", "subchunk", "sparse", "fbc", "fingerdiff", "extremebinning"} {
		o := runOptions{
			algo: a, ecs: 1024, sd: 4, cache: 8, parallel: 1,
			workload: true, machines: 1, days: 2, snapshot: 1 << 20,
			edits: 6, editSize: 8 << 10, seed: 1, verify: true,
		}
		if err := run(o); err != nil {
			t.Errorf("%s: %v", a, err)
		}
	}
}

func TestRunWorkloadParallel(t *testing.T) {
	for _, a := range []string{"mhd", "si-mhd"} {
		o := runOptions{
			algo: a, ecs: 1024, sd: 4, cache: 8, parallel: 4,
			workload: true, machines: 4, days: 2, snapshot: 1 << 20,
			edits: 6, editSize: 8 << 10, seed: 1, verify: true,
		}
		if err := run(o); err != nil {
			t.Errorf("%s parallel: %v", a, err)
		}
	}
}

func TestRunErrors(t *testing.T) {
	o := baseOptions()
	if err := run(o); err == nil {
		t.Error("missing input source accepted")
	}
	o = baseOptions()
	o.algo = "nope"
	o.workload = true
	o.machines, o.days, o.snapshot, o.edits, o.editSize, o.seed = 1, 1, 1<<20, 1, 1024, 1
	if err := run(o); err == nil {
		t.Error("unknown algorithm accepted")
	}
	// Concurrent ingest on a single-stream engine must be rejected.
	o = baseOptions()
	o.algo = "cdc"
	o.parallel = 2
	o.workload = true
	o.machines, o.days, o.snapshot, o.edits, o.editSize, o.seed = 2, 1, 1<<20, 1, 1024, 1
	if err := run(o); err == nil || !strings.Contains(err.Error(), "concurrent ingest") {
		t.Errorf("-algo cdc -parallel 2: err = %v, want a refusal naming concurrent ingest", err)
	}
	o = baseOptions()
	o.parallel = 0
	o.workload = true
	if err := run(o); err == nil {
		t.Error("-parallel 0 accepted")
	}
}
