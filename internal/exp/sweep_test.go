package exp

import (
	"bytes"
	"encoding/csv"
	"testing"

	"mhdedup/internal/algo"
	"mhdedup/internal/trace"
)

func microConfig() trace.Config {
	cfg := trace.Default()
	cfg.Machines = 1
	cfg.Days = 2
	cfg.SnapshotBytes = 1 << 20
	cfg.EditsPerDay = 6
	cfg.EditBytes = 8 << 10
	return cfg
}

func microDataset(t *testing.T) *trace.Dataset {
	t.Helper()
	ds, err := trace.New(microConfig())
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestSweepProducesAllCombinations(t *testing.T) {
	ds := microDataset(t)
	recs, err := Sweep(ds, []string{AlgoMHD, AlgoCDC}, []int{1024, 4096}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 4 {
		t.Fatalf("got %d records, want 4", len(recs))
	}
	seen := map[string]bool{}
	for _, r := range recs {
		key := r.Algo + string(rune('0'+r.ECS/1024))
		seen[key] = true
		if r.Report.InputBytes != ds.TotalBytes() {
			t.Errorf("%s/%d: input %d != dataset %d", r.Algo, r.ECS, r.Report.InputBytes, ds.TotalBytes())
		}
	}
	if len(seen) != 4 {
		t.Errorf("duplicate records in sweep: %v", seen)
	}
}

func TestSweepUnknownAlgo(t *testing.T) {
	ds := microDataset(t)
	if _, err := Sweep(ds, []string{"bogus"}, []int{1024}, 8); err == nil {
		t.Error("unknown algorithm in sweep accepted")
	}
}

func TestRunDeterministic(t *testing.T) {
	ds := microDataset(t)
	for _, a := range AllAlgorithms {
		p := Params{Algo: a, Options: algo.Options{ECS: 2048, SD: 8, ExpectedInputBytes: ds.TotalBytes()}}
		r1, err := Run(ds, p)
		if err != nil {
			t.Fatalf("%s: %v", a, err)
		}
		r2, err := Run(ds, p)
		if err != nil {
			t.Fatalf("%s: %v", a, err)
		}
		if r1.Report.Stats != r2.Report.Stats {
			t.Errorf("%s: two identical runs produced different stats", a)
		}
		if r1.Report.MetadataBytes != r2.Report.MetadataBytes {
			t.Errorf("%s: metadata differs across identical runs", a)
		}
	}
}

func TestSuiteRunCaching(t *testing.T) {
	s, err := NewSuite(Scale{
		Name:           "micro",
		Dataset:        microConfig(),
		SD:             8,
		SDSweep:        []int{8},
		ECSList:        []int{2048},
		ECSListDAD:     []int{2048},
		CacheManifests: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	r1, err := s.run(AlgoMHD, 2048, 8)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.run(AlgoMHD, 2048, 8)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Report.Stats != r2.Report.Stats {
		t.Error("cached record differs from original")
	}
	if len(s.cache) != 1 {
		t.Errorf("cache holds %d records, want 1", len(s.cache))
	}
}

func TestWriteCSV(t *testing.T) {
	ds := microDataset(t)
	recs, err := Sweep(ds, []string{AlgoMHD, AlgoCDC}, []int{2048}, 8)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, recs); err != nil {
		t.Fatal(err)
	}
	r := csv.NewReader(&buf)
	rows, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 { // header + 2 records
		t.Fatalf("rows = %d, want 3", len(rows))
	}
	if rows[0][0] != "algo" || len(rows[0]) != len(csvHeader) {
		t.Errorf("header wrong: %v", rows[0])
	}
	for _, row := range rows[1:] {
		if len(row) != len(csvHeader) {
			t.Errorf("row width %d != header %d", len(row), len(csvHeader))
		}
	}
}

func TestSuiteRecordsSorted(t *testing.T) {
	s, err := NewSuite(Scale{
		Name:           "micro",
		Dataset:        microConfig(),
		SD:             8,
		SDSweep:        []int{8},
		ECSList:        []int{1024, 2048},
		ECSListDAD:     []int{1024},
		CacheManifests: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, ecs := range []int{2048, 1024} { // out of order on purpose
		if _, err := s.run(AlgoMHD, ecs, 8); err != nil {
			t.Fatal(err)
		}
	}
	recs := s.Records()
	if len(recs) != 2 || recs[0].ECS != 1024 || recs[1].ECS != 2048 {
		t.Errorf("Records not sorted: %+v", recs)
	}
}
