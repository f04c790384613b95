package mhdedup

// The benchmark harness: one testing.B entry per table and figure of the
// paper's evaluation section. Each benchmark iteration regenerates the
// experiment from scratch on the quick-scale synthetic workload and attaches
// the headline quantities via b.ReportMetric, so `go test -bench=.` both
// times the harness and reprints the reproduced results. Run
// `go run ./cmd/experiments -scale standard` for the full-scale tables.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"testing"

	"mhdedup/internal/chunker"
	"mhdedup/internal/core"
	"mhdedup/internal/exp"
	"mhdedup/internal/trace"
)

// newSuite builds a fresh quick-scale suite (no cross-iteration caching, so
// timings reflect real work).
func newSuite(b *testing.B) *exp.Suite {
	b.Helper()
	s, err := exp.NewSuite(exp.QuickScale())
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkFig7Metadata regenerates Fig 7(a)–(d): per-category metadata
// versus ECS for MHD, Bimodal, SubChunk and SparseIndexing.
func BenchmarkFig7Metadata(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := newSuite(b)
		_, recs, err := s.Fig7()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range recs {
			if r.Algo == exp.AlgoMHD && r.ECS == 2048 {
				b.ReportMetric(r.Report.MetaDataRatio()*100, "mhd-meta-%")
				b.ReportMetric(r.Report.InodesPerMB(), "mhd-inodes/MB")
			}
		}
	}
}

// BenchmarkFig8Tradeoff regenerates Fig 8(a)–(d): DER versus MetaDataRatio
// and ThroughputRatio trade-off curves.
func BenchmarkFig8Tradeoff(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := newSuite(b)
		_, recs, err := s.Fig8()
		if err != nil {
			b.Fatal(err)
		}
		var bestReal float64
		for _, r := range recs {
			if r.Algo == exp.AlgoMHD && r.Report.RealDER() > bestReal {
				bestReal = r.Report.RealDER()
			}
		}
		b.ReportMetric(bestReal, "mhd-best-realDER")
	}
}

// BenchmarkFig9SD regenerates Fig 9(a)–(b): BF-MHD's real-DER trade-offs at
// the three SD values.
func BenchmarkFig9SD(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := newSuite(b)
		_, recs, err := s.Fig9()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range recs {
			if r.SD == s.Scale.SDSweep[len(s.Scale.SDSweep)-1] && r.ECS == 1024 {
				b.ReportMetric(r.Report.RealDER(), "smallest-SD-realDER")
			}
		}
	}
}

// BenchmarkFig10Dataset regenerates Fig 10(a)–(b): DAD versus ECS and HHR
// cost versus the number of duplicate slices.
func BenchmarkFig10Dataset(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := newSuite(b)
		_, recs, err := s.Fig10()
		if err != nil {
			b.Fatal(err)
		}
		last := recs[len(recs)-1].Report
		b.ReportMetric(last.DAD()/1024, "DAD-KiB")
		if last.DupSlices > 0 {
			b.ReportMetric(float64(last.HHRDiskAccesses)/float64(last.DupSlices), "HHR/L")
		}
	}
}

// BenchmarkTable1Model regenerates Table I: metadata-size model versus
// measurement.
func BenchmarkTable1Model(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := newSuite(b)
		if _, err := s.Table1(2048); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2Model regenerates Table II: disk-access model versus
// measurement.
func BenchmarkTable2Model(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := newSuite(b)
		if _, err := s.Table2(2048); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3SparseRAM regenerates Table III: sparse-index RAM versus
// ECS.
func BenchmarkTable3SparseRAM(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := newSuite(b)
		if _, err := s.Table3(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable4MHDBytes regenerates Table IV: Hook+Manifest bytes over
// the SD × ECS grid.
func BenchmarkTable4MHDBytes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := newSuite(b)
		if _, err := s.Table4(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable5ManifestLoads regenerates Table V: manifest-loading disk
// accesses over the SD × ECS grid.
func BenchmarkTable5ManifestLoads(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := newSuite(b)
		if _, err := s.Table5(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationMHD measures the design-choice ablations called out in
// DESIGN.md (bloom filter, HHR byte comparison, EdgeHash guard).
func BenchmarkAblationMHD(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := newSuite(b)
		if _, err := s.Ablations(2048); err != nil {
			b.Fatal(err)
		}
	}
}

// benchIngest measures single-engine ingest throughput over one workload
// pass (the CPU-side cost a deployment would feel).
func benchIngest(b *testing.B, algoName string) {
	cfg := trace.Default()
	cfg.Machines = 2
	cfg.Days = 3
	cfg.SnapshotBytes = 2 << 20
	cfg.EditsPerDay = 16
	cfg.EditBytes = 16 << 10
	ds, err := trace.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(ds.TotalBytes())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := exp.Build(exp.DefaultParams(algoName, 4096, 16, ds.TotalBytes()))
		if err != nil {
			b.Fatal(err)
		}
		if err := ds.EachFile(func(info trace.FileInfo, r io.Reader) error {
			return d.PutFile(info.Name, r)
		}); err != nil {
			b.Fatal(err)
		}
		if err := d.Finish(); err != nil {
			b.Fatal(err)
		}
	}
}

// benchParallelIngest measures multi-stream ingest throughput at a given
// worker count: an 8-machine workload, one ordered stream per machine, fed
// through IngestStreams on a shared MHD engine. workers=1 is the serial
// baseline (bit-identical to a PutFile loop); higher counts scale with the
// machine's spare cores — on a single-CPU host the lines coincide and the
// benchmark degenerates into a scheduler-overhead measurement.
func benchParallelIngest(b *testing.B, workers int) {
	cfg := trace.Default()
	cfg.Machines = 8
	cfg.Days = 2
	cfg.SnapshotBytes = 1 << 20
	cfg.EditsPerDay = 8
	cfg.EditBytes = 8 << 10
	ds, err := trace.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	// One ordered stream per machine.
	streamsOf := func() []core.Stream {
		byMachine := map[int]int{}
		var streams []core.Stream
		for _, f := range ds.Files() {
			name := f.Name
			idx, ok := byMachine[f.Machine]
			if !ok {
				idx = len(streams)
				byMachine[f.Machine] = idx
				streams = append(streams, core.Stream{Name: fmt.Sprintf("m%d", f.Machine)})
			}
			streams[idx].Items = append(streams[idx].Items, core.Item{
				Name: name,
				Open: func() (io.ReadCloser, error) {
					r, err := ds.Open(name)
					if err != nil {
						return nil, err
					}
					return io.NopCloser(r), nil
				},
			})
		}
		return streams
	}
	b.SetBytes(ds.TotalBytes())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ccfg := core.DefaultConfig()
		ccfg.ECS = 4096
		ccfg.SD = 16
		ccfg.BloomBytes = 1 << 18
		d, err := core.New(ccfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := d.IngestStreamsContext(context.Background(), workers, streamsOf()); err != nil {
			b.Fatal(err)
		}
		if err := d.Finish(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParallelIngest1(b *testing.B) { benchParallelIngest(b, 1) }
func BenchmarkParallelIngest2(b *testing.B) { benchParallelIngest(b, 2) }
func BenchmarkParallelIngest4(b *testing.B) { benchParallelIngest(b, 4) }
func BenchmarkParallelIngest8(b *testing.B) { benchParallelIngest(b, 8) }

func BenchmarkIngestMHD(b *testing.B)      { benchIngest(b, exp.AlgoMHD) }
func BenchmarkIngestCDC(b *testing.B)      { benchIngest(b, exp.AlgoCDC) }
func BenchmarkIngestBimodal(b *testing.B)  { benchIngest(b, exp.AlgoBimodal) }
func BenchmarkIngestSubChunk(b *testing.B) { benchIngest(b, exp.AlgoSubChunk) }
func BenchmarkIngestSparse(b *testing.B)   { benchIngest(b, exp.AlgoSparse) }

// BenchmarkRestoreMHD measures restore throughput.
func BenchmarkRestoreMHD(b *testing.B) {
	cfg := trace.Default()
	cfg.Machines = 2
	cfg.Days = 2
	cfg.SnapshotBytes = 2 << 20
	cfg.EditsPerDay = 16
	cfg.EditBytes = 16 << 10
	ds, err := trace.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	d, err := exp.Build(exp.DefaultParams(exp.AlgoMHD, 4096, 16, ds.TotalBytes()))
	if err != nil {
		b.Fatal(err)
	}
	if err := ds.EachFile(func(info trace.FileInfo, r io.Reader) error {
		return d.PutFile(info.Name, r)
	}); err != nil {
		b.Fatal(err)
	}
	if err := d.Finish(); err != nil {
		b.Fatal(err)
	}
	files := ds.Files()
	b.SetBytes(ds.TotalBytes())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, f := range files {
			if err := d.Restore(f.Name, io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkChunkers measures the block-processed chunker scans — the only
// ones the system runs — over synthetic snapshot bytes; MB/s is the
// headline. Their per-byte references are benchmarked beside the conformance
// harness that uses them (internal/chunker: BenchmarkRabinChunk1M,
// BenchmarkFastCDCChunk1M).
func BenchmarkChunkers(b *testing.B) {
	cfg := trace.Default()
	cfg.Machines = 1
	cfg.Days = 1
	cfg.SnapshotBytes = 8 << 20
	ds, err := trace.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	var data []byte
	if err := ds.EachFile(func(info trace.FileInfo, r io.Reader) error {
		buf, err := io.ReadAll(r)
		data = append(data, buf...)
		return err
	}); err != nil {
		b.Fatal(err)
	}
	p := chunker.Params{ECS: 4096}
	for _, impl := range []struct {
		name string
		mk   func(r io.Reader, p chunker.Params) (chunker.Chunker, error)
	}{
		{"RabinFast", func(r io.Reader, p chunker.Params) (chunker.Chunker, error) { return chunker.NewFastRabin(r, p) }},
		{"GearFast", func(r io.Reader, p chunker.Params) (chunker.Chunker, error) { return chunker.NewFastGear(r, p) }},
	} {
		b.Run(impl.name, func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				c, err := impl.mk(bytes.NewReader(data), p)
				if err != nil {
					b.Fatal(err)
				}
				for {
					if _, err := c.Next(); err != nil {
						if err == io.EOF {
							break
						}
						b.Fatal(err)
					}
				}
			}
		})
	}
}
