// Package exp is the experiment harness: it builds any of the nine
// deduplicators from a uniform parameter set, runs them over synthetic
// disk-image workloads, and regenerates every figure and table of the
// paper's evaluation section (§V).
package exp

import (
	"fmt"
	"io"

	"mhdedup/internal/algo"
	"mhdedup/internal/baseline"
	"mhdedup/internal/core"
	"mhdedup/internal/metrics"
	"mhdedup/internal/simdisk"
	"mhdedup/internal/trace"
)

// Algorithm names accepted by Build.
const (
	AlgoMHD            = "mhd"
	AlgoSIMHD          = "si-mhd"
	AlgoCDC            = "cdc"
	AlgoBimodal        = "bimodal"
	AlgoSubChunk       = "subchunk"
	AlgoSparse         = "sparse"
	AlgoFBC            = "fbc"
	AlgoFingerdiff     = "fingerdiff"
	AlgoExtremeBinning = "extremebinning"
)

// engine is one row of the algorithm table.
type engine struct {
	name string
	// mount returns the engine over disk, with its detection state rebuilt
	// from whatever the disk already holds. A new engine is a mount of an
	// empty disk, where there is nothing to rebuild.
	mount func(Params, *simdisk.Disk) (algo.Deduplicator, error)
	// resumable says mount can rebuild the detection state of a non-empty
	// disk: it lives on disk (hooks, manifests), not only in RAM.
	resumable bool
}

// engines is the one table every engine is built from — by Build, by Resume
// (so by all of package dedup) and by the tests' matrices. Adding an
// algorithm is its file plus its row here. The order is AllAlgorithms'.
var engines = []engine{
	{name: AlgoMHD, mount: mountMHD(false), resumable: true},
	{name: AlgoSIMHD, mount: mountMHD(true), resumable: true},
	{name: AlgoCDC, mount: mountBaseline(baseline.ResumeCDC), resumable: true},
	{name: AlgoBimodal, mount: mountBaseline(baseline.NewBimodal)},
	{name: AlgoSubChunk, mount: mountBaseline(baseline.NewSubChunk)},
	{name: AlgoSparse, mount: mountBaseline(baseline.NewSparse)},
	{name: AlgoFBC, mount: mountBaseline(baseline.NewFBC)},
	{name: AlgoFingerdiff, mount: mountBaseline(baseline.NewFingerdiff)},
	{name: AlgoExtremeBinning, mount: mountBaseline(baseline.NewExtremeBinning)},
}

// Algorithms lists the comparison set of the paper's figures (plain CDC is
// analyzed in Tables I/II but not plotted).
var Algorithms = []string{AlgoMHD, AlgoBimodal, AlgoSubChunk, AlgoSparse}

// AllAlgorithms lists every row of the table: the figures' set plus plain
// CDC and the extensions the paper mentions but does not plot — SI-MHD (MHD
// over a sparse in-RAM hook index), FBC, Fingerdiff and Extreme Binning.
var AllAlgorithms = func() []string {
	names := make([]string, len(engines))
	for i, e := range engines {
		names[i] = e.name
	}
	return names
}()

// Params selects and configures one deduplicator run.
type Params struct {
	Algo string
	ECS  int
	SD   int
	// BloomBytes of zero auto-sizes the filter from ExpectedInputBytes.
	BloomBytes int
	// ExpectedInputBytes drives bloom auto-sizing (≈1.2 bytes per expected
	// chunk, the standard 1%-FP sizing).
	ExpectedInputBytes int64
	CacheManifests     int
	UseBloom           bool
	// MHD ablation switches.
	ByteCompare bool
	EdgeHash    bool
	SHMPerSlice bool
	TTTD        bool
	FastCDC     bool
	// RecipeTrees stores file recipes as deduplicated recipe trees
	// (64-bit-clean, O(log n) ranged restore) instead of flat manifests.
	RecipeTrees bool
}

// DefaultParams returns paper-faithful settings for one algorithm.
func DefaultParams(algoName string, ecs, sd int, expectedInput int64) Params {
	return Params{
		Algo:               algoName,
		ECS:                ecs,
		SD:                 sd,
		ExpectedInputBytes: expectedInput,
		CacheManifests:     64,
		UseBloom:           true,
		ByteCompare:        true,
		EdgeHash:           true,
	}
}

// bloomBytes auto-sizes the filter: ~9.6 bits per expected chunk (1% FP).
func (p Params) bloomBytes() int {
	if p.BloomBytes > 0 {
		return p.BloomBytes
	}
	if p.ExpectedInputBytes <= 0 || p.ECS <= 0 {
		return 1 << 20
	}
	n := p.ExpectedInputBytes / int64(p.ECS)
	b := int(n*12/8) + 1024
	if b < 1<<16 {
		b = 1 << 16
	}
	return b
}

// mountMHD is the table's mount for MHD and, with sparseIndex, SI-MHD.
func mountMHD(sparseIndex bool) func(Params, *simdisk.Disk) (algo.Deduplicator, error) {
	return func(p Params, disk *simdisk.Disk) (algo.Deduplicator, error) {
		cfg := core.DefaultConfig()
		cfg.ECS = p.ECS
		cfg.SD = p.SD
		cfg.BloomBytes = p.bloomBytes()
		cfg.CacheManifests = p.CacheManifests
		cfg.UseBloom = p.UseBloom
		cfg.ByteCompare = p.ByteCompare
		cfg.EdgeHash = p.EdgeHash
		cfg.SHMPerSlice = p.SHMPerSlice
		cfg.TTTD = p.TTTD
		cfg.FastCDC = p.FastCDC
		cfg.SparseIndex = sparseIndex
		cfg.RecipeTrees = p.RecipeTrees
		d, err := core.Resume(cfg, disk)
		if err != nil {
			return nil, err
		}
		return d, nil
	}
}

// mountBaseline is the table's mount for an internal/baseline engine: every
// one of them is configured from the same Params the same way.
func mountBaseline[E algo.Deduplicator](mk func(baseline.Config, *simdisk.Disk) (E, error)) func(Params, *simdisk.Disk) (algo.Deduplicator, error) {
	return func(p Params, disk *simdisk.Disk) (algo.Deduplicator, error) {
		cfg := baseline.DefaultConfig()
		cfg.ECS = p.ECS
		cfg.SD = p.SD
		cfg.BloomBytes = p.bloomBytes()
		cfg.CacheManifests = p.CacheManifests
		cfg.UseBloom = p.UseBloom
		cfg.RecipeTrees = p.RecipeTrees
		d, err := mk(cfg, disk)
		if err != nil {
			return nil, err
		}
		return d, nil
	}
}

// row finds p's row of the table.
func row(p Params) (engine, error) {
	for _, e := range engines {
		if e.name == p.Algo {
			return e, nil
		}
	}
	return engine{}, fmt.Errorf("exp: unknown algorithm %q", p.Algo)
}

// Build constructs the deduplicator p describes over a fresh simulated disk.
func Build(p Params) (algo.Deduplicator, error) {
	e, err := row(p)
	if err != nil {
		return nil, err
	}
	return e.mount(p, simdisk.New())
}

// Resume constructs the deduplicator p describes over an existing
// deduplicated disk, so new files deduplicate against everything already
// stored. Engines whose detection state lives only in RAM are refused.
func Resume(p Params, disk *simdisk.Disk) (algo.Deduplicator, error) {
	e, err := row(p)
	if err != nil {
		return nil, err
	}
	if !e.resumable {
		return nil, fmt.Errorf("exp: resume is not supported for %q (its detection state is not reconstructible from disk)", p.Algo)
	}
	return e.mount(p, disk)
}

// Record is one completed run.
type Record struct {
	Algo   string
	ECS    int
	SD     int
	Report metrics.Report
}

// CostModel is the throughput model all experiments share.
var CostModel = simdisk.Default2013()

// ThroughputRatio evaluates the record under the shared cost model.
func (r Record) ThroughputRatio() float64 {
	return r.Report.ThroughputRatio(CostModel)
}

// Run ingests the whole dataset through a deduplicator built from p.
func Run(ds *trace.Dataset, p Params) (Record, error) {
	if p.ExpectedInputBytes == 0 {
		p.ExpectedInputBytes = ds.TotalBytes()
	}
	d, err := Build(p)
	if err != nil {
		return Record{}, err
	}
	if err := ds.EachFile(func(info trace.FileInfo, r io.Reader) error {
		return d.PutFile(info.Name, r)
	}); err != nil {
		return Record{}, err
	}
	if err := d.Finish(); err != nil {
		return Record{}, err
	}
	return Record{Algo: p.Algo, ECS: p.ECS, SD: p.SD, Report: d.Report()}, nil
}

// Sweep runs every algorithm × ECS combination at a fixed SD.
func Sweep(ds *trace.Dataset, algos []string, ecsList []int, sd int) ([]Record, error) {
	var out []Record
	for _, ecs := range ecsList {
		for _, a := range algos {
			rec, err := Run(ds, DefaultParams(a, ecs, sd, ds.TotalBytes()))
			if err != nil {
				return nil, fmt.Errorf("exp: %s ECS=%d SD=%d: %w", a, ecs, sd, err)
			}
			out = append(out, rec)
		}
	}
	return out, nil
}

// Scale selects the workload and parameter scale of an experiment run. The
// paper's 1 TB / SD=1000 setup is scaled so that ECS·SD stays well below
// the snapshot size; EXPERIMENTS.md records the mapping.
type Scale struct {
	Name    string
	Dataset trace.Config
	// SD is the scaled stand-in for the paper's SD=1000; SDSweep for the
	// paper's {1000, 500, 250} of Fig 9.
	SD      int
	SDSweep []int
	// ECSList is the paper's ECS sweep (Figs 7–9); ECSListDAD adds 768 as
	// in Fig 10.
	ECSList    []int
	ECSListDAD []int
	// CacheManifests bounds the locality cache. It is deliberately scarce
	// relative to the number of manifests, as the paper's 1 TB trace was
	// relative to RAM — locality-dependent algorithms must feel misses.
	CacheManifests int
}

// QuickScale is a seconds-long configuration for tests and default benches.
func QuickScale() Scale {
	cfg := trace.Default()
	cfg.Machines = 4
	cfg.Days = 5
	cfg.SnapshotBytes = 2 << 20
	cfg.EditsPerDay = 16
	cfg.EditBytes = 16 << 10
	return Scale{
		Name:           "quick",
		Dataset:        cfg,
		SD:             32,
		SDSweep:        []int{32, 16, 8},
		ECSList:        []int{512, 1024, 2048, 4096, 8192},
		ECSListDAD:     []int{512, 768, 1024, 2048, 4096, 8192},
		CacheManifests: 4,
	}
}

// StandardScale is the full laptop-scale reproduction: 14 machines × 14
// days as in the paper, ~1.5 GiB of logical input.
func StandardScale() Scale {
	return Scale{
		Name:           "standard",
		Dataset:        trace.Default(),
		SD:             100,
		SDSweep:        []int{100, 50, 25},
		ECSList:        []int{512, 1024, 2048, 4096, 8192},
		ECSListDAD:     []int{512, 768, 1024, 2048, 4096, 8192},
		CacheManifests: 16,
	}
}
