// Package exp is the experiment harness: it builds any of the nine
// deduplicators from a uniform parameter set, runs them over synthetic
// disk-image workloads, and regenerates every figure and table of the
// paper's evaluation section (§V).
package exp

import (
	"cmp"
	"fmt"
	"io"

	"mhdedup/internal/algo"
	"mhdedup/internal/baseline"
	"mhdedup/internal/core"
	"mhdedup/internal/metrics"
	"mhdedup/internal/rabin"
	"mhdedup/internal/simdisk"
	"mhdedup/internal/store"
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
	// format is the manifest format the engine writes.
	format store.Format
	// mount returns the engine over disk, cut by the options and the
	// store's polynomial, with its detection state rebuilt from whatever
	// the disk already holds. A new engine is a mount of an empty disk,
	// where there is none.
	mount func(algo.Options, rabin.Poly, *simdisk.Disk) (algo.Deduplicator, error)
	// resumable says mount can rebuild the detection state of a non-empty
	// disk: it lives on disk (hooks, manifests), not only in RAM.
	resumable bool
}

// engines is the one table every engine is built from — by Build, by Resume
// (so by all of package dedup) and by the tests' matrices. Adding an
// algorithm is its file plus its row here. The order is AllAlgorithms'.
var engines = []engine{
	{name: AlgoMHD, format: store.FormatMHD, mount: mountMHD(false), resumable: true},
	{name: AlgoSIMHD, format: store.FormatMHD, mount: mountMHD(true), resumable: true},
	{name: AlgoCDC, format: store.FormatBasic, mount: mountBaseline(baseline.NewCDC), resumable: true},
	{name: AlgoBimodal, format: store.FormatBasic, mount: mountBaseline(baseline.NewBimodal)},
	{name: AlgoSubChunk, format: store.FormatMultiContainer, mount: mountBaseline(baseline.NewSubChunk)},
	{name: AlgoSparse, format: store.FormatMultiContainer, mount: mountBaseline(baseline.NewSparse)},
	{name: AlgoFBC, format: store.FormatBasic, mount: mountBaseline(baseline.NewFBC)},
	{name: AlgoFingerdiff, format: store.FormatBasic, mount: mountBaseline(baseline.NewFingerdiff)},
	{name: AlgoExtremeBinning, format: store.FormatMultiContainer, mount: mountBaseline(baseline.NewExtremeBinning)},
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
	algo.Options
}

// mountMHD is the table's mount for MHD and, with sparseIndex, SI-MHD.
func mountMHD(sparseIndex bool) func(algo.Options, rabin.Poly, *simdisk.Disk) (algo.Deduplicator, error) {
	return func(o algo.Options, poly rabin.Poly, disk *simdisk.Disk) (algo.Deduplicator, error) {
		d, err := core.NewOnDisk(core.Config{Options: o, Poly: poly, SparseIndex: sparseIndex}, disk)
		if err != nil {
			return nil, err
		}
		return d, nil
	}
}

// mountBaseline is the table's mount for an internal/baseline engine.
func mountBaseline[E algo.Deduplicator](mk func(baseline.Config, *simdisk.Disk) (E, error)) func(algo.Options, rabin.Poly, *simdisk.Disk) (algo.Deduplicator, error) {
	return func(o algo.Options, poly rabin.Poly, disk *simdisk.Disk) (algo.Deduplicator, error) {
		d, err := mk(baseline.Config{Options: o, Poly: poly}, disk)
		if err != nil {
			return nil, err
		}
		return d, nil
	}
}

// row finds p's row of the table; a zero Algo is the default contract's.
func row(p Params) (engine, error) {
	for _, e := range engines {
		if e.name == p.Algo || p.Algo == "" && e.name == store.DefaultContract.Algorithm {
			return e, nil
		}
	}
	return engine{}, fmt.Errorf("exp: unknown algorithm %q", p.Algo)
}

// Build constructs the deduplicator p describes over a fresh simulated disk.
func Build(p Params) (algo.Deduplicator, error) { return mount(p, simdisk.New(), false) }

// Resume constructs the deduplicator p describes over an existing
// deduplicated disk, cut as it records (store.ContractOf): a zero Algo or
// ECS and neither TTTD nor FastCDC adopt the record, a set one that differs
// is refused by name. Engines whose detection state lives only in RAM are
// refused.
func Resume(p Params, disk *simdisk.Disk) (algo.Deduplicator, error) { return mount(p, disk, true) }

// mount is Build and Resume: it mounts p's row over disk under the cut
// contract disk records, stamping a new store with the one p describes.
func mount(p Params, disk *simdisk.Disk, resume bool) (algo.Deduplicator, error) {
	c, recorded := store.ContractOf(disk)
	if recorded || disk.TotalObjects() > 0 {
		switch {
		case p.Algo != "" && p.Algo != c.Algorithm:
			return nil, fmt.Errorf("exp: the store records algorithm %s, not %s", c.Algorithm, p.Algo)
		case p.ECS != 0 && p.ECS != c.ECS:
			return nil, fmt.Errorf("exp: the store records ECS %d, not %d", c.ECS, p.ECS)
		case (p.TTTD || p.FastCDC) && (p.TTTD != c.TTTD || p.FastCDC != c.FastCDC):
			return nil, fmt.Errorf("exp: the store records TTTD %v and FastCDC %v", c.TTTD, c.FastCDC)
		}
		p.Algo, p.ECS, p.TTTD, p.FastCDC = c.Algorithm, c.ECS, c.TTTD, c.FastCDC
	}
	e, err := row(p)
	if err != nil {
		return nil, err
	}
	if resume && !e.resumable {
		return nil, fmt.Errorf("exp: resume is not supported for %q (its detection state is not reconstructible from disk)", p.Algo)
	}
	if !recorded {
		p.ECS = cmp.Or(p.ECS, c.ECS)
		c = store.Contract{Algorithm: e.name, Format: e.format, TTTD: p.TTTD, FastCDC: p.FastCDC, ECS: p.ECS}
	}
	d, err := e.mount(p.Options, rabin.Poly(c.Poly), disk)
	if err != nil {
		return nil, err
	}
	c.Stamp(disk)
	return d, nil
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
			rec, err := Run(ds, Params{Algo: a, Options: algo.Options{ECS: ecs, SD: sd}})
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
