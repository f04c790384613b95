package exp

import (
	"fmt"
	"io"
	"sort"

	"mhdedup/internal/analysis"
	"mhdedup/internal/metrics"
	"mhdedup/internal/simdisk"
	"mhdedup/internal/store"
	"mhdedup/internal/trace"
)

// inputsFrom derives the analysis-model inputs (§IV's F, N, D, L, SD) from
// a measured MHD run: MHD classifies at ECS granularity, so its counters
// are the reference values the models are evaluated at.
func inputsFrom(rec Record) analysis.Inputs {
	return analysis.Inputs{
		F:  rec.Report.Files,
		N:  rec.Report.NonDupChunks,
		D:  rec.Report.DupChunks,
		L:  rec.Report.DupSlices,
		SD: int64(rec.SD),
	}
}

// Table1 regenerates the paper's Table I: the closed-form metadata-size
// models evaluated at the workload's measured parameters, next to each
// algorithm's measured metadata, so the model's ordering can be checked
// against reality.
func (s *Suite) Table1(ecs int) (string, error) {
	ref, err := s.run(AlgoMHD, ecs, s.Scale.SD)
	if err != nil {
		return "", err
	}
	in := inputsFrom(ref)
	models := []analysis.MetadataModel{
		analysis.MetadataMHD(in),
		analysis.MetadataSubChunk(in),
		analysis.MetadataBimodal(in),
		analysis.MetadataCDC(in),
	}
	measured := map[string]metrics.Report{}
	for _, a := range AllAlgorithms {
		rec, err := s.run(a, ecs, s.Scale.SD)
		if err != nil {
			return "", err
		}
		measured[a] = rec.Report
	}
	nameMap := map[string]string{"MHD": AlgoMHD, "SubChunk": AlgoSubChunk, "Bimodal": AlgoBimodal, "CDC": AlgoCDC}

	header := []string{"algorithm", "model inodes", "model bytes", "paper summary", "measured inodes", "measured meta bytes"}
	var rows [][]string
	for _, m := range models {
		rep := measured[nameMap[m.Algorithm]]
		rows = append(rows, []string{
			m.Algorithm,
			fmt.Sprintf("%d", m.Inodes()),
			fmt.Sprintf("%d", m.ComponentSumBytes()),
			fmt.Sprintf("%d", m.PaperSummaryBytes),
			fmt.Sprintf("%d", rep.InodeCount()),
			fmt.Sprintf("%d", rep.MetadataBytes),
		})
	}
	title := fmt.Sprintf("Table I: metadata size, model vs measured (ECS=%d, SD=%d; F=%d N=%d D=%d L=%d)",
		ecs, s.Scale.SD, in.F, in.N, in.D, in.L)
	return table(title, header, rows), nil
}

// Table2 regenerates the paper's Table II: the disk-access models next to
// each algorithm's measured disk access counts.
func (s *Suite) Table2(ecs int) (string, error) {
	ref, err := s.run(AlgoMHD, ecs, s.Scale.SD)
	if err != nil {
		return "", err
	}
	in := inputsFrom(ref)
	models := map[string]analysis.AccessModel{
		AlgoMHD:      analysis.AccessesMHD(in),
		AlgoSubChunk: analysis.AccessesSubChunk(in),
		AlgoBimodal:  analysis.AccessesBimodal(in),
		AlgoCDC:      analysis.AccessesCDC(in),
	}
	header := []string{"algorithm", "model no-bloom", "model with-bloom", "measured accesses", "measured manifest loads"}
	var rows [][]string
	for _, a := range []string{AlgoMHD, AlgoSubChunk, AlgoBimodal, AlgoCDC} {
		rec, err := s.run(a, ecs, s.Scale.SD)
		if err != nil {
			return "", err
		}
		m := models[a]
		rows = append(rows, []string{
			a,
			fmt.Sprintf("%d", m.PaperSummaryNoBloom),
			fmt.Sprintf("%d", m.PaperSummaryWithBloom),
			fmt.Sprintf("%d", rec.Report.Disk.Accesses()),
			fmt.Sprintf("%d", rec.Report.ManifestLoads),
		})
	}
	title := fmt.Sprintf("Table II: disk accesses, model vs measured (ECS=%d, SD=%d)", ecs, s.Scale.SD)
	return table(title, header, rows), nil
}

// Table3 regenerates the paper's Table III: RAM used for the sparse index
// in SparseIndexing across the ECS sweep.
func (s *Suite) Table3() (string, error) {
	header := []string{"ECS (bytes)", "sparse index RAM (KiB)", "RAM / input"}
	var rows [][]string
	for _, ecs := range s.Scale.ECSList {
		if ecs == 512 {
			continue // the paper's Table III starts at 1024
		}
		rec, err := s.run(AlgoSparse, ecs, s.Scale.SD)
		if err != nil {
			return "", err
		}
		ram := rec.Report.RAMBytes
		rows = append(rows, []string{
			fmt.Sprintf("%d", ecs),
			fmt.Sprintf("%d", ram/1024),
			fmt.Sprintf("%.5f%%", float64(ram)/float64(rec.Report.InputBytes)*100),
		})
	}
	title := fmt.Sprintf("Table III: RAM for sparse index (SD=%d)", s.Scale.SD)
	return table(title, header, rows), nil
}

// Table4 regenerates the paper's Table IV: bytes for all Hooks and
// Manifests in BF-MHD over the SD × ECS grid.
func (s *Suite) Table4() (string, error) {
	return s.mhdGrid("Table IV: Hook+Manifest bytes in BF-MHD (KiB)", func(r metrics.Report) int64 {
		return (r.HookBytes + r.ManifestBytes) / 1024
	})
}

// Table5 regenerates the paper's Table V: disk accesses for manifest
// loading in BF-MHD over the SD × ECS grid.
func (s *Suite) Table5() (string, error) {
	return s.mhdGrid("Table V: manifest-loading disk accesses in BF-MHD", func(r metrics.Report) int64 {
		return r.ManifestLoads
	})
}

// mhdGrid tabulates cell of each BF-MHD run over the SD × ECS grid, which
// starts at ECS 1024 as the paper's does.
func (s *Suite) mhdGrid(title string, cell func(metrics.Report) int64) (string, error) {
	header, grid := []string{"SD \\ ECS"}, []int(nil)
	for _, ecs := range s.Scale.ECSList {
		if ecs != 512 {
			header, grid = append(header, fmt.Sprintf("%d", ecs)), append(grid, ecs)
		}
	}
	var rows [][]string
	for _, sd := range s.Scale.SDSweep {
		row := []string{fmt.Sprintf("%d", sd)}
		for _, ecs := range grid {
			rec, err := s.run(AlgoMHD, ecs, sd)
			if err != nil {
				return "", err
			}
			row = append(row, fmt.Sprintf("%d", cell(rec.Report)))
		}
		rows = append(rows, row)
	}
	return table(title, header, rows), nil
}

// Ablations runs the design-choice ablations DESIGN.md calls out, at one
// representative configuration, and renders the comparison.
func (s *Suite) Ablations(ecs int) (string, error) {
	type variant struct {
		name string
		mut  func(*Params)
	}
	variants := []variant{
		{"baseline (all on)", func(p *Params) {}},
		{"bloom off", func(p *Params) { p.DisableBloom = true }},
		{"byte-compare off", func(p *Params) { p.DisableByteCompare = true }},
		{"edgehash off", func(p *Params) { p.DisableEdgeHash = true }},
		{"per-slice SHM", func(p *Params) { p.SHMPerSlice = true }},
		{"TTTD chunker", func(p *Params) { p.TTTD = true }},
		{"FastCDC chunker", func(p *Params) { p.FastCDC = true }},
		{"sparse index (SI-MHD)", func(p *Params) { p.Algo = AlgoSIMHD }},
	}
	header := []string{"variant", "real DER", "MetaDataRatio%", "disk accesses", "HHR accesses", "ThroughputRatio"}
	var rows [][]string
	for _, v := range variants {
		p := s.params(AlgoMHD, ecs, s.Scale.SD)
		v.mut(&p)
		rec, err := Run(s.DS, p)
		if err != nil {
			return "", err
		}
		rows = append(rows, []string{
			v.name,
			fmt.Sprintf("%.3f", rec.Report.RealDER()),
			fmt.Sprintf("%.4f", rec.Report.MetaDataRatio()*100),
			fmt.Sprintf("%d", rec.Report.Disk.Accesses()),
			fmt.Sprintf("%d", rec.Report.HHRDiskAccesses),
			fmt.Sprintf("%.3f", rec.ThroughputRatio()),
		})
	}
	title := fmt.Sprintf("MHD ablations (ECS=%d, SD=%d)", ecs, s.Scale.SD)
	return table(title, header, rows), nil
}

// Summary renders the headline comparison across all nine algorithms at one
// configuration.
func (s *Suite) Summary(ecs int) (string, error) {
	header := []string{"algorithm", "data DER", "real DER", "MetaDataRatio%", "inodes/MB", "ThroughputRatio", "RAM (KiB)"}
	var rows [][]string
	for _, a := range AllAlgorithms {
		rec, err := s.run(a, ecs, s.Scale.SD)
		if err != nil {
			return "", err
		}
		rows = append(rows, []string{
			a,
			fmt.Sprintf("%.3f", rec.Report.DataOnlyDER()),
			fmt.Sprintf("%.3f", rec.Report.RealDER()),
			fmt.Sprintf("%.4f", rec.Report.MetaDataRatio()*100),
			fmt.Sprintf("%.3f", rec.Report.InodesPerMB()),
			fmt.Sprintf("%.3f", rec.ThroughputRatio()),
			fmt.Sprintf("%d", rec.Report.RAMBytes/1024),
		})
	}
	title := fmt.Sprintf("Summary (ECS=%d, SD=%d, input=%d MiB)", ecs, s.Scale.SD, s.DS.TotalBytes()>>20)
	return table(title, header, rows), nil
}

// RecipeCompression measures, per algorithm, the effect of Meister et
// al.'s post-process recipe compression (the related work §II cites) on
// the stored FileManifest bytes. Each algorithm is run once at the given
// configuration and its actual on-disk recipes are compressed.
func (s *Suite) RecipeCompression(ecs int) (string, error) {
	header := []string{"algorithm", "recipes", "plain bytes", "compressed", "ratio"}
	var rows [][]string
	for _, a := range Algorithms {
		eng, err := Build(s.params(a, ecs, s.Scale.SD))
		if err != nil {
			return "", err
		}
		if err := s.DS.EachFile(func(info trace.FileInfo, r io.Reader) error {
			return eng.PutFile(info.Name, r)
		}); err != nil {
			return "", err
		}
		if err := eng.Finish(); err != nil {
			return "", err
		}
		disk := eng.Disk()
		var plain, compressed int64
		names := disk.Names(simdisk.FileManifest)
		// Names returns map order; sort so the per-file walk (and the
		// disk-read sequence it charges) is reproducible run to run.
		sort.Strings(names)
		for _, name := range names {
			raw, err := disk.Read(simdisk.FileManifest, name)
			if err != nil {
				return "", err
			}
			fm, err := store.MaterializeFileManifest(disk, name, raw)
			if err != nil {
				return "", err
			}
			plain += int64(len(raw))
			compressed += int64(len(store.CompressRecipe(fm)))
		}
		ratio := 0.0
		if compressed > 0 {
			ratio = float64(plain) / float64(compressed)
		}
		rows = append(rows, []string{
			a,
			fmt.Sprintf("%d", len(names)),
			fmt.Sprintf("%d", plain),
			fmt.Sprintf("%d", compressed),
			fmt.Sprintf("%.2f", ratio),
		})
	}
	title := fmt.Sprintf("Recipe compression (Meister et al.), ECS=%d, SD=%d", ecs, s.Scale.SD)
	return table(title, header, rows), nil
}
