package exp

import (
	"fmt"
	"sort"
	"strings"
	"text/tabwriter"

	"mhdedup/internal/algo"
	"mhdedup/internal/trace"
)

// Suite owns one dataset at one scale and regenerates the paper's figures
// and tables from it. Runs are cached by (algo, ECS, SD) so figures sharing
// a sweep do not recompute it.
type Suite struct {
	Scale Scale
	DS    *trace.Dataset
	cache map[string]Record
}

// NewSuite builds the dataset for the given scale.
func NewSuite(scale Scale) (*Suite, error) {
	ds, err := trace.New(scale.Dataset)
	if err != nil {
		return nil, err
	}
	return &Suite{Scale: scale, DS: ds, cache: make(map[string]Record)}, nil
}

// run returns the cached or freshly computed record for one configuration.
func (s *Suite) run(algoName string, ecs, sd int) (Record, error) {
	key := fmt.Sprintf("%s/%d/%d", algoName, ecs, sd)
	if rec, ok := s.cache[key]; ok {
		return rec, nil
	}
	rec, err := Run(s.DS, s.params(algoName, ecs, sd))
	if err != nil {
		return Record{}, fmt.Errorf("exp: %s: %w", key, err)
	}
	s.cache[key] = rec
	return rec, nil
}

// params configures one run of the suite: the scale's manifest cache (zero
// is the engine default), the bloom filter sized for the whole dataset.
func (s *Suite) params(algoName string, ecs, sd int) Params {
	return Params{Algo: algoName, Options: algo.Options{ECS: ecs, SD: sd,
		ExpectedInputBytes: s.DS.TotalBytes(), CacheManifests: s.Scale.CacheManifests}}
}

// sweep returns records for every algorithm at every ECS of the scale's
// list, at the scale's SD.
func (s *Suite) sweep() ([]Record, error) {
	var out []Record
	for _, ecs := range s.Scale.ECSList {
		for _, a := range Algorithms {
			rec, err := s.run(a, ecs, s.Scale.SD)
			if err != nil {
				return nil, err
			}
			out = append(out, rec)
		}
	}
	return out, nil
}

// table renders rows with a header through a tabwriter.
func table(title string, header []string, rows [][]string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, strings.Join(header, "\t"))
	for _, r := range rows {
		fmt.Fprintln(w, strings.Join(r, "\t"))
	}
	w.Flush()
	return b.String()
}

// byAlgoECS organizes records for figure rendering.
func byAlgoECS(recs []Record) (algos []string, ecs []int, idx map[string]map[int]Record) {
	idx = make(map[string]map[int]Record)
	seenE := map[int]bool{}
	for _, r := range recs {
		if idx[r.Algo] == nil {
			idx[r.Algo] = make(map[int]Record)
			algos = append(algos, r.Algo)
		}
		idx[r.Algo][r.ECS] = r
		if !seenE[r.ECS] {
			seenE[r.ECS] = true
			ecs = append(ecs, r.ECS)
		}
	}
	sort.Ints(ecs)
	return algos, ecs, idx
}

// Fig7 regenerates the four metadata-comparison panels: inodes per MB,
// Manifest+Hook MetaDataRatio, FileManifest MetaDataRatio and total
// MetaDataRatio, each versus ECS (paper Fig 7, SD=1000 scaled to the
// suite's SD).
func (s *Suite) Fig7() (string, []Record, error) {
	recs, err := s.sweep()
	if err != nil {
		return "", nil, err
	}
	algos, ecsList, idx := byAlgoECS(recs)
	var b strings.Builder
	panels := []struct {
		title string
		get   func(Record) float64
		unit  string
	}{
		{"Fig 7(a): inodes per MB vs ECS", func(r Record) float64 { return r.Report.InodesPerMB() }, "%.3f"},
		{"Fig 7(b): Manifest+Hook MetaDataRatio vs ECS", func(r Record) float64 { return r.Report.ManifestMetaRatio() }, "%.3e"},
		{"Fig 7(c): FileManifest MetaDataRatio vs ECS", func(r Record) float64 { return r.Report.FileManifestMetaRatio() }, "%.3e"},
		{"Fig 7(d): total MetaDataRatio vs ECS", func(r Record) float64 { return r.Report.MetaDataRatio() }, "%.3e"},
	}
	for _, p := range panels {
		header := []string{"ECS"}
		header = append(header, algos...)
		var rows [][]string
		for _, e := range ecsList {
			row := []string{fmt.Sprintf("%d", e)}
			for _, a := range algos {
				row = append(row, fmt.Sprintf(p.unit, p.get(idx[a][e])))
			}
			rows = append(rows, row)
		}
		b.WriteString(table(p.title, header, rows))
		b.WriteString("\n")
	}
	return b.String(), recs, nil
}

// Fig8 regenerates the four trade-off panels: data-only and real DER versus
// MetaDataRatio and versus ThroughputRatio (paper Fig 8). Each algorithm's
// ECS sweep traces its curve.
func (s *Suite) Fig8() (string, []Record, error) {
	recs, err := s.sweep()
	if err != nil {
		return "", nil, err
	}
	var b strings.Builder
	header := []string{"algo", "ECS", "MetaDataRatio%", "ThroughputRatio", "data-only DER", "real DER"}
	var rows [][]string
	for _, r := range recs {
		rows = append(rows, []string{
			r.Algo,
			fmt.Sprintf("%d", r.ECS),
			fmt.Sprintf("%.4f", r.Report.MetaDataRatio()*100),
			fmt.Sprintf("%.3f", r.ThroughputRatio()),
			fmt.Sprintf("%.3f", r.Report.DataOnlyDER()),
			fmt.Sprintf("%.3f", r.Report.RealDER()),
		})
	}
	b.WriteString(table("Fig 8: DER vs metadata and throughput trade-offs", header, rows))
	return b.String(), recs, nil
}

// Fig9 regenerates the SD sweep for BF-MHD: real DER versus MetaDataRatio
// and ThroughputRatio at the scale's three SD values (paper Fig 9:
// SD = 1000, 500, 250).
func (s *Suite) Fig9() (string, []Record, error) {
	var recs []Record
	var rows [][]string
	for _, sd := range s.Scale.SDSweep {
		for _, ecs := range s.Scale.ECSList {
			rec, err := s.run(AlgoMHD, ecs, sd)
			if err != nil {
				return "", nil, err
			}
			recs = append(recs, rec)
			rows = append(rows, []string{
				fmt.Sprintf("%d", sd),
				fmt.Sprintf("%d", ecs),
				fmt.Sprintf("%.4f", rec.Report.MetaDataRatio()*100),
				fmt.Sprintf("%.3f", rec.ThroughputRatio()),
				fmt.Sprintf("%.3f", rec.Report.RealDER()),
			})
		}
	}
	header := []string{"SD", "ECS", "MetaDataRatio%", "ThroughputRatio", "real DER"}
	return table("Fig 9: BF-MHD real DER trade-offs at different SD", header, rows), recs, nil
}

// Fig10 regenerates the dataset-characteristic panels: DAD versus ECS and
// the HHR disk-access cost versus the number of detected duplicate slices
// (paper Fig 10).
func (s *Suite) Fig10() (string, []Record, error) {
	var recs []Record
	var rows [][]string
	for _, ecs := range s.Scale.ECSListDAD {
		rec, err := s.run(AlgoMHD, ecs, s.Scale.SD)
		if err != nil {
			return "", nil, err
		}
		recs = append(recs, rec)
		rows = append(rows, []string{
			fmt.Sprintf("%d", ecs),
			fmt.Sprintf("%.1f", rec.Report.DAD()/1024),
			fmt.Sprintf("%d", rec.Report.HHRDiskAccesses),
			fmt.Sprintf("%d", rec.Report.DupSlices),
			fmt.Sprintf("%.4f", safeRatio(float64(rec.Report.HHRDiskAccesses), float64(rec.Report.DupSlices))),
		})
	}
	header := []string{"ECS", "DAD (KiB)", "HHR disk accesses", "dup slices L", "HHR/L"}
	return table("Fig 10: DAD and HHR cost vs ECS (HHR accesses stay well below 3L)", header, rows), recs, nil
}

func safeRatio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
