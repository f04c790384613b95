package exp

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"mhdedup/internal/algo"
	"mhdedup/internal/metrics"
	"mhdedup/internal/simdisk"
	"mhdedup/internal/store"
)

// quickSuite builds one shared suite for the package's tests.
var sharedSuite *Suite

func suite(t *testing.T) *Suite {
	t.Helper()
	if testing.Short() {
		t.Skip("experiment suite is slow")
	}
	if sharedSuite == nil {
		s, err := NewSuite(QuickScale())
		if err != nil {
			t.Fatal(err)
		}
		sharedSuite = s
	}
	return sharedSuite
}

func TestBuildAllAlgorithms(t *testing.T) {
	if len(AllAlgorithms) != len(engines) {
		t.Fatalf("AllAlgorithms has %d names for %d table rows", len(AllAlgorithms), len(engines))
	}
	base := make([]byte, 200_000)
	rand.New(rand.NewSource(7)).Read(base)
	edited := append([]byte(nil), base...)
	copy(edited[90_000:], base[:6_000])
	for _, e := range engines {
		p := Params{Algo: e.name, Options: algo.Options{ECS: 1024, SD: 8, ExpectedInputBytes: 1 << 20}}
		built, err := Build(p)
		if err != nil {
			t.Errorf("Build(%s): %v", e.name, err)
			continue
		}
		// A new engine is a mount of an empty disk under the contract it
		// stamps: same input, same Report.
		want := store.Contract{Algorithm: e.name, Format: e.format, ECS: p.ECS}
		if c, ok := store.ContractOf(built.Disk()); !ok || c != want {
			t.Errorf("Build(%s) stamped %+v, %v; want %+v", e.name, c, ok, want)
		}
		mounted, err := e.mount(p.Options, 0, simdisk.New())
		if err != nil {
			t.Fatalf("%s: mount on an empty disk: %v", e.name, err)
		}
		var reports [2]metrics.Report
		for i, d := range []algo.Deduplicator{built, mounted} {
			for j, content := range [][]byte{base, edited} {
				if err := d.PutFile(fmt.Sprint("gen", j), bytes.NewReader(content)); err != nil {
					t.Fatalf("%s: PutFile: %v", e.name, err)
				}
			}
			if err := d.Finish(); err != nil {
				t.Fatalf("%s: %v", e.name, err)
			}
			reports[i] = d.Report()
		}
		if !reflect.DeepEqual(reports[0], reports[1]) {
			t.Errorf("%s: built and mounted-on-empty-disk engines report differently:\n%+v\n%+v",
				e.name, reports[0], reports[1])
		}
		// The recorded format is the one the engine writes: every manifest
		// decodes under it.
		if probs := store.Check(built.Disk(), want.Format).Problems; len(probs) > 0 {
			t.Errorf("%s: the store does not check under its recorded format: %v", e.name, probs)
		}

		// The row's capability is refused exactly where it says so.
		if _, err := Resume(p, simdisk.New()); (err == nil) != e.resumable {
			t.Errorf("Resume(%s): err = %v, row says resumable = %v", e.name, err, e.resumable)
		}
	}
	if _, err := Build(Params{Algo: "nope"}); err == nil {
		t.Error("unknown algorithm accepted")
	}
	if _, err := Resume(Params{Algo: "nope"}, simdisk.New()); err == nil {
		t.Error("unknown algorithm resumed")
	}
}

func TestFig7ShapesMatchPaper(t *testing.T) {
	s := suite(t)
	text, recs, err := s.Fig7()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "Fig 7(d)") {
		t.Error("missing panel (d)")
	}
	_, ecsList, idx := byAlgoECS(recs)

	for _, ecs := range ecsList {
		mhd := idx[AlgoMHD][ecs].Report
		bim := idx[AlgoBimodal][ecs].Report
		sub := idx[AlgoSubChunk][ecs].Report
		spa := idx[AlgoSparse][ecs].Report

		// Paper Fig 7(d): BF-MHD needs the least total metadata.
		for name, other := range map[string]float64{
			"bimodal":  bim.MetaDataRatio(),
			"subchunk": sub.MetaDataRatio(),
			"sparse":   spa.MetaDataRatio(),
		} {
			if mhd.MetaDataRatio() >= other {
				t.Errorf("ECS=%d: MHD metadata ratio %.5f not below %s's %.5f",
					ecs, mhd.MetaDataRatio(), name, other)
			}
		}
		// Paper Fig 7(b): SparseIndexing produces the most manifest+hook
		// bytes (hashes recorded multiple times).
		if spa.ManifestMetaRatio() <= mhd.ManifestMetaRatio() {
			t.Errorf("ECS=%d: sparse manifest ratio %.6f not above MHD's %.6f",
				ecs, spa.ManifestMetaRatio(), mhd.ManifestMetaRatio())
		}
	}
	// Metadata shrinks as ECS grows, for every algorithm (Fig 7 slopes).
	for algoName, series := range idx {
		first := series[ecsList[0]].Report.MetaDataRatio()
		last := series[ecsList[len(ecsList)-1]].Report.MetaDataRatio()
		if last >= first {
			t.Errorf("%s: metadata ratio did not fall from ECS=%d (%.5f) to ECS=%d (%.5f)",
				algoName, ecsList[0], first, ecsList[len(ecsList)-1], last)
		}
	}
}

func TestFig8MHDFrontier(t *testing.T) {
	s := suite(t)
	_, recs, err := s.Fig8()
	if err != nil {
		t.Fatal(err)
	}
	_, ecsList, idx := byAlgoECS(recs)
	// Paper Fig 8(b): BF-MHD achieves the best real DER overall.
	var bestMHD, bestOther float64
	var bestOtherAlgo string
	for _, ecs := range ecsList {
		for a, series := range idx {
			der := series[ecs].Report.RealDER()
			if a == AlgoMHD {
				if der > bestMHD {
					bestMHD = der
				}
			} else if der > bestOther {
				bestOther = der
				bestOtherAlgo = a
			}
		}
	}
	if bestMHD <= bestOther {
		t.Errorf("best real DER: MHD %.3f vs %s %.3f — paper has MHD winning", bestMHD, bestOtherAlgo, bestOther)
	}
}

func TestFig9SmallerSDBetterRealDER(t *testing.T) {
	s := suite(t)
	_, recs, err := s.Fig9()
	if err != nil {
		t.Fatal(err)
	}
	// Paper Fig 9(a): at a given ECS, smaller SD gives at least as good a
	// real DER (metadata growth is slow, duplicate detection faster).
	byKey := map[[2]int]float64{}
	for _, r := range recs {
		byKey[[2]int{r.SD, r.ECS}] = r.Report.RealDER()
	}
	sds := s.Scale.SDSweep // descending: {32, 16, 8}
	worse := 0
	for _, ecs := range s.Scale.ECSList {
		if byKey[[2]int{sds[len(sds)-1], ecs}] < byKey[[2]int{sds[0], ecs}] {
			worse++
		}
	}
	if worse > len(s.Scale.ECSList)/2 {
		t.Errorf("smaller SD degraded real DER at %d of %d ECS points", worse, len(s.Scale.ECSList))
	}
}

func TestFig10DADAndHHRBound(t *testing.T) {
	s := suite(t)
	_, recs, err := s.Fig10()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		rep := r.Report
		if rep.DupSlices == 0 {
			t.Fatalf("ECS=%d: no duplicate slices detected", r.ECS)
		}
		// Paper Fig 10(b): HHR's extra accesses stay well below the 3L
		// worst case. (The paper's trace measured ≪ L; our quick dataset
		// has only 5 generations to amortize recurring change sites over,
		// so we bound at 1.5·L here — TestHHRAmortization covers the
		// ≪ L mechanism directly, and the standard scale reproduces it.)
		if rep.HHRDiskAccesses > 3*rep.DupSlices {
			t.Errorf("ECS=%d: HHR accesses %d exceed worst case 3L=%d", r.ECS, rep.HHRDiskAccesses, 3*rep.DupSlices)
		}
		if rep.HHRDiskAccesses*2 > rep.DupSlices*3 {
			t.Errorf("ECS=%d: HHR accesses %d exceed 1.5·L (L=%d)", r.ECS, rep.HHRDiskAccesses, rep.DupSlices)
		}
	}
	// DAD grows with ECS (larger chunks merge adjacent duplicate runs).
	first, last := recs[0].Report.DAD(), recs[len(recs)-1].Report.DAD()
	if last <= first {
		t.Errorf("DAD did not grow with ECS: %.0f -> %.0f", first, last)
	}
}

func TestTablesRender(t *testing.T) {
	s := suite(t)
	ecs := 2048
	for name, fn := range map[string]func() (string, error){
		"Table1":  func() (string, error) { return s.Table1(ecs) },
		"Table2":  func() (string, error) { return s.Table2(ecs) },
		"Table3":  s.Table3,
		"Table4":  s.Table4,
		"Table5":  s.Table5,
		"Summary": func() (string, error) { return s.Summary(ecs) },
	} {
		text, err := fn()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(strings.Split(text, "\n")) < 3 {
			t.Errorf("%s: suspiciously short output:\n%s", name, text)
		}
	}
}

func TestAblationsRender(t *testing.T) {
	s := suite(t)
	text, err := s.Ablations(2048)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"baseline (all on)", "bloom off", "byte-compare off", "edgehash off"} {
		if !strings.Contains(text, want) {
			t.Errorf("ablation table missing %q", want)
		}
	}
}

func TestRecipeCompressionRenders(t *testing.T) {
	s := suite(t)
	text, err := s.RecipeCompression(2048)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "Recipe compression") || !strings.Contains(text, "mhd") {
		t.Errorf("unexpected output:\n%s", text)
	}
}
