package analysis

import (
	"testing"
	"testing/quick"
)

// typical returns a plausible workload: 1 TB at ECS=4 KiB with DER 4.
func typical() Inputs {
	return Inputs{
		F:  1_000_000,
		N:  67_000_000,  // ~256 GiB unique at 4 KiB
		D:  201_000_000, // 3× the unique volume duplicated
		L:  2_000_000,
		SD: 1000,
	}
}

func TestValidate(t *testing.T) {
	if err := typical().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := typical()
	bad.SD = 1
	if bad.Validate() == nil {
		t.Error("SD=1 accepted")
	}
	bad = typical()
	bad.N = -1
	if bad.Validate() == nil {
		t.Error("negative N accepted")
	}
}

func TestTableIPrintedSummariesConsistentWhereThePaperIs(t *testing.T) {
	// CDC and Bimodal printed summaries equal their component sums; the
	// paper's MHD and SubChunk summaries are internally inconsistent (see
	// package doc), which this test documents by checking exact deltas.
	in := typical()

	cdc := MetadataCDC(in)
	if cdc.ComponentSumBytes() != cdc.PaperSummaryBytes {
		t.Errorf("CDC: components %d != printed summary %d", cdc.ComponentSumBytes(), cdc.PaperSummaryBytes)
	}
	bim := MetadataBimodal(in)
	if bim.ComponentSumBytes() != bim.PaperSummaryBytes {
		t.Errorf("Bimodal: components %d != printed summary %d", bim.ComponentSumBytes(), bim.PaperSummaryBytes)
	}
	// SubChunk's printed summary is 4·N/SD lower than its component rows.
	sub := MetadataSubChunk(in)
	if diff := sub.ComponentSumBytes() - sub.PaperSummaryBytes; diff != 4*(in.N/in.SD) {
		t.Errorf("SubChunk: component-vs-printed delta = %d, expected 4·N/SD = %d", diff, 4*(in.N/in.SD))
	}
	// MHD's printed summary replaces 350·N/SD + 148·L with 424·N/SD.
	mhd := MetadataMHD(in)
	wantPrinted := 512*in.F + 424*(in.N/in.SD)
	if mhd.PaperSummaryBytes != wantPrinted {
		t.Errorf("MHD printed summary = %d, want %d", mhd.PaperSummaryBytes, wantPrinted)
	}
	wantComponents := 512*in.F + 350*(in.N/in.SD) + 148*in.L
	if mhd.ComponentSumBytes() != wantComponents {
		t.Errorf("MHD components = %d, want %d", mhd.ComponentSumBytes(), wantComponents)
	}
}

func TestTableIOrderingMHDWins(t *testing.T) {
	// The paper's headline: with SD high enough, MHD needs far less
	// metadata than every alternative.
	in := typical()
	mhd := MetadataMHD(in).ComponentSumBytes()
	for _, other := range []MetadataModel{MetadataSubChunk(in), MetadataBimodal(in), MetadataCDC(in)} {
		if mhd >= other.ComponentSumBytes() {
			t.Errorf("MHD metadata %d not below %s's %d", mhd, other.Algorithm, other.ComponentSumBytes())
		}
	}
}

func TestTableIMetadataShrinksWithSD(t *testing.T) {
	in := typical()
	in.SD = 100
	low := MetadataMHD(in).ComponentSumBytes()
	in.SD = 1000
	high := MetadataMHD(in).ComponentSumBytes()
	if high >= low {
		t.Errorf("MHD metadata should shrink as SD grows: SD=100 %d, SD=1000 %d", low, high)
	}
	// CDC is SD-independent.
	cdcA := MetadataCDC(Inputs{F: 1, N: 100, D: 0, L: 0, SD: 2})
	cdcB := MetadataCDC(Inputs{F: 1, N: 100, D: 0, L: 0, SD: 1000})
	if cdcA.ComponentSumBytes() != cdcB.ComponentSumBytes() {
		t.Error("CDC metadata must not depend on SD")
	}
}

func TestTableIIComponentSums(t *testing.T) {
	in := typical()
	// MHD's no-bloom printed summary equals its component sum.
	mhd := AccessesMHD(in)
	if mhd.ComponentSum() != mhd.PaperSummaryNoBloom {
		t.Errorf("MHD: components %d != printed no-bloom %d", mhd.ComponentSum(), mhd.PaperSummaryNoBloom)
	}
	cdc := AccessesCDC(in)
	if cdc.ComponentSum() != cdc.PaperSummaryNoBloom {
		t.Errorf("CDC: components %d != printed no-bloom %d", cdc.ComponentSum(), cdc.PaperSummaryNoBloom)
	}
	sub := AccessesSubChunk(in)
	if sub.ComponentSum() != sub.PaperSummaryNoBloom {
		t.Errorf("SubChunk: components %d != printed no-bloom %d", sub.ComponentSum(), sub.PaperSummaryNoBloom)
	}
}

func TestTableIIBloomOnlyHelps(t *testing.T) {
	in := typical()
	for _, a := range []AccessModel{AccessesMHD(in), AccessesSubChunk(in), AccessesBimodal(in), AccessesCDC(in)} {
		if a.PaperSummaryWithBloom > a.PaperSummaryNoBloom {
			t.Errorf("%s: bloom summary %d exceeds no-bloom %d", a.Algorithm, a.PaperSummaryWithBloom, a.PaperSummaryNoBloom)
		}
	}
}

func TestMHDBeatsAllCondition(t *testing.T) {
	in := typical()
	// 3L = 6M, D/SD = 201k → condition false here.
	if MHDBeatsAllOnAccesses(in) {
		t.Error("condition should be false for 3L >= D/SD")
	}
	in.L = 50_000 // 3L = 150k < 201k
	if !MHDBeatsAllOnAccesses(in) {
		t.Error("condition should hold for 3L < D/SD")
	}
	// And when it holds, MHD's with-bloom summary is indeed the lowest.
	mhd := AccessesMHD(in).PaperSummaryWithBloom
	for _, a := range []AccessModel{AccessesSubChunk(in), AccessesBimodal(in), AccessesCDC(in)} {
		if mhd >= a.PaperSummaryWithBloom {
			t.Errorf("MHD accesses %d not below %s's %d", mhd, a.Algorithm, a.PaperSummaryWithBloom)
		}
	}
}

func TestAccessesScaleMonotonically(t *testing.T) {
	f := func(n, l uint16) bool {
		in := Inputs{F: 10, N: int64(n) + 1, D: 100, L: int64(l), SD: 10}
		grown := in
		grown.N += 1000
		grown.L += 10
		for _, pair := range [][2]AccessModel{
			{AccessesMHD(in), AccessesMHD(grown)},
			{AccessesSubChunk(in), AccessesSubChunk(grown)},
			{AccessesBimodal(in), AccessesBimodal(grown)},
			{AccessesCDC(in), AccessesCDC(grown)},
		} {
			if pair[1].ComponentSum() < pair[0].ComponentSum() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestZeroDuplicationDegeneratesGracefully(t *testing.T) {
	in := Inputs{F: 5, N: 1000, D: 0, L: 0, SD: 10}
	for _, m := range []MetadataModel{MetadataMHD(in), MetadataSubChunk(in), MetadataBimodal(in), MetadataCDC(in)} {
		if m.ComponentSumBytes() <= 0 {
			t.Errorf("%s: non-positive metadata for valid workload", m.Algorithm)
		}
	}
	// With no duplication, Bimodal == CDC structure apart from chunk
	// granularity: hooks N/SD vs N.
	if MetadataBimodal(in).InodesHooks != in.N/in.SD {
		t.Error("Bimodal hooks without duplication should be N/SD")
	}
}
