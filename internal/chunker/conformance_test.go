package chunker

// The chunker conformance harness. The block-processed fast paths
// (FastRabin, FastGear) are only shippable because their cut points are
// bit-identical to the reference implementations (Rabin, FastCDC): MHD and
// SI-MHD re-chunking, every stored recipe, and the client↔dedupd negotiated
// chunker config all assume deterministic cuts. This file is the proof:
//
//   - TestChunkerParityMatrix: fast vs reference × random seeds ×
//     adversarial streams × Params corners × reader-fragmentation patterns
//     (including 1-byte reads) must produce byte-identical chunk sequences.
//   - TestChunkerParityErrorStreams: the same parity must hold for the
//     chunks emitted before a mid-stream read error, and for the error.
//   - TestFastRechunkingReproducesCuts / TestFastRechunkWholeChunkStable:
//     the reset-at-cut invariant Bimodal/SubChunk re-chunking relies on.
//   - TestGoldenCutVectors: checked-in cut-length vectors under testdata/
//     pin the absolute cut positions so a future refactor cannot silently
//     move a boundary even if it moves it identically in both paths.
//   - FuzzChunkerParity: the same differential oracle under fuzzing.

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/bits"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"testing/iotest"

	"mhdedup/internal/rabin"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_cuts.json from the reference chunkers")

// mkChunker builds one chunker implementation over a reader.
type mkChunker func(io.Reader, Params) (Chunker, error)

// parityPairs are the reference/fast twins the harness compares.
var parityPairs = []struct {
	name string
	ref  mkChunker
	fast mkChunker
}{
	{"rabin", func(r io.Reader, p Params) (Chunker, error) { return NewRabin(r, p) },
		func(r io.Reader, p Params) (Chunker, error) { return NewFastRabin(r, p) }},
	{"gear", func(r io.Reader, p Params) (Chunker, error) { return NewFastCDC(r, p) },
		func(r io.Reader, p Params) (Chunker, error) { return NewFastGear(r, p) }},
}

// paramsCorners is every Params shape the matrix exercises: defaults,
// explicit tight bounds, Min==WindowSize, Min==ECS, Max==ECS (every cut
// forced or at the forced boundary), tiny windows with Min below the
// 64-byte gear-hash warm-up, Min==1, a non-default polynomial, and the
// degenerate small-ECS clamp corner.
var paramsCorners = []Params{
	{ECS: 4096},
	{ECS: 512},
	{ECS: 8192},
	{ECS: 1024, Min: 256, Max: 1536},
	{ECS: 256, Min: 48, Max: 4096},
	{ECS: 512, Min: 512, Max: 2048},
	{ECS: 1024, Max: 1024},
	{ECS: 64, Min: 8, Max: 256, WindowSize: 8},
	{ECS: 32, Min: 1, Max: 128, WindowSize: 1},
	{ECS: 4096, Poly: 0x3DA3358B4DC175},
	{ECS: 4, Min: 1, Max: 16, WindowSize: 1},
}

// streamData generates one adversarial or random test stream. Beyond
// random bytes, the kinds are chosen to stress the cut logic: all-zero and
// all-0xFF never (or pathologically often) match divisors and force
// max-size cuts; periodic tiles repeat window contents exactly; counter and
// alternating patterns walk the gear table in lockstep; sparse mixes long
// zero runs into random data so chunks straddle both regimes.
func streamData(kind string, seed int64, n int) []byte {
	d := make([]byte, n)
	switch kind {
	case "random":
		rand.New(rand.NewSource(seed)).Read(d)
	case "zeros":
		// already zero
	case "ff":
		for i := range d {
			d[i] = 0xFF
		}
	case "periodic":
		tile := make([]byte, 64)
		rand.New(rand.NewSource(seed)).Read(tile)
		for i := range d {
			d[i] = tile[i%len(tile)]
		}
	case "counter":
		for i := range d {
			d[i] = byte(i)
		}
	case "alternating":
		for i := range d {
			if i%2 == 0 {
				d[i] = 0xFF
			}
		}
	case "sparse":
		rng := rand.New(rand.NewSource(seed))
		i := 0
		for i < n {
			run := rng.Intn(4096) + 1
			if run > n-i {
				run = n - i
			}
			if rng.Intn(2) == 0 {
				rng.Read(d[i : i+run])
			}
			i += run
		}
	default:
		panic("unknown stream kind " + kind)
	}
	return d
}

var streamKinds = []string{"random", "zeros", "ff", "periodic", "counter", "alternating", "sparse"}

// --- reader fragmentation patterns -----------------------------------------

// sizedReader serves at most max bytes per Read call.
type sizedReader struct {
	data []byte
	max  int
}

func (r *sizedReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, io.EOF
	}
	n := r.max
	if n > len(p) {
		n = len(p)
	}
	if n > len(r.data) {
		n = len(r.data)
	}
	copy(p, r.data[:n])
	r.data = r.data[n:]
	return n, nil
}

// eofWithDataReader returns the final bytes together with io.EOF in the
// same Read call — legal io.Reader behavior chunkers must handle.
type eofWithDataReader struct {
	data []byte
	max  int
}

func (r *eofWithDataReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, io.EOF
	}
	n := r.max
	if n > len(p) {
		n = len(p)
	}
	if n >= len(r.data) {
		n = len(r.data)
		copy(p, r.data[:n])
		r.data = nil
		return n, io.EOF
	}
	copy(p, r.data[:n])
	r.data = r.data[n:]
	return n, nil
}

// randSizeReader serves random-size reads, with occasional (0, nil) calls —
// also legal, and retried by the slab reader.
type randSizeReader struct {
	data []byte
	rng  *rand.Rand
}

func (r *randSizeReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, io.EOF
	}
	if r.rng.Intn(8) == 0 {
		return 0, nil
	}
	n := r.rng.Intn(8<<10) + 1
	if n > len(p) {
		n = len(p)
	}
	if n > len(r.data) {
		n = len(r.data)
	}
	copy(p, r.data[:n])
	r.data = r.data[n:]
	return n, nil
}

// fragmentations maps a pattern name to a reader over data. The fast paths
// scan whatever block the slab reader read, so every refill boundary is a
// potential off-by-one site; the patterns place boundaries everywhere —
// one-shot, 1-byte, prime strides, exactly and just past the 64 KiB bound
// on one Read, data+EOF in one call, and seeded random with zero-byte reads; and,
// since a block is also the unit FastRabin scans, 100 bytes (a one-lane
// block of more than a window), half of whatever room the slab has left
// (block lengths that shrink towards every buffer wrap) and just short of
// one Read. Whole, 4093-byte and 64 KiB ± 1 reads hand FastRabin
// blocks its 64-lane scan takes where the CPU has it (internal/rabin's
// TestChunkerCutsComeFromWideKernel shows that it does).
var fragmentations = []struct {
	name string
	mk   func(data []byte, seed int64) io.Reader
}{
	{"whole", func(d []byte, _ int64) io.Reader { return bytes.NewReader(d) }},
	{"1B", func(d []byte, _ int64) io.Reader { return &sizedReader{data: d, max: 1} }},
	{"7B", func(d []byte, _ int64) io.Reader { return &sizedReader{data: d, max: 7} }},
	{"4093B", func(d []byte, _ int64) io.Reader { return &sizedReader{data: d, max: 4093} }},
	{"64KiB", func(d []byte, _ int64) io.Reader { return &sizedReader{data: d, max: 64 << 10} }},
	{"64KiB+1", func(d []byte, _ int64) io.Reader { return &sizedReader{data: d, max: 64<<10 + 1} }},
	{"data+eof", func(d []byte, _ int64) io.Reader { return &eofWithDataReader{data: d, max: 1000} }},
	{"rand", func(d []byte, seed int64) io.Reader {
		return &randSizeReader{data: d, rng: rand.New(rand.NewSource(seed))}
	}},
	{"100B", func(d []byte, _ int64) io.Reader { return &sizedReader{data: d, max: 100} }},
	{"half", func(d []byte, _ int64) io.Reader { return iotest.HalfReader(bytes.NewReader(d)) }},
	{"64KiB-1", func(d []byte, _ int64) io.Reader { return &sizedReader{data: d, max: 64<<10 - 1} }},
}

// chunkAll drains c, returning the chunks and the terminal error (io.EOF
// normalized to nil).
func chunkAll(c Chunker) ([]Chunk, error) {
	var out []Chunk
	for {
		ch, err := c.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, ch)
	}
}

// assertSameChunks fails unless a and b are identical chunk sequences:
// same count, same offsets, same bytes.
func assertSameChunks(t *testing.T, label string, ref, fast []Chunk) {
	t.Helper()
	if len(ref) != len(fast) {
		t.Fatalf("%s: reference emitted %d chunks, fast %d", label, len(ref), len(fast))
	}
	for i := range ref {
		if ref[i].Off != fast[i].Off {
			t.Fatalf("%s: chunk %d offset %d (reference) vs %d (fast)", label, i, ref[i].Off, fast[i].Off)
		}
		if !bytes.Equal(ref[i].Data, fast[i].Data) {
			t.Fatalf("%s: chunk %d (off %d): %d bytes (reference) vs %d bytes (fast) or content differs",
				label, i, ref[i].Off, len(ref[i].Data), len(fast[i].Data))
		}
	}
}

// compareParity runs one reference/fast pair over the same data through the
// given fragmentation and demands identical chunk sequences and terminal
// errors.
func compareParity(t *testing.T, label string, ref, fast mkChunker, p Params,
	data []byte, mk func([]byte, int64) io.Reader, seed int64) {
	t.Helper()
	cr, err := ref(mk(append([]byte(nil), data...), seed), p)
	if err != nil {
		t.Fatalf("%s: reference constructor: %v", label, err)
	}
	cf, err := fast(mk(append([]byte(nil), data...), seed), p)
	if err != nil {
		t.Fatalf("%s: fast constructor: %v", label, err)
	}
	refChunks, refErr := chunkAll(cr)
	fastChunks, fastErr := chunkAll(cf)
	if (refErr == nil) != (fastErr == nil) || (refErr != nil && refErr.Error() != fastErr.Error()) {
		t.Fatalf("%s: terminal errors differ: %v (reference) vs %v (fast)", label, refErr, fastErr)
	}
	assertSameChunks(t, label, refChunks, fastChunks)
	if got := reassemble(fastChunks); refErr == nil && !bytes.Equal(got, data) {
		t.Fatalf("%s: fast chunks do not reassemble the input", label)
	}
}

// TestChunkerParityMatrix is the differential matrix: every reference/fast
// pair × every Params corner × adversarial streams × every fragmentation
// pattern × random seeds. Axis 1's streams are three reader blocks and a
// part of a fourth.
func TestChunkerParityMatrix(t *testing.T) {
	const n = 3*fillSize + 4093
	for _, pair := range parityPairs {
		// Axis 1: all Params corners × all fragmentations on random data
		// plus the two nastiest deterministic streams.
		for pi, p := range paramsCorners {
			for _, kind := range []string{"random", "zeros", "periodic"} {
				data := streamData(kind, int64(pi)*31+7, n)
				for _, frag := range fragmentations {
					label := fmt.Sprintf("%s/params%d/%s/%s", pair.name, pi, kind, frag.name)
					compareParity(t, label, pair.ref, pair.fast, p, data, frag.mk, int64(pi)+1)
				}
			}
		}
		// Axis 2: default params × every stream kind × several seeds and
		// lengths, including empty and the exact Min/Max edge lengths.
		pd, err := Params{ECS: 1024}.withDefaults()
		if err != nil {
			t.Fatal(err)
		}
		lengths := []int{0, 1, pd.Min - 1, pd.Min, pd.Min + 1, pd.Max, pd.Max + 1, 300_001}
		for _, kind := range streamKinds {
			for seed := int64(1); seed <= 3; seed++ {
				for _, l := range lengths {
					data := streamData(kind, seed*97, l)
					label := fmt.Sprintf("%s/%s/seed%d/len%d", pair.name, kind, seed, l)
					compareParity(t, label, pair.ref, pair.fast, Params{ECS: 1024}, data,
						fragmentations[7].mk, seed)
				}
			}
		}
	}
}

// TestChunkerParityErrorStreams extends parity to failing readers: the
// chunks emitted before the error, the final partial chunk, and the error
// itself must be identical between reference and fast paths, whether the
// reader returns data+error in one call or fails on a later call.
func TestChunkerParityErrorStreams(t *testing.T) {
	boom := errors.New("injected read failure")
	mkFail := func(d []byte, _ int64) io.Reader { return &failingReader{data: d, err: boom} }
	mkFailSameCall := func(d []byte, _ int64) io.Reader { return &dataAndErrReader{data: d, err: boom} }
	for _, pair := range parityPairs {
		for _, n := range []int{0, 1, 500, 5000, 70_000} {
			data := streamData("random", int64(n)+3, n)
			for name, mk := range map[string]func([]byte, int64) io.Reader{
				"later-call": mkFail, "same-call": mkFailSameCall,
			} {
				label := fmt.Sprintf("%s/%s/len%d", pair.name, name, n)
				compareParity(t, label, pair.ref, pair.fast, Params{ECS: 1024}, data, mk, 1)
			}
		}
	}
}

// TestFastRechunkingReproducesCuts pins the reset-at-cut invariant for the
// fast paths: small-chunking a big chunk in isolation reproduces exactly
// the cuts that small-chunking the stream from the big chunk's start
// produces — the property Bimodal/SubChunk re-chunking depends on.
func TestFastRechunkingReproducesCuts(t *testing.T) {
	data := streamData("random", 41, 1<<18)
	small := Params{ECS: 512}
	big := Params{ECS: 4096}
	for _, pair := range parityPairs {
		bigC, err := pair.fast(bytes.NewReader(data), big)
		if err != nil {
			t.Fatal(err)
		}
		bigChunks, err := chunkAll(bigC)
		if err != nil {
			t.Fatal(err)
		}
		for _, bc := range bigChunks[:3] {
			isoC, _ := pair.fast(bytes.NewReader(bc.Data), small)
			iso, _ := chunkAll(isoC)
			streamC, _ := pair.fast(bytes.NewReader(data[bc.Off:bc.Off+bc.Size()]), small)
			inStream, _ := chunkAll(streamC)
			assertSameChunks(t, pair.name+"/rechunk", inStream, iso)
		}
	}
}

// TestFastRechunkWholeChunkStable pins the stronger same-params form of
// the invariant: re-chunking any non-final emitted chunk in isolation with
// the same Params returns it whole — the hash state at a cut carries
// nothing from before the cut, so the first in-isolation cut is the
// chunk's own end.
func TestFastRechunkWholeChunkStable(t *testing.T) {
	data := streamData("random", 43, 1<<18)
	p := Params{ECS: 1024}
	for _, pair := range parityPairs {
		c, err := pair.fast(bytes.NewReader(data), p)
		if err != nil {
			t.Fatal(err)
		}
		chunks, err := chunkAll(c)
		if err != nil {
			t.Fatal(err)
		}
		for i, ch := range chunks[:len(chunks)-1] {
			iso, _ := pair.fast(bytes.NewReader(ch.Data), p)
			first, err := iso.Next()
			if err != nil {
				t.Fatalf("%s: chunk %d re-chunk: %v", pair.name, i, err)
			}
			if int64(len(first.Data)) != ch.Size() {
				t.Fatalf("%s: chunk %d (len %d) re-chunks to first cut at %d",
					pair.name, i, ch.Size(), len(first.Data))
			}
		}
	}
}

// --- golden cut vectors ----------------------------------------------------

// goldenCase is one checked-in cut-point vector: a deterministic stream
// spec plus the exact chunk lengths both implementations must produce.
type goldenCase struct {
	Name    string `json:"name"`
	Algo    string `json:"algo"` // "rabin" or "gear"
	ECS     int    `json:"ecs"`
	Min     int    `json:"min,omitempty"`
	Max     int    `json:"max,omitempty"`
	Window  int    `json:"window,omitempty"`
	Poly    uint64 `json:"poly,omitempty"`
	Stream  string `json:"stream"`
	Seed    int64  `json:"seed"`
	N       int    `json:"n"`
	CutLens []int  `json:"cut_lens"`
}

func (g goldenCase) params() Params {
	return Params{ECS: g.ECS, Min: g.Min, Max: g.Max, WindowSize: g.Window, Poly: rabin.Poly(g.Poly)}
}

// goldenSpecs enumerates the pinned configurations (CutLens filled by
// -update).
var goldenSpecs = []goldenCase{
	{Name: "rabin-default-random", Algo: "rabin", ECS: 4096, Stream: "random", Seed: 101, N: 1 << 20},
	{Name: "rabin-tight-random", Algo: "rabin", ECS: 1024, Min: 256, Max: 1536, Stream: "random", Seed: 103, N: 1 << 19},
	{Name: "rabin-periodic", Algo: "rabin", ECS: 2048, Stream: "periodic", Seed: 105, N: 1 << 19},
	{Name: "rabin-zeros", Algo: "rabin", ECS: 2048, Stream: "zeros", Seed: 0, N: 1 << 18},
	{Name: "rabin-altpoly", Algo: "rabin", ECS: 4096, Poly: 0x3DA3358B4DC175, Stream: "random", Seed: 107, N: 1 << 19},
	{Name: "gear-default-random", Algo: "gear", ECS: 4096, Stream: "random", Seed: 111, N: 1 << 20},
	{Name: "gear-tight-random", Algo: "gear", ECS: 1024, Min: 256, Max: 1536, Stream: "random", Seed: 113, N: 1 << 19},
	{Name: "gear-sparse", Algo: "gear", ECS: 2048, Stream: "sparse", Seed: 115, N: 1 << 19},
	{Name: "gear-tinyecs-clamp", Algo: "gear", ECS: 4, Min: 1, Max: 16, Window: 1, Stream: "random", Seed: 117, N: 1 << 14},
	{Name: "gear-counter", Algo: "gear", ECS: 2048, Stream: "counter", Seed: 0, N: 1 << 18},
}

const goldenPath = "testdata/golden_cuts.json"

func chunkLens(t *testing.T, mk mkChunker, data []byte, p Params) []int {
	t.Helper()
	c, err := mk(bytes.NewReader(data), p)
	if err != nil {
		t.Fatal(err)
	}
	chunks, err := chunkAll(c)
	if err != nil {
		t.Fatal(err)
	}
	lens := make([]int, len(chunks))
	for i, ch := range chunks {
		lens[i] = len(ch.Data)
	}
	return lens
}

// TestGoldenCutVectors locks the absolute cut positions: every spec's
// stream must chunk to exactly the checked-in lengths under BOTH the
// reference and the fast implementation. Run `go test -run
// TestGoldenCutVectors -update ./internal/chunker` to regenerate after an
// intentional cut-semantics change.
func TestGoldenCutVectors(t *testing.T) {
	pairFor := func(algo string) (mkChunker, mkChunker) {
		for _, pr := range parityPairs {
			if pr.name == algo {
				return pr.ref, pr.fast
			}
		}
		t.Fatalf("unknown golden algo %q", algo)
		return nil, nil
	}

	if *updateGolden {
		out := make([]goldenCase, 0, len(goldenSpecs))
		for _, spec := range goldenSpecs {
			ref, fast := pairFor(spec.Algo)
			data := streamData(spec.Stream, spec.Seed, spec.N)
			spec.CutLens = chunkLens(t, ref, data, spec.params())
			if fastLens := chunkLens(t, fast, data, spec.params()); !equalInts(spec.CutLens, fastLens) {
				t.Fatalf("%s: fast path disagrees with reference while updating golden vectors", spec.Name)
			}
			out = append(out, spec)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		buf, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d golden vectors to %s", len(out), goldenPath)
		return
	}

	buf, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading golden vectors (run with -update to create): %v", err)
	}
	var cases []goldenCase
	if err := json.Unmarshal(buf, &cases); err != nil {
		t.Fatal(err)
	}
	if len(cases) != len(goldenSpecs) {
		t.Fatalf("golden file has %d cases, specs list %d — regenerate with -update", len(cases), len(goldenSpecs))
	}
	for _, g := range cases {
		ref, fast := pairFor(g.Algo)
		data := streamData(g.Stream, g.Seed, g.N)
		if sum := sumInts(g.CutLens); sum != len(data) {
			t.Fatalf("%s: golden lens sum to %d, stream is %d bytes", g.Name, sum, len(data))
		}
		for name, mk := range map[string]mkChunker{"reference": ref, "fast": fast} {
			if got := chunkLens(t, mk, data, g.params()); !equalInts(got, g.CutLens) {
				t.Errorf("%s: %s implementation moved a cut point: got %d chunks %v..., want %d chunks %v...",
					g.Name, name, len(got), head(got, 8), len(g.CutLens), head(g.CutLens, 8))
			}
		}
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func sumInts(a []int) int {
	s := 0
	for _, v := range a {
		s += v
	}
	return s
}

func head(a []int, n int) []int {
	if len(a) < n {
		return a
	}
	return a[:n]
}

// TestGearMaskClampInvariant pins the clamp semantics topMask documents:
// the loose mask never has more bits set than the strict one, and both
// always have at least one bit, for every ECS down to the degenerate
// minimum.
func TestGearMaskClampInvariant(t *testing.T) {
	for ecs := 1; ecs <= 1<<16; ecs *= 2 {
		strict, loose := gearMasks(Params{ECS: ecs})
		if bits.OnesCount64(loose) > bits.OnesCount64(strict) {
			t.Errorf("ECS=%d: loose mask %064b has more bits than strict %064b", ecs, loose, strict)
		}
		if bits.OnesCount64(loose) < 1 || bits.OnesCount64(strict) < 1 {
			t.Errorf("ECS=%d: a mask clamped below one bit", ecs)
		}
	}
}

// FuzzChunkerParity is the differential oracle under fuzzing: arbitrary
// data, a fuzzed Params corner and a fuzzed fragmentation pattern must
// never produce different chunk sequences between the reference and fast
// paths of either family.
func FuzzChunkerParity(f *testing.F) {
	f.Add([]byte("hello, chunked world"), uint8(0), uint8(1), int64(1))
	f.Add(streamData("random", 9, 5000), uint8(3), uint8(7), int64(2))
	f.Add(streamData("periodic", 9, 3000), uint8(8), uint8(0), int64(3))
	f.Add([]byte{}, uint8(10), uint8(4), int64(4))
	// Three reader blocks and a part, read whole, 4093 bytes and 64 KiB ± 1
	// at a time: blocks long enough for FastRabin's 64-lane scan.
	for i, frag := range []uint8{0, 3, 4, 5, 10} {
		f.Add(streamData("random", int64(11+i), 3*fillSize+4093), uint8(i%2), frag, int64(5+i))
	}
	f.Fuzz(func(t *testing.T, data []byte, paramSel, fragSel uint8, seed int64) {
		if len(data) > 256<<10 {
			data = data[:256<<10]
		}
		p := paramsCorners[int(paramSel)%len(paramsCorners)]
		frag := fragmentations[int(fragSel)%len(fragmentations)]
		for _, pair := range parityPairs {
			label := fmt.Sprintf("%s/params%d/%s", pair.name, int(paramSel)%len(paramsCorners), frag.name)
			compareParity(t, label, pair.ref, pair.fast, p, data, frag.mk, seed)
		}
	})
}

// dataAndErrReader returns all its data together with the error in a
// single Read call.
type dataAndErrReader struct {
	data []byte
	err  error
}

func (r *dataAndErrReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, r.err
	}
	n := copy(p, r.data)
	r.data = r.data[n:]
	if len(r.data) == 0 {
		return n, r.err
	}
	return n, nil
}
