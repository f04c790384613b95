// Package analysis implements the closed-form cost models of the paper's
// §IV: Table I (metadata size) and Table II (disk accessing times) for the
// MHD, SubChunk, Bimodal and plain-CDC algorithms, as functions of
//
//	F  — input files that are not complete duplicates,
//	N  — final non-duplicate chunks (ECS granularity),
//	D  — final duplicate chunks,
//	L  — detected duplicate data slices,
//	SD — the sampling distance (and big/small chunk-size ratio).
//
// The experiment harness compares these models against measured counters.
// Two of the paper's printed "summary" rows do not equal the sum of their
// own component rows (MHD and SubChunk in Table I); both the printed
// summary and the component sum are exposed so the discrepancy is visible
// rather than silently resolved.
package analysis

import "fmt"

// Inputs are the workload parameters of §IV.
type Inputs struct {
	F, N, D, L int64
	SD         int64
}

// Validate reports whether the inputs satisfy the table's precondition
// (SD ≥ 2, non-negative counts).
func (in Inputs) Validate() error {
	if in.SD < 2 {
		return fmt.Errorf("analysis: SD must be >= 2, got %d", in.SD)
	}
	if in.F < 0 || in.N < 0 || in.D < 0 || in.L < 0 {
		return fmt.Errorf("analysis: negative workload counts")
	}
	return nil
}

// InodeBytes mirrors the paper's 256-byte inode assumption.
const InodeBytes = 256

// HookBytes is the per-hook payload (20-byte SHA-1 address).
const HookBytes = 20

// MetadataModel is one algorithm's column of Table I.
type MetadataModel struct {
	Algorithm        string
	InodesDiskChunks int64
	InodesHooks      int64
	InodesManifests  int64
	HookPayloadBytes int64
	ManifestBytes    int64
	// PaperSummaryBytes is the "summary" row exactly as printed in Table I.
	PaperSummaryBytes int64
}

// Inodes returns the total inode count.
func (m MetadataModel) Inodes() int64 {
	return m.InodesDiskChunks + m.InodesHooks + m.InodesManifests
}

// ComponentSumBytes returns the metadata byte total computed from the
// component rows: 256 bytes per inode plus hook and manifest payloads. For
// CDC and Bimodal this equals PaperSummaryBytes; for MHD and SubChunk the
// paper's printed summary differs slightly from its own rows.
func (m MetadataModel) ComponentSumBytes() int64 {
	return m.Inodes()*InodeBytes + m.HookPayloadBytes + m.ManifestBytes
}

// MetadataMHD returns MHD's Table I column.
func MetadataMHD(in Inputs) MetadataModel {
	return MetadataModel{
		Algorithm:        "MHD",
		InodesDiskChunks: in.F,
		InodesHooks:      in.N / in.SD,
		InodesManifests:  in.F,
		HookPayloadBytes: HookBytes * (in.N / in.SD),
		// Two 37-byte entries per SD chunks, plus up to three new entries
		// (and the removed merged one) per HHR: 74·N/SD + 148·L.
		ManifestBytes:     74*(in.N/in.SD) + 148*in.L,
		PaperSummaryBytes: 512*in.F + 424*(in.N/in.SD),
	}
}

// MetadataSubChunk returns SubChunk's Table I column.
func MetadataSubChunk(in Inputs) MetadataModel {
	return MetadataModel{
		Algorithm:        "SubChunk",
		InodesDiskChunks: in.N / in.SD,
		InodesHooks:      in.F,
		InodesManifests:  in.F,
		HookPayloadBytes: HookBytes * in.F,
		// 36 bytes per small chunk plus the shared 28-byte
		// chunk-to-container mapping per container.
		ManifestBytes:     36*in.N + 28*(in.N/in.SD),
		PaperSummaryBytes: 532*in.F + 280*(in.N/in.SD) + 36*in.N,
	}
}

// MetadataBimodal returns Bimodal's Table I column.
func MetadataBimodal(in Inputs) MetadataModel {
	rechunked := in.L * (in.SD - 1) // small chunks created at transition points
	return MetadataModel{
		Algorithm:        "Bimodal",
		InodesDiskChunks: in.F,
		InodesHooks:      in.N/in.SD + 2*rechunked,
		InodesManifests:  in.F,
		HookPayloadBytes: HookBytes * (in.N/in.SD + 2*rechunked),
		ManifestBytes:    36*(in.N/in.SD) + 72*rechunked,
		PaperSummaryBytes: 512*in.F + 312*(in.N/in.SD) +
			624*rechunked,
	}
}

// MetadataCDC returns plain CDC's Table I column.
func MetadataCDC(in Inputs) MetadataModel {
	return MetadataModel{
		Algorithm:         "CDC",
		InodesDiskChunks:  in.F,
		InodesHooks:       in.N,
		InodesManifests:   in.F,
		HookPayloadBytes:  HookBytes * in.N,
		ManifestBytes:     36 * in.N,
		PaperSummaryBytes: 512*in.F + 312*in.N,
	}
}

// AccessModel is one algorithm's column of Table II (disk accessing times).
type AccessModel struct {
	Algorithm         string
	ChunkOutputs      int64
	ChunkInputs       int64
	HookOutputs       int64
	HookInputs        int64
	ManifestOutputs   int64
	ManifestInputs    int64
	BigChunkQueries   int64
	SmallChunkQueries int64
	// Paper summary rows, as printed.
	PaperSummaryNoBloom   int64
	PaperSummaryWithBloom int64
}

// ComponentSum returns the total of the component rows (the no-bloom case:
// every query reaches disk).
func (a AccessModel) ComponentSum() int64 {
	return a.ChunkOutputs + a.ChunkInputs + a.HookOutputs + a.HookInputs +
		a.ManifestOutputs + a.ManifestInputs + a.BigChunkQueries + a.SmallChunkQueries
}

// AccessesMHD returns MHD's Table II column.
func AccessesMHD(in Inputs) AccessModel {
	return AccessModel{
		Algorithm:         "MHD",
		ChunkOutputs:      in.F,
		ChunkInputs:       2 * in.L, // HHR byte reloads, both directions
		HookOutputs:       in.N / in.SD,
		HookInputs:        in.L,
		ManifestOutputs:   in.F + in.L, // per-file creation + HHR write-backs
		ManifestInputs:    in.L,
		BigChunkQueries:   0,
		SmallChunkQueries: in.N + in.L,
		PaperSummaryNoBloom: 2*in.F + 6*in.L + in.N +
			in.N/in.SD,
		PaperSummaryWithBloom: 2*in.F + 6*in.L + in.N/in.SD,
	}
}

// AccessesSubChunk returns SubChunk's Table II column.
func AccessesSubChunk(in Inputs) AccessModel {
	return AccessModel{
		Algorithm:         "SubChunk",
		ChunkOutputs:      in.N / in.SD,
		ChunkInputs:       0,
		HookOutputs:       in.F,
		HookInputs:        in.L,
		ManifestOutputs:   in.F,
		ManifestInputs:    in.L,
		BigChunkQueries:   (in.N + in.D) / in.SD,
		SmallChunkQueries: in.N + in.L,
		PaperSummaryNoBloom: 2*in.F + 3*in.L + in.N +
			(2*in.N+in.D)/in.SD,
		PaperSummaryWithBloom: 2*in.F + 3*in.L + (in.N+in.D)/in.SD,
	}
}

// AccessesBimodal returns Bimodal's Table II column.
func AccessesBimodal(in Inputs) AccessModel {
	return AccessModel{
		Algorithm:             "Bimodal",
		ChunkOutputs:          in.F,
		ChunkInputs:           0,
		HookOutputs:           in.N/in.SD + 2*(in.SD-1)*in.L,
		HookInputs:            in.L,
		ManifestOutputs:       in.F,
		ManifestInputs:        in.L,
		BigChunkQueries:       in.N / in.SD,
		SmallChunkQueries:     (2*in.SD + 1) * in.L,
		PaperSummaryNoBloom:   2*in.F + (4*in.SD+1)*in.L + 2*(in.N/in.SD),
		PaperSummaryWithBloom: 2*in.F + (2*in.SD+1)*in.L + in.N/in.SD,
	}
}

// AccessesCDC returns plain CDC's Table II column.
func AccessesCDC(in Inputs) AccessModel {
	return AccessModel{
		Algorithm:             "CDC",
		ChunkOutputs:          in.F,
		ChunkInputs:           0,
		HookOutputs:           in.N,
		HookInputs:            in.L,
		ManifestOutputs:       in.F,
		ManifestInputs:        in.L,
		BigChunkQueries:       0,
		SmallChunkQueries:     in.N + in.L,
		PaperSummaryNoBloom:   2*in.F + 3*in.L + 2*in.N,
		PaperSummaryWithBloom: 2*in.F + 3*in.L + in.N,
	}
}

// MHDBeatsAllOnAccesses evaluates the paper's §IV claim: with the bloom
// filter assumed perfect, MHD performs fewer disk accesses than every other
// algorithm whenever 3L < D/SD.
func MHDBeatsAllOnAccesses(in Inputs) bool {
	return 3*in.L < in.D/in.SD
}
