package store

import (
	"fmt"

	"mhdedup/internal/hashutil"
)

// Restore planning: turn a FileManifest's chunk-granular recipe into a
// minimal set of container reads.
//
// A recipe is a list of (container, start, size) refs in output order.
// Issuing one container read per ref makes read amplification the dominant
// restore cost: a near-duplicate backup's recipe alternates between a
// handful of containers, and every alternation pays a full disk access for
// what is often a few KiB. The planner exploits the locality the ingest
// side worked to create (FileManifest.Append already merges byte-contiguous
// runs): it walks the refs in output order, groups consecutive refs that
// land in the same container, and coalesces their ranges — overlapping,
// adjacent, or separated by at most DefaultRestoreCoalesceGap container
// bytes — into one planned read. Gap bytes are read and discarded: one slightly larger
// sequential read beats two disk accesses.
//
// Every planned read serves one contiguous run of the output, so the reads
// are totally ordered by output position. That property is what makes the
// executor in restorepipe.go one loop with an exact read-ahead bound: reads
// are started in order, emitted in order, and a read is dropped as soon as
// its last segment is written — a read never has to survive an unbounded
// stretch of output the way it would if far-apart refs shared one read.

// DefaultRestoreCoalesceGap is how many container bytes of gap a planned
// read bridges: two refs into the same container separated by at most this
// many bytes coalesce into one read that discards the gap.
const DefaultRestoreCoalesceGap = 64 << 10

// RestoreOptions sets how many planned reads a restore keeps in flight
// ahead of the bytes it is emitting; their bytes stay within
// restoreWindow at any width. The zero value — what every engine's
// Restore uses — plans and coalesces like any other and, on the plain path,
// fetches one read at a time on the calling goroutine; on the verified path
// it keeps a width derived from GOMAXPROCS in flight (Verifier.RestoreRange).
type RestoreOptions struct {
	// Workers is the most planned reads outstanding (started, not yet
	// emitted) at once, each on its own goroutine. 1 fetches every read
	// inline on the calling goroutine, in order, and so does 0 on the plain
	// path.
	Workers int
}

func (o RestoreOptions) workers() int {
	if o.Workers < 1 {
		return 1
	}
	return o.Workers
}

// planSegment is one output run served from a planned read's buffer:
// size bytes found at off within the read.
type planSegment struct {
	off  int64 // offset within the read's buffer
	size int64
}

// plannedRead is one coalesced container read serving one or more
// consecutive output segments.
type plannedRead struct {
	container hashutil.Sum
	// start/length delimit the single contiguous container range read.
	start, length int64
	// segs are emitted in order; offsets are relative to start.
	segs []planSegment
}

// restorePlan is the read schedule for one file: reads in output order,
// each serving a contiguous run of the output.
type restorePlan struct {
	file  string
	reads []plannedRead
	// refs counts the recipe entries planned; refs/len(reads) is the
	// coalesce ratio.
	refs int
	// outputBytes is the reconstructed file's size; plannedBytes the total
	// container bytes the reads fetch (≥ outputBytes − overlap reuse,
	// + discarded gap bytes).
	outputBytes, plannedBytes int64
}

// coalesceRatio is refs per read ≥ 1; 0 for an empty plan.
func (p *restorePlan) coalesceRatio() float64 {
	if len(p.reads) == 0 {
		return 0
	}
	return float64(p.refs) / float64(len(p.reads))
}

// planRestore builds the read schedule for fm. Refs are validated the way a
// container read would reject them (negative start/size), so a plan that
// builds is safe to slice.
func planRestore(fm *FileManifest) (*restorePlan, error) {
	p := &restorePlan{file: fm.File}
	for _, ref := range fm.Refs {
		if ref.Start < 0 || ref.Size < 0 {
			return nil, fmt.Errorf("store: restore %q: ref %s[%d+%d] is malformed",
				fm.File, ref.Container.Short(), ref.Start, ref.Size)
		}
		p.refs++
		if ref.Size == 0 {
			continue // a corrupt flat recipe's empty ref: nothing to read or emit
		}
		p.outputBytes += ref.Size
		if n := len(p.reads); n > 0 {
			last := &p.reads[n-1]
			if last.container == ref.Container && bridgeable(last.start, last.length, ref.Start, ref.Size) {
				lo, hi := last.start, last.start+last.length
				nlo, nhi := min(lo, ref.Start), max(hi, ref.Start+ref.Size)
				if shift := lo - nlo; shift > 0 {
					// The read grew backwards: earlier segments move right
					// within the (now longer) buffer.
					for i := range last.segs {
						last.segs[i].off += shift
					}
				}
				p.plannedBytes += (nhi - nlo) - (hi - lo)
				last.start, last.length = nlo, nhi-nlo
				last.segs = append(last.segs, planSegment{off: ref.Start - nlo, size: ref.Size})
				continue
			}
		}
		p.reads = append(p.reads, plannedRead{
			container: ref.Container,
			start:     ref.Start,
			length:    ref.Size,
			segs:      []planSegment{{off: 0, size: ref.Size}},
		})
		p.plannedBytes += ref.Size
	}
	return p, nil
}

// bridgeable reports whether range [bStart,+bSize) can join a read
// currently covering [aStart,+aSize): overlap, adjacency, or a gap of at
// most DefaultRestoreCoalesceGap container bytes on either side.
func bridgeable(aStart, aSize, bStart, bSize int64) bool {
	const gap = DefaultRestoreCoalesceGap
	return bStart <= aStart+aSize+gap && aStart <= bStart+bSize+gap
}
