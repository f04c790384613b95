package trace

import (
	"fmt"
	"io"

	"mhdedup/internal/chunker"
	"mhdedup/internal/hashutil"
	"mhdedup/internal/metrics"
)

// Characteristics summarizes a dataset's duplication structure the way the
// paper's §V-D characterizes its test data: how much of the stream is
// duplicate at a given chunking granularity, and how concentrated the
// duplication is (DAD).
type Characteristics struct {
	// ECS is the chunk size the estimate was computed at.
	ECS int
	// TotalBytes and UniqueBytes give the exact-chunk-hash dedup estimate;
	// DataOnlyDER = Total/Unique.
	TotalBytes  int64
	UniqueBytes int64
	// DupSlices counts maximal runs of consecutive duplicate chunks; DAD
	// is duplicate bytes per slice.
	DupSlices int64
	DupBytes  int64
	// Chunks is the total chunk count.
	Chunks int64
}

// DataOnlyDER returns the exact-deduplication ratio estimate.
func (c Characteristics) DataOnlyDER() float64 {
	return metrics.Ratio(float64(c.TotalBytes), float64(c.UniqueBytes))
}

// DAD returns the Duplication Aggregation Degree in bytes per slice.
func (c Characteristics) DAD() float64 {
	return metrics.Ratio(float64(c.DupBytes), float64(c.DupSlices))
}

// String renders the summary.
func (c Characteristics) String() string {
	return fmt.Sprintf("ECS=%d chunks=%d DER=%.3f dupBytes=%d L=%d DAD=%.0fB",
		c.ECS, c.Chunks, c.DataOnlyDER(), c.DupBytes, c.DupSlices, c.DAD())
}

// Characterize streams the whole dataset through an exact chunk-hash
// deduplication at the given ECS and reports its duplication structure.
// This is the upper bound any chunk-based algorithm can reach at that
// granularity (what the paper calls the maximal data-only DER, §V-D).
func (d *Dataset) Characterize(ecs int) (Characteristics, error) {
	c := Characteristics{ECS: ecs}
	seen := make(map[hashutil.Sum]bool)
	err := d.EachFile(func(_ FileInfo, r io.Reader) error {
		ch, err := chunker.NewCDC(r, chunker.Params{ECS: ecs})
		if err != nil {
			return err
		}
		prevDup := false
		for {
			chunk, err := ch.Next()
			if err == io.EOF {
				return nil
			}
			if err != nil {
				return err
			}
			c.Chunks++
			c.TotalBytes += chunk.Size()
			h := hashutil.SumBytes(chunk.Data)
			if seen[h] {
				c.DupBytes += chunk.Size()
				if !prevDup {
					c.DupSlices++
				}
				prevDup = true
				continue
			}
			seen[h] = true
			c.UniqueBytes += chunk.Size()
			prevDup = false
		}
	})
	return c, err
}
