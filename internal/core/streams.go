package core

import (
	"context"
	"fmt"
	"io"
	"sync"
)

// PutFileContext is PutFile with cancellation: the ingest aborts between
// chunks as soon as ctx is done and returns ctx.Err(), and the file, as
// after any mid-file error, writes no FileManifest and seals no DiskChunk.
// A reader blocked in Read defers the check; callers that own the reader (a
// net.Conn, an io.Pipe) should also close it on cancel.
func (d *Dedup) PutFileContext(ctx context.Context, name string, r io.Reader) error {
	return d.putFile(ctx, name, r)
}

// PutChunksContext is PutFileContext for a stream that arrives cut and
// hashed: pull returns the next run of chunks in stream order, io.EOF after
// the last, any other error to abort the file with it. The engine takes
// cuts and digests as given — it runs neither chunker nor per-chunk SHA-1,
// and Stats' ChunkedBytes and HashedBytes count none of these bytes — and
// the rest is PutFile: the configured chunker's cuts leave PutFile's store,
// bit for bit; other cuts cost dedup ratio, never restored bytes. A wrong
// digest would poison the index, so the caller must have verified each
// chunk against its digest and leave its bytes alone afterwards. pull runs
// on the calling goroutine; one that can block should watch ctx.
func (d *Dedup) PutChunksContext(ctx context.Context, name string, pull func() ([]HashedChunk, error)) error {
	return d.ingest(ctx, &fileState{name: name, src: &runSource{pull: pull}})
}

// Item is one input file of a stream: a name (the Restore key, unique
// across the whole Dedup) and an opener returning its contents. The opener
// runs on the worker goroutine that ingests the stream, so ingest I/O
// overlaps across streams.
type Item struct {
	Name string
	Open func() (io.ReadCloser, error)
}

// Stream is an ordered sequence of input files sharing backup-stream
// locality — one machine's disk-image history, one tape rotation. Items are
// always ingested in order within a stream; different streams may be
// ingested concurrently.
type Stream struct {
	Name  string
	Items []Item
}

// IngestStreamsContext deduplicates the given streams, up to workers of them
// at once. workers ≤ 1 ingests them in slice order on the calling
// goroutine, bit-identical to a serial PutFile loop. workers > 1 starts
// min(workers, len(streams)) goroutines, each of which takes the earliest
// unstarted stream when free. The first error — ctx.Err() once ctx is
// done — stops the hand-out; the workers finish their current file
// (in-flight PutFiles abort at their next chunk) and it is returned.
func (d *Dedup) IngestStreamsContext(ctx context.Context, workers int, streams []Stream) error {
	put := func(name string, r io.Reader) error { return d.PutFileContext(ctx, name, r) }
	if workers <= 1 || len(streams) <= 1 {
		for _, st := range streams {
			if err := IngestStream(ctx, st, put); err != nil {
				return err
			}
		}
		return nil
	}
	if workers > len(streams) {
		workers = len(streams)
	}
	feed := make(chan Stream)
	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
		failed   = make(chan struct{})
	)
	fail := func(err error) {
		errOnce.Do(func() {
			firstErr = err
			close(failed)
		})
	}
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for st := range feed {
				if err := IngestStream(ctx, st, put); err != nil {
					fail(err)
					return
				}
			}
		}()
	}
	// Feed streams in order; stop early once any worker failed or the
	// context was cancelled.
feeding:
	for _, st := range streams {
		select {
		case feed <- st:
		case <-failed:
			break feeding
		case <-ctx.Done():
			fail(ctx.Err())
			break feeding
		}
	}
	close(feed)
	wg.Wait()
	return firstErr
}

// IngestStream feeds one stream's items, in order, to put — any engine's
// PutFile — and reports the first failure to open, put or close an item.
func IngestStream(ctx context.Context, st Stream, put func(name string, r io.Reader) error) error {
	for _, it := range st.Items {
		if err := ctx.Err(); err != nil {
			return err
		}
		r, err := it.Open()
		if err != nil {
			return fmt.Errorf("core: open %q (stream %q): %w", it.Name, st.Name, err)
		}
		putErr := put(it.Name, r)
		closeErr := r.Close()
		if putErr != nil {
			return putErr
		}
		if closeErr != nil {
			return fmt.Errorf("core: close %q (stream %q): %w", it.Name, st.Name, closeErr)
		}
	}
	return nil
}
