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
// at once: min(max(workers, 1), len(streams)) goroutines, each of which
// takes the earliest unstarted stream when free, so one worker ingests them
// in slice order, bit-identical to a serial PutFile loop. The first error —
// ctx.Err() once ctx is done — stops the hand-out; the workers finish their
// current stream (in-flight PutFiles abort at their next chunk if ctx is
// done) and it is returned.
func (d *Dedup) IngestStreamsContext(ctx context.Context, workers int, streams []Stream) error {
	put := func(name string, r io.Reader) error { return d.PutFileContext(ctx, name, r) }
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		next     int
		firstErr error
	)
	// take records the error of the stream a worker finished and hands it
	// the next one, while there is one and nothing failed.
	take := func(err error) (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if firstErr == nil {
			firstErr = err
		}
		if firstErr != nil || next == len(streams) {
			return 0, false
		}
		next++
		return next - 1, true
	}
	for range min(max(workers, 1), len(streams)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var err error
			for i, ok := take(nil); ok; i, ok = take(err) {
				err = IngestStream(ctx, streams[i], put)
			}
		}()
	}
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
