package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"mhdedup/internal/core"
	"mhdedup/internal/hashutil"
	"mhdedup/internal/metrics"
)

// feed is one file streaming into the engine on its own goroutine, plus the
// running total and hash its sender's closing claim is checked against.
// Each plane feeds it what its sender holds. A client session puts chunk
// runs — an applied Offer's chunks under the client's cuts and digests, each
// verified against its digest on receipt — which the engine takes as given;
// the claim is a SHA-1 over the digests. A migrating gateway holds restored
// bytes and no cuts, so it writes raw bytes into a pipe the engine chunks
// itself; the claim is a SHA-1 over the stream. Either way the engine sees
// the end of the stream — and so commits a manifest under the name — only
// from finish, and only after that claim checked out; every other way out
// is cancel, which commits nothing.
type feed struct {
	name string
	hash *hashutil.Hasher
	fed  uint64
	stop context.CancelFunc
	done chan struct{} // closed when the engine has returned err
	err  error

	pw    *io.PipeWriter          // the migrate plane's input
	runs  chan []core.HashedChunk // the client plane's input, and for it:
	wait  *metrics.Histogram      // how long put waited to hand a run over
	short bool                    // the last chunk put was below the chunker's minimum
}

// feedRunsAhead is how many applied Offers may wait for the engine, enough
// to keep it busy across an offer → need round trip: with the run it is
// draining, a session pins feedRunsAhead+1 batches beyond its window.
const feedRunsAhead = 2

// errFeedClaim marks finish's refusals, which say what did not match.
var errFeedClaim = errors.New("stream is not what its sender declared")

// start runs ingest, which consumes f's input until ctx is cancelled, on its
// own goroutine.
func (f *feed) start(ctx context.Context, ingest func(context.Context) error) *feed {
	ctx, f.stop = context.WithCancel(ctx)
	f.hash, f.done = hashutil.NewHasher(), make(chan struct{})
	go func() {
		f.err = ingest(ctx)
		f.stop()
		close(f.done)
	}()
	return f
}

// beginChunkFeed starts sess ingesting name from the runs put into the feed.
func beginChunkFeed(ctx context.Context, sess *core.Session, name string, wait *metrics.Histogram) *feed {
	f := &feed{name: name, runs: make(chan []core.HashedChunk, feedRunsAhead), wait: wait}
	return f.start(ctx, func(ctx context.Context) error {
		return sess.PutChunksContext(ctx, name, func() ([]core.HashedChunk, error) {
			select {
			case run, ok := <-f.runs:
				if !ok {
					return nil, io.EOF
				}
				return run, nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		})
	})
}

// beginByteFeed starts sess ingesting name from the bytes written to the feed.
func beginByteFeed(ctx context.Context, sess *core.Session, name string) *feed {
	pr, pw := io.Pipe()
	return (&feed{name: name, pw: pw}).start(ctx, func(ctx context.Context) error {
		err := sess.PutFileContext(ctx, name, pr)
		pr.CloseWithError(err) // a writer still feeding the pipe meets the engine's error
		return err
	})
}

// put hands one run of verified chunks to the engine, waiting while
// feedRunsAhead are queued. It fails only once the engine has returned, on
// a fault of its own or cancelled under the caller, with the engine's error.
func (f *feed) put(run []core.HashedChunk) error {
	start := time.Now()
	select {
	case f.runs <- run:
	case <-f.done:
		return f.err
	}
	f.wait.ObserveSince(start)
	for i := range run {
		f.hash.Write(run[i].Hash[:]) // indexed: a copy's Hash[:] would escape
		f.fed += uint64(len(run[i].Data))
	}
	return nil
}

// write pushes raw bytes into the engine. It fails, with the engine's error,
// once the engine has stopped reading.
func (f *feed) write(data []byte) error {
	if _, err := f.pw.Write(data); err != nil {
		return err
	}
	f.hash.Write(data)
	f.fed += uint64(len(data))
	return nil
}

// finish checks the sender's declared size and sum against what actually
// arrived, and only then lets the engine see EOF and waits for it: a
// mismatched stream (errFeedClaim) is cancelled before the engine can
// commit a manifest under the name. Any other error is the engine's. Only a
// nil return may be acknowledged.
func (f *feed) finish(total uint64, sum hashutil.Sum) error {
	var err error
	if f.fed != total {
		err = fmt.Errorf("%w: %d bytes received, %d declared", errFeedClaim, f.fed, total)
	} else if f.hash.Sum() != sum {
		err = fmt.Errorf("%w: what was received does not hash to the declared sum", errFeedClaim)
	}
	if err != nil {
		f.cancel()
		return err
	}
	if f.pw != nil {
		f.pw.Close()
	} else {
		close(f.runs)
	}
	<-f.done
	return f.err
}

// cancel tears down a feed that must not commit (connection loss, expiry,
// protocol error, a refused finish): the engine is cancelled, which both
// ends of a chunk feed watch for, and a pipe is broken.
func (f *feed) cancel() {
	f.stop()
	if f.pw != nil {
		f.pw.CloseWithError(context.Canceled)
	}
}
