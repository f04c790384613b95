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
// running total and hash its sender's closing claim is checked against. Its
// one input is chunk runs — an applied Offer's chunks under the client's
// cuts and digests, each verified against its digest on receipt — which the
// engine takes as given; the claim is a SHA-1 over the digests. A migrating
// gateway is such a client too, so a shard never chunks. The engine sees the
// end of the stream — and so commits a manifest under the name — only from
// finish, and only after that claim checked out; every other way out is
// cancel, which commits nothing.
type feed struct {
	name string
	hash *hashutil.Hasher
	fed  uint64
	// cancel tears down a feed that must not commit (connection loss,
	// expiry, protocol error, a refused finish, an abandoned file): both
	// ends of the feed watch its context.
	cancel context.CancelFunc
	done   chan struct{} // closed when the engine has returned err
	err    error

	runs  chan []core.HashedChunk
	wait  *metrics.Histogram // how long put waited to hand a run over
	short bool               // the last chunk put was below the chunker's minimum
}

// feedRunsAhead is how many applied Offers may wait for the engine, enough
// to keep it busy across an offer → need round trip: with the run it is
// draining, a session pins feedRunsAhead+1 batches beyond its window.
const feedRunsAhead = 2

// errFeedClaim marks finish's refusals, which say what did not match.
var errFeedClaim = errors.New("stream is not what its sender declared")

// beginFeed starts sess ingesting name, on its own goroutine, from the runs
// put into the feed until ctx is cancelled.
func beginFeed(ctx context.Context, sess *core.Session, name string, wait *metrics.Histogram) *feed {
	f := &feed{name: name, hash: hashutil.NewHasher(), done: make(chan struct{}),
		runs: make(chan []core.HashedChunk, feedRunsAhead), wait: wait}
	ctx, f.cancel = context.WithCancel(ctx)
	go func() {
		f.err = sess.PutChunksContext(ctx, name, func() ([]core.HashedChunk, error) {
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
		f.cancel()
		close(f.done)
	}()
	return f
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
	close(f.runs)
	<-f.done
	return f.err
}
