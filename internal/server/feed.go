package server

import (
	"context"
	"errors"
	"io"

	"mhdedup/internal/core"
	"mhdedup/internal/hashutil"
)

// feed is one file streaming into the engine, on either plane: a client
// session's reassembled offers or a gateway's migrated bytes. It is a pipe
// into PutFileContext running on its own goroutine, plus the running total
// and hash the sender's closing claim is checked against. The engine sees
// EOF — and so commits a manifest under the name — only from finish, and
// only after that claim checked out; every other way out is cancel, which
// commits nothing.
type feed struct {
	name string
	pw   *io.PipeWriter
	hash *hashutil.Hasher
	fed  uint64
	stop context.CancelFunc

	done chan struct{} // closed when PutFileContext has returned err
	err  error
}

var (
	// errEngineStopped is what a write into the pipe meets once the engine
	// has returned; the reason is feed.err.
	errEngineStopped = errors.New("server: ingest finished")
	// errFeedSize and errFeedSum are finish's refusals, returned bare: each
	// plane words them for its own sender.
	errFeedSize = errors.New("server: stream is not the declared size")
	errFeedSum  = errors.New("server: stream does not hash to the declared sum")
)

// beginFeed starts sess ingesting name from the feed. Cancelling ctx
// aborts the ingest.
func beginFeed(ctx context.Context, sess *core.Session, name string) *feed {
	ctx, stop := context.WithCancel(ctx)
	pr, pw := io.Pipe()
	f := &feed{name: name, pw: pw, hash: hashutil.NewHasher(), stop: stop, done: make(chan struct{})}
	go func() {
		f.err = sess.PutFileContext(ctx, name, pr)
		stop()
		close(f.done)
		// Unblock a writer still feeding the pipe.
		pr.CloseWithError(errEngineStopped)
	}()
	return f
}

// write pushes one run of bytes into the engine. When it fails because the
// engine stopped reading on an error of its own, that error is returned
// and engineFault is true; otherwise the feed was torn down under the
// writer and err says how.
func (f *feed) write(data []byte) (engineFault bool, err error) {
	_, err = f.pw.Write(data)
	if err == errEngineStopped {
		<-f.done
		if f.err != nil {
			return true, f.err
		}
	}
	if err != nil {
		return false, err
	}
	f.hash.Write(data)
	f.fed += uint64(len(data))
	return false, nil
}

// finish checks the sender's declared size and sum against what actually
// arrived, and only then lets the engine see EOF and waits for it: a
// mismatched stream (errFeedSize, errFeedSum) is cancelled before the
// engine can commit a manifest under the name. Any other error is the
// engine's. Only a nil return may be acknowledged.
func (f *feed) finish(total uint64, sum hashutil.Sum) error {
	if f.fed != total {
		f.cancel(errFeedSize)
		return errFeedSize
	}
	if f.hash.Sum() != sum {
		f.cancel(errFeedSum)
		return errFeedSum
	}
	f.pw.Close()
	<-f.done
	return f.err
}

// cancel tears down a feed that must not commit (connection loss, expiry,
// protocol error, a refused finish): the engine side is cancelled and the
// pipe broken with cause, so both ends unblock.
func (f *feed) cancel(cause error) {
	f.stop()
	f.pw.CloseWithError(cause)
}
