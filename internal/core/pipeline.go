package core

import (
	"sync"
	"time"

	"mhdedup/internal/chunker"
	"mhdedup/internal/hashutil"
)

// The ingest pipeline (DESIGN §7). Boundary detection and chunk hashing need
// no engine state, so every PutFile runs them ahead of the ordered stage:
//
//	chunker goroutine ──► SHA-1 per batch ──► in-order delivery ──► dedup
//
// The chunker goroutine cuts a batch, starts a goroutine hashing it
// (hashutil.SumRuns: 16 chunks at a time where the CPU has the lanes) and
// queues it in input order; the ordered stage waits for each batch's hashes
// in turn. There is nothing to configure, and results do not depend on the
// schedule (the determinism test).
const (
	// batchChunks is the number of chunks handed off at a time.
	batchChunks = 128
	// batchesAhead is the queue depth: read-ahead per open file, and the
	// hashing goroutines (one per batch), are at most batchesAhead+2
	// batches, ≈2.4 MiB at ECS 4096.
	batchesAhead = 4
)

// chunkSource is where the ordered stage gets a stream's hashed chunks:
// next returns them in input order, then the stream's terminal error (io.EOF
// included); stop, safe after that too, returns once the source runs nothing.
type chunkSource interface {
	next() (pchunk, error)
	stop()
}

// HashedChunk is one chunk of a pre-chunked stream and the SHA-1 of its bytes.
type HashedChunk struct {
	Hash hashutil.Sum
	Data []byte
}

// runSource is PutChunks' source: the caller's runs, pulled on the ordered
// stage's own goroutine, so there is nothing to stop.
type runSource struct {
	pull func() ([]HashedChunk, error)
	run  []HashedChunk // what is left of the last run pulled
}

func (s *runSource) next() (pchunk, error) {
	for len(s.run) == 0 {
		var err error
		if s.run, err = s.pull(); err != nil {
			return pchunk{}, err
		}
	}
	c := &s.run[0]
	s.run = s.run[1:]
	return pchunk{data: c.Data, hash: c.Hash}, nil
}

func (s *runSource) stop() {}

// chunkBatch is one pipeline item: consecutive chunks of the stream and,
// when the chunker stopped inside the batch, its terminal error (io.EOF
// included), which surfaces after the chunks that preceded it — exactly
// where a serial loop would have met it.
type chunkBatch struct {
	n      int // chunks cut into it
	data   [batchChunks][]byte
	runs   [batchChunks][][]byte // data's chunks as hashutil.SumRuns takes them, one part each
	sums   [batchChunks]hashutil.Sum
	err    error
	hashed chan struct{} // closed once sums is filled in
}

// chunkPipeline produces the hashed chunks of one input stream in order.
type chunkPipeline struct {
	queue chan *chunkBatch
	done  chan struct{}
	wg    sync.WaitGroup

	cur *chunkBatch // the batch the ordered stage is draining
	i   int         // the next chunk in it
}

// newChunkPipeline starts the pipeline over ch.
func newChunkPipeline(ch chunker.Chunker) *chunkPipeline {
	p := &chunkPipeline{
		queue: make(chan *chunkBatch, batchesAhead),
		done:  make(chan struct{}),
		cur:   &chunkBatch{},
	}
	p.wg.Add(1)
	go p.produce(ch)
	return p
}

// produce cuts batches until the chunker's terminal error, which travels in
// the last batch. done is polled before every chunk, not every batch: after
// stop, the producer must not go back to a source that may never deliver
// again (a pipe whose writer is waiting for this very ingest to return).
func (p *chunkPipeline) produce(ch chunker.Chunker) {
	defer p.wg.Done()
	for {
		b := &chunkBatch{hashed: make(chan struct{})}
		for b.n < batchChunks && b.err == nil {
			select {
			case <-p.done:
				return
			default:
			}
			c, err := ch.Next()
			if err != nil {
				b.err = err
				break
			}
			b.data[b.n] = c.Data
			b.runs[b.n] = b.data[b.n : b.n+1]
			b.n++
		}
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			hashutil.SumRuns(b.runs[:b.n], b.sums[:b.n])
			close(b.hashed)
		}()
		select {
		case p.queue <- b:
		case <-p.done:
			return
		}
		if b.err != nil {
			return
		}
	}
}

// next returns the next hashed chunk in input order, or the chunker's
// terminal error once the chunks before it have been returned. Only the
// ordered stage calls it, and not after stop.
func (p *chunkPipeline) next() (pchunk, error) {
	for p.i == p.cur.n {
		if p.cur.err != nil {
			return pchunk{}, p.cur.err
		}
		start := time.Now()
		p.cur, p.i = <-p.queue, 0
		cut := start.Add(hScanWaitNS.ObserveSince(start))
		<-p.cur.hashed
		hHashWaitNS.ObserveSince(cut)
	}
	p.i++
	return pchunk{data: p.cur.data[p.i-1], hash: p.cur.sums[p.i-1]}, nil
}

// stop tears the pipeline down (safe after normal exhaustion too) and
// returns once no goroutine of it is left. A producer inside Next returns
// at the end of the chunk it is cutting, so stop waits for the source to
// deliver at most one more chunk's bytes (Max+1) or to end.
func (p *chunkPipeline) stop() {
	close(p.done)
	p.wg.Wait()
}
