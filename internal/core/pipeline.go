package core

import (
	"sync"
	"time"

	"mhdedup/internal/chunker"
	"mhdedup/internal/hashutil"
)

// The ingest pipeline. Deduplication itself is an ordered, stateful process
// (the hysteresis buffer, match extension and HHR all depend on stream
// order), but boundary detection and chunk hashing need no engine state and
// are most of ingest's CPU, so every PutFile runs them ahead of the dedup
// stage:
//
//	chunker goroutine ──► SHA-1 per batch ──► in-order delivery ──► dedup
//
// The hand-off grain is a batch of chunks, not a chunk: the chunker
// goroutine cuts a batch, starts a goroutine hashing it and queues it in
// input order; the ordered stage drains the queue, waiting for each batch's
// hashes in turn. One hand-off per ≈400 KiB is cheap enough that the
// pipeline beats a serial loop even on a single P, so there is no serial
// twin and nothing to configure: hashing is as wide as the batches in
// flight and GOMAXPROCS allow. Results do not depend on the schedule — the
// golden-snapshot determinism test pins them, at GOMAXPROCS 1, 2 and 8, to
// what the synchronous engine this replaced produced.
const (
	// batchChunks is the number of chunks handed off at a time.
	batchChunks = 128
	// batchesAhead is the queue depth. With the batch being cut and the one
	// being drained, read-ahead per open file is at most batchesAhead+2
	// batches: ≈2.4 MiB at ECS 4096, (batchesAhead+2)·batchChunks·Max at
	// worst. The same bound holds for the hashing goroutines, one per batch.
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
	chunks []pchunk // slots are assigned by the ordered stage
	err    error
	hashed chan struct{} // closed once every chunk's hash is filled in
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
		b := &chunkBatch{chunks: make([]pchunk, 0, batchChunks), hashed: make(chan struct{})}
		for len(b.chunks) < batchChunks && b.err == nil {
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
			b.chunks = append(b.chunks, pchunk{data: c.Data})
		}
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			for i := range b.chunks {
				b.chunks[i].hash = hashutil.SumBytes(b.chunks[i].data)
			}
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
	for p.i == len(p.cur.chunks) {
		if p.cur.err != nil {
			return pchunk{}, p.cur.err
		}
		start := time.Now()
		p.cur, p.i = <-p.queue, 0
		cut := start.Add(hScanWaitNS.ObserveSince(start))
		<-p.cur.hashed
		hHashWaitNS.ObserveSince(cut)
	}
	c := p.cur.chunks[p.i]
	p.i++
	return c, nil
}

// stop tears the pipeline down (safe after normal exhaustion too) and
// returns once no goroutine of it is left. A producer inside Next returns
// at the end of the chunk it is cutting, so stop waits for the source to
// deliver at most one more chunk's bytes (Max+1) or to end.
func (p *chunkPipeline) stop() {
	close(p.done)
	p.wg.Wait()
}
