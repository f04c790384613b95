package chunker

// readFiller / chunker error-path contract, pinned for every chunker
// (reference, block-processed and fixed-size): a failing reader's bytes are
// consumed first — emitted as chunks, the tail as a final partial chunk —
// and then the reader's error surfaces from Next, verbatim, never masked as
// io.EOF. Two failure shapes per chunker: the reader returning data and the
// error in the SAME Read call, and a clean read followed by a bare
// (0, error) mid-stream.

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// errorPathChunkers is allChunkers plus the fixed-size chunker (which has
// its own constructor signature).
var errorPathChunkers = func() []struct {
	name string
	mk   mkChunker
} {
	fixed := struct {
		name string
		mk   mkChunker
	}{"fixed", func(r io.Reader, p Params) (Chunker, error) { return NewFixed(r, p.ECS) }}
	return append(append([]struct {
		name string
		mk   mkChunker
	}{}, allChunkers...), fixed)
}()

func TestReadErrorSurfacesAfterPartialChunkAllChunkers(t *testing.T) {
	boom := errors.New("mid-stream device failure")
	mkReaders := []struct {
		name string
		mk   func(data []byte) io.Reader
	}{
		// The error arrives on the Read call after the data is exhausted.
		{"later-call", func(d []byte) io.Reader { return &failingReader{data: d, err: boom} }},
		// The error arrives in the same Read call as the final data.
		{"same-call", func(d []byte) io.Reader { return &dataAndErrReader{data: d, err: boom} }},
	}
	for _, impl := range errorPathChunkers {
		for _, mkr := range mkReaders {
			// 1500 bytes with ECS 1024: at least one full-or-partial chunk
			// comes out before the failure point for every chunker.
			data := streamData("random", 67, 1500)
			c, err := impl.mk(mkr.mk(append([]byte(nil), data...)), Params{ECS: 1024})
			if err != nil {
				t.Fatal(err)
			}
			var got []byte
			var sawErr error
			for i := 0; i < 100; i++ {
				ch, err := c.Next()
				if err != nil {
					sawErr = err
					break
				}
				got = append(got, ch.Data...)
			}
			label := impl.name + "/" + mkr.name
			if !errors.Is(sawErr, boom) {
				t.Fatalf("%s: terminal error %v, want the reader's error (io.EOF would silently truncate)", label, sawErr)
			}
			// Every byte the reader delivered must have been emitted before
			// the error — the final partial chunk is not dropped.
			if !bytes.Equal(got, data) {
				t.Errorf("%s: emitted %d of %d delivered bytes before surfacing the error", label, len(got), len(data))
			}
			// The error must be sticky.
			if _, err := c.Next(); !errors.Is(err, boom) {
				t.Errorf("%s: second Next after failure returned %v, want the same error", label, err)
			}
		}
	}
}

// TestReadErrorImmediateAllChunkers: a reader that fails on its very first
// call (no data at all) must surface the error from the first Next.
func TestReadErrorImmediateAllChunkers(t *testing.T) {
	boom := errors.New("dead on arrival")
	for _, impl := range errorPathChunkers {
		c, err := impl.mk(&failingReader{err: boom}, Params{ECS: 1024})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Next(); !errors.Is(err, boom) {
			t.Errorf("%s: first Next returned %v, want the reader's error", impl.name, err)
		}
	}
}

// TestStalledReaderIsGivenUp: a reader that delivers its bytes and then
// returns (0, nil) for ever is legal and must not hang Next — no
// cancellation reaches a chunker inside a Read loop. After maxEmptyReads
// empty reads in a row the filler gives the reader up: the bytes delivered
// come out first, as with any mid-stream error, then io.ErrNoProgress,
// sticky.
func TestStalledReaderIsGivenUp(t *testing.T) {
	data := streamData("random", 69, 10_000)
	for _, impl := range allChunkers {
		// A failingReader whose error is nil stalls instead of failing.
		c, err := impl.mk(&failingReader{data: append([]byte(nil), data...)}, Params{ECS: 1024})
		if err != nil {
			t.Fatal(err)
		}
		chunks, err := chunkAll(c)
		if !errors.Is(err, io.ErrNoProgress) {
			t.Fatalf("%s: terminal error %v, want io.ErrNoProgress", impl.name, err)
		}
		if !bytes.Equal(reassemble(chunks), data) {
			t.Errorf("%s: emitted %d of %d delivered bytes before giving the reader up",
				impl.name, len(reassemble(chunks)), len(data))
		}
		if _, err := c.Next(); !errors.Is(err, io.ErrNoProgress) {
			t.Errorf("%s: second Next after giving up returned %v", impl.name, err)
		}
	}
}
