package chunker

import (
	"bytes"
	"io"
	"testing"
)

// TestChunkBuffersBelongToTheCaller pins Chunk.Data's ownership contract
// for every chunker: a returned buffer is never handed out again, an
// append to it never reaches another chunk, and the arena-backed chunkers
// return it clipped (cap == len). Two chunkers are drained in lockstep so
// chunks of different streams are checked against each other too. The
// streams cross every slab size of the arena — FuzzChunkerParity caps its
// inputs at 256 KiB and so never sees the larger slabs.
func TestChunkBuffersBelongToTheCaller(t *testing.T) {
	const n = 3 << 20
	if n < 2*slabMin+2*slabMax {
		t.Fatal("fixture: stream does not cross the arena's slab boundaries")
	}
	streams := [2][]byte{streamData("random", 71, n), streamData("random", 72, n)}
	flip := func(b []byte) {
		for i := range b {
			b[i] = ^b[i]
		}
	}
	for _, impl := range errorPathChunkers {
		var got [2][]Chunk
		var cs [2]Chunker
		for s, data := range streams {
			c, err := impl.mk(bytes.NewReader(data), Params{ECS: 4096})
			if err != nil {
				t.Fatal(err)
			}
			cs[s] = c
		}
		for live := 2; live > 0; {
			live = 0
			for s, c := range cs {
				ch, err := c.Next()
				if err == io.EOF {
					continue
				}
				if err != nil {
					t.Fatal(err)
				}
				live++
				got[s] = append(got[s], ch)
			}
		}

		arena := impl.name == "fastrabin" || impl.name == "fastgear"
		for s := range got {
			for _, ch := range got[s] {
				if arena && cap(ch.Data) != len(ch.Data) {
					t.Fatalf("%s: chunk at %d has cap %d, len %d: not clipped", impl.name, ch.Off, cap(ch.Data), len(ch.Data))
				}
				_ = append(ch.Data, 0xA5, 0x5A)
			}
		}
		for s := range got {
			if !bytes.Equal(reassemble(got[s]), streams[s]) {
				t.Fatalf("%s: appending to chunks changed the bytes of other chunks of stream %d", impl.name, s)
			}
		}

		// Invert every chunk in place, one stream at a time: bytes shared
		// by two chunks would be inverted twice, or change under the other
		// stream's feet.
		want := [2][]byte{bytes.Clone(streams[0]), bytes.Clone(streams[1])}
		for s := range got {
			for _, ch := range got[s] {
				flip(ch.Data)
			}
			flip(want[s])
			for o := range got {
				if !bytes.Equal(reassemble(got[o]), want[o]) {
					t.Fatalf("%s: chunks share memory: inverting stream %d's in place left stream %d wrong", impl.name, s, o)
				}
			}
		}
	}
}
