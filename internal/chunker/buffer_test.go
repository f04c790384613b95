package chunker

import (
	"bytes"
	"io"
	"math/rand"
	"testing"
)

// TestChunkBuffersBelongToTheCaller pins Chunk.Data's ownership contract
// for every chunker: a returned buffer is never handed out again, an
// append to it never reaches another chunk, and the slab-backed chunkers
// return it clipped (cap == len). Two chunkers are drained in lockstep so
// chunks of different streams are checked against each other too. The
// streams cross every slab size of the slab reader — FuzzChunkerParity
// caps its inputs at 256 KiB and so never sees the larger slabs.
func TestChunkBuffersBelongToTheCaller(t *testing.T) {
	const n = 3 << 20
	if n < 2*slabMin+2*slabMax {
		t.Fatal("fixture: stream does not cross the slab reader's slab boundaries")
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

		for s := range got {
			for _, ch := range got[s] {
				if slabBacked(impl.name) && cap(ch.Data) != len(ch.Data) {
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

// slabBacked reports whether the named chunker returns views of the slab
// reader's slabs: every one but the per-byte references and Fixed.
func slabBacked(name string) bool {
	return name == "fastrabin" || name == "fastgear" || name == "tttd"
}

// scribbleReader returns short reads and then overwrites all of p past
// what it returned, which io.Reader allows: a chunker whose chunks are
// views of its read buffer must never hand out a byte a later Read can
// reach.
type scribbleReader struct {
	data []byte
	rng  *rand.Rand
}

func (r *scribbleReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, io.EOF
	}
	n := min(len(p), len(r.data), 1+r.rng.Intn(12<<10))
	copy(p, r.data[:n])
	r.data = r.data[n:]
	for i := n; i < len(p); i++ {
		p[i] = byte(r.rng.Intn(256))
	}
	return n, nil
}

// TestSlabViewsStayValid keeps every chunk of a stream that crosses every
// slab size, read in short reads that scribble over the rest of each
// buffer, and checks after EOF that each chunk still holds its input bytes
// and is clipped — for every chunker that returns slab views.
func TestSlabViewsStayValid(t *testing.T) {
	const n = 3<<20 + 4093
	data := streamData("random", 73, n)
	for _, impl := range allChunkers {
		if !slabBacked(impl.name) {
			continue
		}
		c, err := impl.mk(&scribbleReader{data: data, rng: rand.New(rand.NewSource(5))}, Params{ECS: 4096})
		if err != nil {
			t.Fatal(err)
		}
		got, err := chunkAll(c)
		if err != nil {
			t.Fatal(err)
		}
		var off int64
		for _, ch := range got {
			if cap(ch.Data) != len(ch.Data) {
				t.Fatalf("%s: chunk at %d has cap %d, len %d", impl.name, ch.Off, cap(ch.Data), len(ch.Data))
			}
			if ch.Off != off || !bytes.Equal(ch.Data, data[off:off+ch.Size()]) {
				t.Fatalf("%s: chunk at %d (want offset %d) no longer holds its input bytes", impl.name, ch.Off, off)
			}
			off += ch.Size()
		}
		if off != n {
			t.Fatalf("%s: chunks cover %d of %d bytes", impl.name, off, n)
		}
	}
}

// TestGatherRunsKeepOrCopy pins Gather: back-to-back chunks of one slab
// become one run, a slab the container mostly stores is kept as views, one
// it mostly does not is copied, back-to-back copied runs together, and
// chunks cut elsewhere are copied.
func TestGatherRunsKeepOrCopy(t *testing.T) {
	data := streamData("random", 74, 3<<20)
	c, err := NewFastRabin(bytes.NewReader(data), Params{ECS: 4096})
	if err != nil {
		t.Fatal(err)
	}
	chunks, err := chunkAll(c)
	if err != nil {
		t.Fatal(err)
	}
	same := func(a, b []byte) bool { return len(a) > 0 && len(b) > 0 && &a[0] == &b[0] }
	var all, sparse Gather
	var want []byte
	for i, ch := range chunks {
		all.Add(ch)
		if i%3 == 0 { // stores a third of every slab: all copied
			sparse.Add(ch)
			want = append(want, ch.Data...)
		}
	}
	runs := all.Runs()
	if !bytes.Equal(bytes.Join(runs, nil), data) {
		t.Fatal("the runs of every chunk are not the stream")
	}
	if len(runs) > 1+len(data)/slabMin {
		t.Fatalf("%d runs for %d bytes: adjacent views were not merged", len(runs), len(data))
	}
	starts := make(map[*byte]bool)
	for _, ch := range chunks {
		starts[&ch.Data[0]] = true
	}
	for i, r := range runs[:len(runs)-1] { // the last slab may be mostly empty
		if !starts[&r[0]] {
			t.Fatalf("run %d of %d is not a view of the chunks' slab", i, len(runs))
		}
	}
	runs = sparse.Runs()
	if len(runs) != 1 || !bytes.Equal(runs[0], want) {
		t.Fatalf("a container storing a third of each slab is %d runs, want one copy", len(runs))
	}
	if same(runs[0], chunks[0].Data) {
		t.Fatal("the copy aliases the slab")
	}

	// Chunks cut elsewhere are each their own allocation: one copy.
	var wire Gather
	parts := [][]byte{[]byte("abc"), []byte("defg")}
	for _, p := range parts {
		wire.Add(Chunk{Data: p})
	}
	if r := wire.Runs(); len(r) != 1 || string(r[0]) != "abcdefg" || same(r[0], parts[0]) {
		t.Fatalf("chunks cut elsewhere are one copy: got %q", r)
	}
}
