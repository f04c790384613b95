package client

import (
	"bytes"
	"io"
	"math/rand"
	"testing"

	"mhdedup/internal/chunker"
	"mhdedup/internal/hashutil"
)

// TestOfferDigestsMatchSumBytes: the client hashes each Offer's chunks in
// one call (on the lanes for a full batch, one at a time for a tail of
// fewer than four). Over a stream of several Offers and a tail of one to
// three chunks, every offered digest must be SumBytes of its chunk, and the
// FileEnd's Sum the SHA-1 of those digests in order.
func TestOfferDigestsMatchSumBytes(t *testing.T) {
	data := make([]byte, 200<<10)
	rand.New(rand.NewSource(23)).Read(data)
	// The cuts the client makes under the model's HelloOK (MHD, ECS 1024).
	ch, err := chunker.New(bytes.NewReader(data), chunker.Params{ECS: 1024}, false, false)
	if err != nil {
		t.Fatal(err)
	}
	var chunks [][]byte
	for {
		c, err := ch.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		chunks = append(chunks, c.Data)
	}
	batch := 16 // at least the lanes' width, with a tail of 1 to 3
	for ; batch <= 64 && (len(chunks)%batch == 0 || len(chunks)%batch > 3); batch++ {
	}
	if batch > 64 || len(chunks)/batch < 3 {
		t.Fatalf("%d chunks: no batch of 16 to 64 leaves three Offers and a tail of 1 to 3", len(chunks))
	}

	s := newHostile(t, nil)
	cfg := hostileConfig(s)
	cfg.BatchChunks = batch
	ing, err := Connect(cfg)
	if err != nil {
		t.Fatal(err)
	}
	within(t, "PutFile", func() {
		if err := ing.PutFile("f", bytes.NewReader(data)); err != nil {
			t.Error(err)
		}
		if err := ing.Close(); err != nil {
			t.Error(err)
		}
	})
	t.Logf("%d chunks in Offers of %d, a tail of %d", len(chunks), batch, len(chunks)%batch)
	if len(s.offered) != len(chunks) || len(s.ends) != 1 {
		t.Fatalf("the server heard %d offered chunks and %d FileEnds, want %d and 1", len(s.offered), len(s.ends), len(chunks))
	}
	digests := hashutil.NewHasher()
	for i, c := range chunks {
		want := hashutil.SumBytes(c)
		if e := s.offered[i]; e.Hash != want || int(e.Size) != len(c) {
			t.Fatalf("chunk %d of %d offered as %s (%d bytes), want %s (%d)", i, len(chunks), e.Hash, e.Size, want, len(c))
		}
		digests.Write(want[:])
	}
	if fe := s.ends[0]; fe.Sum != digests.Sum() || fe.TotalBytes != uint64(len(data)) {
		t.Fatalf("FileEnd %+v, want Sum %s over the digests and %d bytes", fe, digests.Sum(), len(data))
	}
}
