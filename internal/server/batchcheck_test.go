package server

import (
	"fmt"
	"strings"
	"testing"

	"mhdedup/internal/hashutil"
	"mhdedup/internal/wire"
)

// frameChunks returns n distinct chunks of 1.5 to 3 KiB and their offer.
func frameChunks(seed int64, n int) ([][]byte, []wire.OfferEntry) {
	chunks := make([][]byte, n)
	entries := make([]wire.OfferEntry, n)
	for i := range chunks {
		chunks[i] = genData(seed+int64(i), 1536+97*i)
		entries[i] = wire.OfferEntry{Hash: hashutil.SumBytes(chunks[i]), Size: uint32(len(chunks[i]))}
	}
	return chunks, entries
}

// offerAll opens an ingest session on a fresh server, begins a file and
// offers entries, which a cold cache needs in full.
func offerAll(t *testing.T, entries []wire.OfferEntry) (*Server, func(uint8, []byte), func() wire.Frame) {
	t.Helper()
	srv, _, addr := startServer(t, nil)
	_, write, read := rawConn(t, addr)
	write(wire.TypeHello, wire.Hello{Mode: wire.ModeIngest}.Marshal())
	if f := read(); f.Type != wire.TypeHelloOK {
		t.Fatalf("expected HelloOK, got %s", wire.TypeName(f.Type))
	}
	write(wire.TypeFileBegin, wire.FileBegin{Seq: 1, Name: "f"}.Marshal())
	expectAck(t, read, 1)
	write(wire.TypeOffer, wire.Offer{Seq: 2, Entries: entries}.Marshal())
	if need, err := wire.UnmarshalNeed(read().Payload); err != nil || len(need.Indices) != len(entries) {
		t.Fatalf("need = %+v, %v; want all %d", need, err, len(entries))
	}
	return srv, write, read
}

// cached counts the chunks of entries in srv's chunk cache.
func cached(srv *Server, entries []wire.OfferEntry) int {
	n := 0
	for _, e := range entries {
		if _, ok := srv.cache.get(e.Hash); ok {
			n++
		}
	}
	return n
}

// TestChunkDataFrameCheckedWhole: a ChunkData frame is hashed in one call
// (past the lanes' first 16 chunks here) and applied whole or refused. A
// frame with one corrupt chunk is refused with CodeIntegrity naming that
// chunk, and none of its chunks reaches the cache; a frame that also runs
// past the need list is refused for its position first, with CodeProtocol,
// since positions and sizes are checked before anything is hashed. An
// honest frame of the same chunks is applied and cached under their digests.
func TestChunkDataFrameCheckedWhole(t *testing.T) {
	const n, bad = 24, 19
	chunks, entries := frameChunks(61, n)
	corrupt := append([][]byte(nil), chunks...)
	corrupt[bad] = append([]byte(nil), chunks[bad]...)
	corrupt[bad][len(corrupt[bad])/2] ^= 1

	srv, write, read := offerAll(t, entries)
	write(wire.TypeChunkData, wire.ChunkData{Seq: 2, Chunks: corrupt}.Marshal())
	em := expectError(t, read(), wire.CodeIntegrity, false)
	if want := fmt.Sprintf("offer 2 index %d: chunk bytes do not hash to the offered address", bad); em.Msg != want {
		t.Errorf("refusal %q, want %q", em.Msg, want)
	}
	if k := cached(srv, entries); k != 0 {
		t.Errorf("a refused frame left %d of its %d chunks in the cache", k, n)
	}

	srv, write, read = offerAll(t, entries)
	write(wire.TypeChunkData, wire.ChunkData{Seq: 2, Chunks: append(corrupt, chunks[0])}.Marshal())
	em = expectError(t, read(), wire.CodeProtocol, false)
	if !strings.Contains(em.Msg, fmt.Sprintf("index %d outside need list", n)) {
		t.Errorf("refusal %q, want the position fault", em.Msg)
	}
	if k := cached(srv, entries); k != 0 {
		t.Errorf("a refused frame left %d of its %d chunks in the cache", k, n)
	}

	srv, write, read = offerAll(t, entries)
	write(wire.TypeChunkData, wire.ChunkData{Seq: 2, Chunks: chunks}.Marshal())
	expectAck(t, read, 2)
	if k := cached(srv, entries); k != n {
		t.Errorf("an honest frame cached %d of its %d chunks", k, n)
	}
}

// TestPeerPutCachesUnderBatchedDigests: a PeerPut of more chunks than the
// lanes hold caches every chunk under its own digest, so a PeerFetch by
// address serves them all back.
func TestPeerPutCachesUnderBatchedDigests(t *testing.T) {
	chunks, entries := frameChunks(71, 21)
	_, _, addr := startServer(t, nil)
	_, write, read := rawConn(t, addr)
	write(wire.TypeHello, wire.Hello{Mode: wire.ModePeer}.Marshal())
	if f := read(); f.Type != wire.TypeHelloOK {
		t.Fatalf("expected HelloOK, got %s", wire.TypeName(f.Type))
	}
	write(wire.TypePeerPut, wire.PeerPut{Chunks: chunks}.Marshal())
	if f := read(); f.Type != wire.TypePeerPutOK {
		t.Fatalf("expected PeerPutOK, got %s", wire.TypeName(f.Type))
	}
	write(wire.TypePeerFetch, wire.PeerFetch{Entries: entries}.Marshal())
	pc, err := wire.UnmarshalPeerChunks(read().Payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(pc.Indices) != len(entries) {
		t.Fatalf("PeerFetch served %d of %d seeded chunks", len(pc.Indices), len(entries))
	}
}
