package server

import (
	"bytes"
	"context"
	"errors"
	"io"
	"runtime"
	"testing"
	"time"

	"mhdedup/internal/algo"
	"mhdedup/internal/client"
	"mhdedup/internal/core"
	"mhdedup/internal/exp"
	"mhdedup/internal/hashutil"
	"mhdedup/internal/metrics"
	"mhdedup/internal/simdisk"
	"mhdedup/internal/wire"
)

// Tests of pre-chunked ingest: the shard stores the client's cuts and
// digests as offered, so what it no longer recomputes it must refuse when
// it is wrong — and what an honest client sends must leave the store a
// local PutFile leaves.

// TestClientCutsWithAnnouncedPolynomial: the cut contract carries the
// Rabin polynomial, so an engine cutting with a non-default one announces
// it, and a client that pins nothing cuts with it: the shard stores what
// a local PutFile stores, object for object.
func TestClientCutsWithAnnouncedPolynomial(t *testing.T) {
	cfg := newTestEngine(t).Config()
	cfg.Poly = 0x3DA3358B4DC175
	local, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	remote, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv, _, addr := startServer(t, func(c *Config) { c.Engine = remote })
	if got := srv.Options().Poly; got != uint64(cfg.Poly) {
		t.Fatalf("announced polynomial %#x, want %#x", got, uint64(cfg.Poly))
	}
	ing, err := client.Connect(client.Config{Addr: addr})
	if err != nil {
		t.Fatal(err)
	}
	data := genData(43, 512<<10)
	if err := local.PutFile("img", bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	if err := ing.PutFile("img", bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	if err := ing.Close(); err != nil {
		t.Fatal(err)
	}
	for _, eng := range []*core.Dedup{local, remote} {
		if err := eng.Finish(); err != nil {
			t.Fatal(err)
		}
	}
	compareDisks(t, remote, local)
}

// offered is one Offer entry and the bytes sent for it; a hostile client
// makes them disagree.
type offered struct {
	hash hashutil.Sum
	size uint32
	data []byte
}

func honest(data []byte) offered {
	return offered{hash: hashutil.SumBytes(data), size: uint32(len(data)), data: data}
}

// digestSum is an honest FileEnd.Sum: SHA-1 over the chunk digests in order.
func digestSum(chunks ...offered) hashutil.Sum {
	h := hashutil.NewHasher()
	for _, c := range chunks {
		h.Write(c.hash[:])
	}
	return h.Sum()
}

// hostileFile is one file a hostile client sends: its Offers, and the
// FileEnd it closes with if the server lets it get that far.
type hostileFile struct {
	name   string
	offers [][]offered
	end    wire.FileEnd
	code   uint16
}

// hostileFiles is the table: each file is refused with its code, commits
// nothing, and leaves the server serving honest clients. ECS 4096 bounds
// chunks to [1024, 16384].
func hostileFiles() []hostileFile {
	a, b, c := honest(genData(101, 3000)), honest(genData(102, 5000)), honest(genData(103, 2000))
	short := honest(genData(104, 1023))
	stream := append(append(append([]byte(nil), a.data...), b.data...), c.data...)
	total := uint64(len(stream))
	return []hostileFile{
		{name: "size 0", code: wire.CodeProtocol,
			offers: [][]offered{{a, honest(nil), b}}},
		{name: "size above Max", code: wire.CodeProtocol,
			offers: [][]offered{{a, honest(genData(105, 16385))}}},
		{name: "sub-Min chunk then another, one Offer", code: wire.CodeProtocol,
			offers: [][]offered{{a, short, b}}},
		{name: "sub-Min chunk then another, two Offers", code: wire.CodeProtocol,
			offers: [][]offered{{a, short}, {b}}},
		{name: "bytes that do not hash to the offered digest", code: wire.CodeIntegrity,
			offers: [][]offered{{a, {hash: b.hash, size: 5000, data: genData(106, 5000)}}}},
		{name: "Sum over the stream (protocol version 1)", code: wire.CodeIntegrity,
			offers: [][]offered{{a, b}, {c}},
			end:    wire.FileEnd{TotalBytes: total, Sum: hashutil.SumBytes(stream)}},
		{name: "digests summed out of order", code: wire.CodeIntegrity,
			offers: [][]offered{{a, b}, {c}},
			end:    wire.FileEnd{TotalBytes: total, Sum: digestSum(b, a, c)}},
		{name: "wrong TotalBytes", code: wire.CodeIntegrity,
			offers: [][]offered{{a, b}, {c}},
			end:    wire.FileEnd{TotalBytes: total + 1, Sum: digestSum(a, b, c)}},
	}
}

// send plays f on an ingest session until the server answers with an Error
// frame, which it returns; a server that acknowledges the whole file fails
// the test.
func (f hostileFile) send(t *testing.T, addr string) wire.ErrorMsg {
	t.Helper()
	_, write, read := rawConn(t, addr)
	write(wire.TypeHello, wire.Hello{Mode: wire.ModeIngest}.Marshal())
	if fr := read(); fr.Type != wire.TypeHelloOK {
		t.Fatalf("expected HelloOK, got %s", wire.TypeName(fr.Type))
	}
	write(wire.TypeFileBegin, wire.FileBegin{Seq: 1, Name: "f"}.Marshal())
	expectAck(t, read, 1)
	seq := uint64(1)
	// refused reads the answer to what was just written: the refusal, or
	// anything else, which must then be of type ok.
	refused := func(ok uint8) (wire.Frame, *wire.ErrorMsg) {
		fr := read()
		if fr.Type == wire.TypeError {
			em, err := wire.UnmarshalError(fr.Payload)
			if err != nil {
				t.Fatal(err)
			}
			return fr, &em
		}
		if fr.Type != ok {
			t.Fatalf("expected %s or Error, got %s", wire.TypeName(ok), wire.TypeName(fr.Type))
		}
		return fr, nil
	}
	for _, offer := range f.offers {
		seq++
		entries := make([]wire.OfferEntry, len(offer))
		for i, o := range offer {
			entries[i] = wire.OfferEntry{Hash: o.hash, Size: o.size}
		}
		write(wire.TypeOffer, wire.Offer{Seq: seq, Entries: entries}.Marshal())
		fr, em := refused(wire.TypeNeed)
		if em != nil {
			return *em
		}
		need, err := wire.UnmarshalNeed(fr.Payload)
		if err != nil {
			t.Fatal(err)
		}
		chunks := make([][]byte, len(need.Indices))
		for i, idx := range need.Indices {
			chunks[i] = offer[idx].data
		}
		if len(chunks) > 0 {
			write(wire.TypeChunkData, wire.ChunkData{Seq: seq, Chunks: chunks}.Marshal())
		}
		if _, em := refused(wire.TypeAck); em != nil {
			return *em
		}
	}
	f.end.Seq = seq + 1
	write(wire.TypeFileEnd, f.end.Marshal())
	if _, em := refused(wire.TypeAck); em != nil {
		return *em
	}
	t.Fatal("the server acknowledged the whole file")
	return wire.ErrorMsg{}
}

// TestHostileClientCommitsNothing: cuts no negotiated chunker could have
// made are a protocol error, content that is not what was offered or
// declared is an integrity error, and either way the name neither restores
// nor lists and the next honest session is served.
func TestHostileClientCommitsNothing(t *testing.T) {
	for _, f := range hostileFiles() {
		t.Run(f.name, func(t *testing.T) {
			srv, eng, addr := startServer(t, nil)
			if em := f.send(t, addr); em.Code != f.code || em.Retryable {
				t.Fatalf("refused with code %d retryable %v (%s), want code %d, final", em.Code, em.Retryable, em.Msg, f.code)
			}
			var sink bytes.Buffer
			if err := eng.Restore("f", &sink); err == nil {
				t.Errorf("refused file restores %d bytes under its name", sink.Len())
			}
			if names, err := client.List(clientConfig(srv, addr)); err != nil || len(names) != 0 {
				t.Errorf("refused file is listed: %v, %v", names, err)
			}
			if f.code == wire.CodeProtocol {
				if n := srv.cOffersRefused.Load(); n != 1 {
					t.Errorf("server.offers.refused_bounds = %d, want 1", n)
				}
			}
			// The same server, a fresh honest session, the same name.
			data := genData(107, 300<<10)
			ing, err := client.Connect(clientConfig(srv, addr))
			if err != nil {
				t.Fatal(err)
			}
			if err := ing.PutFile("f", bytes.NewReader(data)); err != nil {
				t.Fatal(err)
			}
			if err := ing.Close(); err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			if _, err := client.Restore(clientConfig(srv, addr), "f", true, &got); err != nil || !bytes.Equal(got.Bytes(), data) {
				t.Fatalf("honest file after the refusal: restored %d of %d bytes, %v", got.Len(), len(data), err)
			}
		})
	}
}

// TestClientPutMatchesLocalPutFile: files put through client and server —
// cut and hashed at the client, stored as offered — leave the server's
// engine object for object the store a local engine's PutFile leaves, for
// every chunker the handshake can name.
func TestClientPutMatchesLocalPutFile(t *testing.T) {
	gen1 := genData(41, 1<<20)
	files := []struct {
		name string
		data []byte
	}{{"img-gen1", gen1}, {"img-gen2", mutate(gen1, 42, 8, 4096)}, {"empty", nil}, {"tiny", []byte("abc")}}
	for _, ck := range []struct {
		name       string
		tttd, gear bool
	}{{"rabin", false, false}, {"gear", false, true}, {"tttd", true, false}} {
		t.Run(ck.name, func(t *testing.T) {
			build := func() *core.Dedup {
				p := exp.Params{Algo: exp.AlgoMHD, Options: algo.Options{ECS: 4096, SD: 64, ExpectedInputBytes: 64 << 20}}
				p.TTTD, p.FastCDC = ck.tttd, ck.gear
				eng, err := exp.Build(p)
				if err != nil {
					t.Fatal(err)
				}
				return eng.(*core.Dedup)
			}
			local, remote := build(), build()
			srv, _, addr := startServer(t, func(c *Config) { c.Engine = remote })
			ing, err := client.Connect(clientConfig(srv, addr))
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range files {
				if err := local.PutFile(f.name, bytes.NewReader(f.data)); err != nil {
					t.Fatal(err)
				}
				if err := ing.PutFile(f.name, bytes.NewReader(f.data)); err != nil {
					t.Fatal(err)
				}
			}
			if err := ing.Close(); err != nil {
				t.Fatal(err)
			}
			for _, eng := range []*core.Dedup{local, remote} {
				if err := eng.Finish(); err != nil {
					t.Fatal(err)
				}
			}
			compareDisks(t, remote, local)
			// The shard scanned nothing and hashed only what SHM, BME and
			// HHR hash: one pass less than the engine that cut for itself.
			l, r := local.Stats(), remote.Stats()
			if r.ChunkedBytes != 0 || r.HashedBytes != l.HashedBytes-l.InputBytes {
				t.Errorf("shard scanned %d bytes and hashed %d; the local engine hashed %d of %d input",
					r.ChunkedBytes, r.HashedBytes, l.HashedBytes, l.InputBytes)
			}
		})
	}
}

// TestChunkFeedCancelUnblocksPut: a handler blocked handing a run to a
// stalled engine is released by cancel — it gets the engine's error, the
// file is not committed and no goroutine is left behind.
func TestChunkFeedCancelUnblocksPut(t *testing.T) {
	eng := newTestEngine(t)
	run := func(i int) []core.HashedChunk {
		c := honest(genData(int64(200+i), 4096))
		return []core.HashedChunk{{Hash: c.hash, Data: c.data}}
	}
	// Run 0 is already stored, so feeding it again sends the engine to the
	// disk for its hook, where the test holds it.
	pulled := false
	if err := eng.PutChunksContext(context.Background(), "seen", func() ([]core.HashedChunk, error) {
		if pulled {
			return nil, io.EOF
		}
		pulled = true
		return run(0), nil
	}); err != nil {
		t.Fatal(err)
	}
	stall, stalled := make(chan struct{}), make(chan struct{}, 1)
	eng.Disk().SetFailureHook(func(simdisk.Op, simdisk.Category, string) error {
		select {
		case stalled <- struct{}{}:
		default:
		}
		<-stall
		return nil
	})
	baseline := runtime.NumGoroutine()
	f := beginFeed(context.Background(), eng, "f", metrics.NewRegistry().Histogram("wait"))
	if err := f.put(run(0)); err != nil {
		t.Fatal(err)
	}
	<-stalled // the engine is inside its first disk operation
	blocked := make(chan error, 1)
	go func() {
		for i := 1; ; i++ {
			if err := f.put(run(i)); err != nil {
				blocked <- err
				return
			}
		}
	}()
	select {
	case err := <-blocked:
		t.Fatalf("put failed with the engine merely stalled: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	f.cancel()
	close(stall)
	select {
	case err := <-blocked:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("put = %v, want the engine's cancellation", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancel did not release the blocked put")
	}
	for i := 0; runtime.NumGoroutine() > baseline && i < 200; i++ {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		t.Errorf("goroutines leaked: %d now, baseline %d", n, baseline)
	}
	if eng.Disk().Exists(simdisk.FileManifest, "f") {
		t.Error("the cancelled file was committed")
	}
}
