package cluster_test

import (
	"net"
	"strings"
	"testing"
	"time"

	"mhdedup/internal/cluster"
	"mhdedup/internal/hashutil"
	"mhdedup/internal/simdisk"
	"mhdedup/internal/wire"
)

// TestClusterHostileClientCommitsOnNoReplica: through the gateway at R = 2
// every replica stores the client's cuts and digests as offered, so a cut
// no negotiated chunker could have made, and a FileEnd.Sum over the stream
// instead of the digests (the version-1 meaning), must each be refused by
// the shards with their own code — relayed final to the client — and leave
// the file on no replica. (internal/server's TestHostileClientCommitsNothing
// is the full table against one shard.)
func TestClusterHostileClientCommitsOnNoReplica(t *testing.T) {
	a, b := genData(301, 3000), genData(302, 5000)
	for _, tc := range []struct {
		name  string
		chunk []byte // offered after a
		sum   hashutil.Sum
		code  uint16
	}{
		{"size above Max", genData(303, 16385), hashutil.Sum{}, wire.CodeProtocol},
		{"Sum over the stream", b, hashutil.SumBytes(append(append([]byte(nil), a...), b...)), wire.CodeIntegrity},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cl := startCluster(t, 3, func(c *cluster.GatewayConfig) { c.Replication = 2 })
			conn, err := net.Dial("tcp", cl.gwAddr)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			write := func(typ uint8, payload []byte) {
				t.Helper()
				if _, err := wire.WriteFrame(conn, typ, payload); err != nil {
					t.Fatalf("write %s: %v", wire.TypeName(typ), err)
				}
			}
			// expect reads one frame: want, or the refusal, which ends the
			// conversation.
			expect := func(want uint8) (wire.Frame, bool) {
				t.Helper()
				conn.SetReadDeadline(time.Now().Add(10 * time.Second))
				f, err := wire.ReadFrame(conn, wire.DefaultMaxPayload)
				if err != nil {
					t.Fatalf("read frame: %v", err)
				}
				if f.Type == wire.TypeError {
					em, err := wire.UnmarshalError(f.Payload)
					if err != nil || em.Code != tc.code || em.Retryable {
						t.Fatalf("refusal = %+v, %v; want code %d, final", em, err, tc.code)
					}
					return f, false
				}
				if f.Type != want {
					t.Fatalf("expected %s or Error, got %s", wire.TypeName(want), wire.TypeName(f.Type))
				}
				return f, true
			}
			refused := func() bool {
				write(wire.TypeHello, wire.Hello{Mode: wire.ModeIngest}.Marshal())
				expect(wire.TypeHelloOK)
				write(wire.TypeFileBegin, wire.FileBegin{Seq: 1, Name: "f"}.Marshal())
				expect(wire.TypeAck)
				chunks := [][]byte{a, tc.chunk}
				write(wire.TypeOffer, wire.Offer{Seq: 2, Entries: []wire.OfferEntry{
					{Hash: hashutil.SumBytes(a), Size: uint32(len(a))},
					{Hash: hashutil.SumBytes(tc.chunk), Size: uint32(len(tc.chunk))},
				}}.Marshal())
				f, ok := expect(wire.TypeNeed)
				if !ok {
					return true
				}
				need, err := wire.UnmarshalNeed(f.Payload)
				if err != nil || len(need.Indices) != len(chunks) {
					t.Fatalf("need = %+v, %v", need, err)
				}
				write(wire.TypeChunkData, wire.ChunkData{Seq: 2, Chunks: chunks}.Marshal())
				if _, ok := expect(wire.TypeAck); !ok {
					return true
				}
				write(wire.TypeFileEnd, wire.FileEnd{Seq: 3, TotalBytes: uint64(len(a) + len(tc.chunk)), Sum: tc.sum}.Marshal())
				_, ok = expect(wire.TypeAck)
				return !ok
			}
			if !refused() {
				t.Fatal("the cluster acknowledged the whole file")
			}
			for i, eng := range cl.engines {
				if names := eng.Disk().Names(simdisk.FileManifest); len(names) != 0 {
					t.Errorf("shard %d lists %v", i, names)
				}
			}
			// The cluster still serves an honest client, under the same name.
			files := map[string][]byte{"f": genData(304, 300<<10)}
			putAll(t, cl.clientConfig(), files, []string{"f"})
			if got := restoreOne(t, cl.clientConfig(), "f"); string(got) != string(files["f"]) {
				t.Fatal("honest file after the refusal restored different bytes")
			}
		})
	}
}

// TestGatewayMalformedIngestCommandIsRefused is internal/server's
// TestMalformedIngestCommandIsRefused through the gateway, which decodes the
// client's commands with the same helper: a payload that does not decode
// ends the session with a final protocol error instead of parking it.
func TestGatewayMalformedIngestCommandIsRefused(t *testing.T) {
	cl := startCluster(t, 2, nil)
	long := wire.FileBegin{Seq: 1, Name: strings.Repeat("n", wire.MaxNameLen+1)}.Marshal()
	for _, cmd := range []struct {
		typ     uint8
		payload []byte
	}{
		{wire.TypeFileBegin, []byte{0xFF}},
		{wire.TypeFileBegin, long},
		{wire.TypeOffer, []byte{0xFF}},
		{wire.TypeChunkData, []byte{0xFF}},
		{wire.TypeFileEnd, []byte{0xFF}},
	} {
		conn, err := net.Dial("tcp", cl.gwAddr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		read := func() wire.Frame {
			t.Helper()
			conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			f, err := wire.ReadFrame(conn, wire.DefaultMaxPayload)
			if err != nil {
				t.Fatalf("bad %s: read frame: %v", wire.TypeName(cmd.typ), err)
			}
			return f
		}
		wire.WriteFrame(conn, wire.TypeHello, wire.Hello{Mode: wire.ModeIngest}.Marshal())
		if f := read(); f.Type != wire.TypeHelloOK {
			t.Fatalf("expected HelloOK, got %s", wire.TypeName(f.Type))
		}
		wire.WriteFrame(conn, cmd.typ, cmd.payload)
		f := read()
		if em, err := wire.UnmarshalError(f.Payload); f.Type != wire.TypeError || err != nil ||
			em.Code != wire.CodeProtocol || em.Retryable {
			t.Fatalf("bad %s: answered %s %+v, want a final protocol error", wire.TypeName(cmd.typ), wire.TypeName(f.Type), em)
		}
		deadline := time.Now().Add(5 * time.Second)
		for cl.gw.SessionCount() != 0 && time.Now().Before(deadline) {
			time.Sleep(2 * time.Millisecond)
		}
		if n := cl.gw.SessionCount(); n != 0 {
			t.Fatalf("bad %s: %d sessions left, want the session expired", wire.TypeName(cmd.typ), n)
		}
	}
}
