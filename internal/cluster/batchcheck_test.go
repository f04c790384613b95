package cluster_test

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mhdedup/internal/cluster"
	"mhdedup/internal/hashutil"
	"mhdedup/internal/metrics"
	"mhdedup/internal/wire"
)

// TestGatewayChunkDataFrameCheckedWhole is internal/server's
// TestChunkDataFrameCheckedWhole at the gateway: a frame of 24 chunks is
// hashed in one call and relayed whole or refused. One corrupt chunk past
// the lanes' first 16 is refused with CodeIntegrity naming it, and no chunk
// of the frame reaches a shard, neither relayed to a replica nor seeded to
// a ring owner; a frame that also runs past the need list is refused for
// its position, with CodeProtocol. An honest frame of the same chunks is
// acknowledged.
func TestGatewayChunkDataFrameCheckedWhole(t *testing.T) {
	const n, bad = 24, 19
	chunks := make([][]byte, n)
	entries := make([]wire.OfferEntry, n)
	for i := range chunks {
		chunks[i] = genData(int64(400+i), 1536+97*i)
		entries[i] = wire.OfferEntry{Hash: hashutil.SumBytes(chunks[i]), Size: uint32(len(chunks[i]))}
	}
	corrupt := append([][]byte(nil), chunks...)
	corrupt[bad] = append([]byte(nil), chunks[bad]...)
	corrupt[bad][len(corrupt[bad])/2] ^= 1

	for _, tc := range []struct {
		name   string
		frame  [][]byte
		code   uint16 // 0: acknowledged
		refuse string
	}{
		{"corrupt chunk", corrupt, wire.CodeIntegrity, fmt.Sprintf("offer 2 index %d: chunk bytes do not hash to the offered address", bad)},
		{"corrupt chunk and a position fault", append(corrupt[:n:n], chunks[0]), wire.CodeProtocol, fmt.Sprintf("position %d outside need list", n)},
		{"honest", chunks, 0, ""},
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
			read := func(want uint8) wire.Frame {
				t.Helper()
				conn.SetReadDeadline(time.Now().Add(10 * time.Second))
				f, err := wire.ReadFrame(conn, wire.DefaultMaxPayload)
				if err != nil {
					t.Fatalf("read frame: %v", err)
				}
				if f.Type != want {
					em, _ := wire.UnmarshalError(f.Payload)
					t.Fatalf("expected %s, got %s %+v", wire.TypeName(want), wire.TypeName(f.Type), em)
				}
				return f
			}
			write(wire.TypeHello, wire.Hello{Mode: wire.ModeIngest}.Marshal())
			read(wire.TypeHelloOK)
			write(wire.TypeFileBegin, wire.FileBegin{Seq: 1, Name: "f"}.Marshal())
			read(wire.TypeAck)
			write(wire.TypeOffer, wire.Offer{Seq: 2, Entries: entries}.Marshal())
			if need, err := wire.UnmarshalNeed(read(wire.TypeNeed).Payload); err != nil || len(need.Indices) != n {
				t.Fatalf("need = %+v, %v; want all %d", need, err, n)
			}
			write(wire.TypeChunkData, wire.ChunkData{Seq: 2, Chunks: tc.frame}.Marshal())
			if tc.code == 0 {
				read(wire.TypeAck)
				return
			}
			em, err := wire.UnmarshalError(read(wire.TypeError).Payload)
			if err != nil || em.Code != tc.code || em.Retryable || !strings.Contains(em.Msg, tc.refuse) {
				t.Fatalf("refusal = %+v, %v; want final code %d saying %q", em, err, tc.code, tc.refuse)
			}
			for i, srv := range cl.servers {
				if _, k := srv.CacheStats(); k != 0 {
					t.Errorf("shard %d caches %d chunks of a refused frame", i, k)
				}
			}
		})
	}
}

// TestPeerFetchDropsOnlyTheCorruptChunk: a shard answers the gateway's
// PeerFetch with one chunk whose bytes are not its address (here a proxy in
// front of the shard flips a byte of the first chunk it serves). The
// gateway re-hashes the whole reply in one call and drops exactly that
// chunk: compared with the same run through an honest proxy, the client
// sends one chunk more and one chunk fewer is peer-routed, and the file
// restores verified.
func TestPeerFetchDropsOnlyTheCorruptChunk(t *testing.T) {
	data := genData(17, 2<<20)
	run := func(corrupt bool) (sent, routed int64) {
		tc := startCluster(t, 2, nil)
		byShard := tc.namesByShard(t, "", 1)
		first, second := byShard["s0"][0], byShard["s1"][0]
		// The second put is homed on s1; what s1 lacks it fetches from the
		// chunks' ring owners, s0 among them, through the proxy.
		proxy, reg := peerProxy(t, tc.shards[0].Addr, corrupt), metrics.NewRegistry()
		_, cfg := tc.startGateway(t, func(c *cluster.GatewayConfig) {
			c.Shards = append([]cluster.Shard(nil), c.Shards...)
			c.Shards[0].Addr = proxy
			c.Registry = reg
		})
		putAll(t, cfg, map[string][]byte{first: data}, []string{first})
		routed0 := reg.Counter("gateway.chunks.peer_routed").Load()
		st := putAll(t, cfg, map[string][]byte{second: data}, []string{second})
		routed = reg.Counter("gateway.chunks.peer_routed").Load() - routed0
		if got := restoreOne(t, cfg, second); !bytes.Equal(got, data) {
			t.Fatalf("corrupt=%v: the file restored different bytes", corrupt)
		}
		return st.ChunksSent, routed
	}
	sent, routed := run(false)
	badSent, badRouted := run(true)
	t.Logf("honest peer: %d chunks from the client, %d peer-routed; one corrupt: %d, %d", sent, routed, badSent, badRouted)
	if routed == 0 {
		t.Fatal("nothing was peer-routed: the test exercises nothing")
	}
	if badSent != sent+1 || badRouted != routed-1 {
		t.Fatalf("one corrupt chunk from a peer: %d sent and %d routed, want %d and %d", badSent, badRouted, sent+1, routed-1)
	}
}

// peerProxy relays frames between the gateway and the shard at addr. With
// corrupt set, it flips one byte of the first chunk of the first non-empty
// PeerChunks reply.
func peerProxy(t *testing.T, addr string, corrupt bool) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var conns []net.Conn
	t.Cleanup(func() {
		ln.Close()
		mu.Lock()
		defer mu.Unlock()
		for _, c := range conns {
			c.Close()
		}
	})
	var done atomic.Bool
	done.Store(!corrupt)
	go func() {
		for {
			gw, err := ln.Accept()
			if err != nil {
				return
			}
			shard, err := net.Dial("tcp", addr)
			if err != nil {
				gw.Close()
				continue
			}
			mu.Lock()
			conns = append(conns, gw, shard)
			mu.Unlock()
			go func() {
				defer shard.Close()
				io.Copy(shard, gw)
			}()
			go func() {
				defer gw.Close()
				for {
					f, err := wire.ReadFrame(shard, wire.DefaultMaxPayload)
					if err != nil {
						return
					}
					if f.Type == wire.TypePeerChunks && !done.Load() {
						if pc, err := wire.UnmarshalPeerChunks(f.Payload); err == nil && len(pc.Chunks) > 0 && done.CompareAndSwap(false, true) {
							pc.Chunks[0][0] ^= 1 // the chunk is a view of the payload
						}
					}
					if _, err := wire.WriteFrame(gw, f.Type, f.Payload); err != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}
