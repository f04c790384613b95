// The client's kept restore links, end to end: one dial serves every List,
// Restore and RestoreRange of a configuration; a link the gateway dropped
// while it sat idle is retried, never once a byte reached the writer; a
// stream that failed never hands its tail to the next call; a link is kept
// per address, tenant and secret; idle links are bounded in all; and a
// draining dedupd or dedup-gw closes the links a client keeps.
package cluster_test

import (
	"bytes"
	"context"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"mhdedup/internal/client"
	"mhdedup/internal/cluster"
	"mhdedup/internal/hashutil"
	"mhdedup/internal/metrics"
	"mhdedup/internal/wire"
)

// clientIdleTotal is internal/client's bound on idle restore links in all.
const clientIdleTotal = 16

// clientLinks reads the client's process-wide link counters.
func clientLinks() (dials, reuses int64) {
	return metrics.Default.Counter("client.restore.dials").Load(), metrics.Default.Counter("client.restore.link_reuses").Load()
}

// TestClientLinkOneDialManyRequests: twelve Restores, RestoreRanges and
// Lists through one Config make one dial and eleven reuses, each answer
// bit-exact, as the client's counters say.
func TestClientLinkOneDialManyRequests(t *testing.T) {
	tc := startCluster(t, 2, nil)
	files := map[string][]byte{"a": genData(801, 300_000), "b": genData(802, 120_000)}
	putAll(t, tc.clientConfig(), files, []string{"a", "b"})
	cfg := tc.clientConfig()
	dials, reuses := clientLinks()
	for i := 0; i < 12; i++ {
		var out bytes.Buffer
		switch i % 3 {
		case 0:
			if _, err := client.Restore(cfg, "a", i%2 == 0, &out); err != nil || !bytes.Equal(out.Bytes(), files["a"]) {
				t.Fatalf("request %d: Restore: err %v, identical %v", i, err, bytes.Equal(out.Bytes(), files["a"]))
			}
		case 1:
			if _, err := client.RestoreRange(cfg, "b", false, 1000, 5000, &out); err != nil || !bytes.Equal(out.Bytes(), files["b"][1000:6000]) {
				t.Fatalf("request %d: RestoreRange: err %v", i, err)
			}
		case 2:
			if names, err := client.List(cfg); err != nil || len(names) != 2 {
				t.Fatalf("request %d: List = %v, %v", i, names, err)
			}
		}
	}
	d, r := clientLinks()
	if d-dials != 1 || r-reuses != 11 {
		t.Fatalf("12 requests made %d dials and %d reuses, want 1 and 11", d-dials, r-reuses)
	}
}

// TestClientLinkStaleIsRetriedOnce: the gateway drops its end of the link
// the client parked (a restart, an idle timeout). The next restore finds
// the link dead before the gateway said a word on it, and runs once more on
// a fresh dial.
func TestClientLinkStaleIsRetriedOnce(t *testing.T) {
	tc := startCluster(t, 1, nil)
	data := genData(811, 200_000)
	putAll(t, tc.clientConfig(), map[string][]byte{"img": data}, []string{"img"})
	cfg := tc.clientConfig()
	restoreOne(t, cfg, "img")
	tc.gwListener.dropConns()
	dials, reuses := clientLinks()
	if got := restoreOne(t, cfg, "img"); !bytes.Equal(got, data) {
		t.Fatal("restore over a stale link differs")
	}
	if d, r := clientLinks(); d-dials != 1 || r-reuses != 1 {
		t.Fatalf("the stale link cost %d dials and %d reuses, want 1 and 1", d-dials, r-reuses)
	}
}

// scriptedGateway stands in for a gateway that answers RestoreReqs as
// answer says. answer gets the connection's and the request's ordinal, from
// 0, and reports whether to keep serving the connection.
func scriptedGateway(t *testing.T, answer func(conn, req int, nc net.Conn) bool) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for conn := 0; ; conn++ {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn int) {
				defer nc.Close()
				if f, err := wire.ReadFrame(nc, 0); err != nil || f.Type != wire.TypeHello {
					return
				}
				wire.WriteFrame(nc, wire.TypeHelloOK, wire.HelloOK{Window: 8, MaxPayload: wire.DefaultMaxPayload}.Marshal())
				for req := 0; ; req++ {
					if f, err := wire.ReadFrame(nc, 0); err != nil || f.Type != wire.TypeRestoreReq || !answer(conn, req, nc) {
						return
					}
				}
			}(conn)
		}
	}()
	return ln.Addr().String()
}

// sendStream writes data as RestoreData frames of 1000 bytes, then end.
func sendStream(nc net.Conn, data []byte, end wire.RestoreEnd) {
	for off := 0; off < len(data); off += 1000 {
		wire.WriteFrame(nc, wire.TypeRestoreData, wire.RestoreData{Data: data[off:min(off+1000, len(data))]}.Marshal())
	}
	wire.WriteFrame(nc, wire.TypeRestoreEnd, end.Marshal())
}

// TestClientLinkNeverCarriesABrokenStream: a kept link that dies after its
// first frame reached the writer is an error, not a retry; a stream whose
// sum does not match is an error and its link is closed, though the server
// has more to say on it; and the next restore, on a fresh link, is
// bit-exact.
func TestClientLinkNeverCarriesABrokenStream(t *testing.T) {
	data := genData(821, 10_000)
	honest := wire.RestoreEnd{TotalBytes: uint64(len(data)), Sum: hashutil.SumBytes(data)}
	addr := scriptedGateway(t, func(conn, req int, nc net.Conn) bool {
		switch {
		case conn == 0 && req == 0, conn == 2 && req == 0:
			sendStream(nc, data, honest)
			return true
		case conn == 0 && req == 1: // one frame, then the link dies
			wire.WriteFrame(nc, wire.TypeRestoreData, wire.RestoreData{Data: data[:1000]}.Marshal())
			return false
		case conn == 1 && req == 0: // the stream under a sum it does not have, then a tail
			bad := honest
			bad.Sum[0] ^= 1
			sendStream(nc, data, bad)
			sendStream(nc, data[:3000], honest)
			return true
		}
		t.Errorf("request %d on connection %d: a link was kept that should have been closed", req, conn)
		return false
	})
	cfg := client.Config{Addr: addr, RetryAttempts: 2, RetryDelay: time.Millisecond}
	dials, _ := clientLinks()
	restore := func() ([]byte, error) {
		var out bytes.Buffer
		_, err := client.Restore(cfg, "f", false, &out)
		return out.Bytes(), err
	}
	if got, err := restore(); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("first restore: err %v, identical %v", err, bytes.Equal(got, data))
	}
	if got, err := restore(); err == nil || !bytes.Equal(got, data[:1000]) {
		t.Fatalf("restore over a link that died mid-stream: err %v, %d bytes written, want an error after 1000", err, len(got))
	}
	if d, _ := clientLinks(); d-dials != 1 {
		t.Fatalf("%d dials: a restore was retried after its bytes reached the writer", d-dials)
	}
	if _, err := restore(); err == nil {
		t.Fatal("a stream whose sum does not match restored")
	}
	if got, err := restore(); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("restore after a failed stream: err %v, identical %v", err, bytes.Equal(got, data))
	}
	if d, _ := clientLinks(); d-dials != 3 {
		t.Fatalf("%d dials, want 3: each failed stream costs its link", d-dials)
	}
}

// TestClientLinkScopedToTenantAndSecret: two tenants restore one name
// alternately through one gateway and each gets its own bytes over a link of
// its own. A caller with tenant A's name but the wrong secret is refused:
// A's parked link is not its to take.
func TestClientLinkScopedToTenantAndSecret(t *testing.T) {
	tc := startCluster(t, 1, func(cfg *cluster.GatewayConfig) {
		cfg.Tenants = map[string]cluster.TenantAuth{"acme": {Secret: "alpha"}, "beta": {Secret: "bravo"}}
	})
	cfgA, cfgB := tc.clientConfig(), tc.clientConfig()
	cfgA.Tenant, cfgA.Secret = "acme", "alpha"
	cfgB.Tenant, cfgB.Secret = "beta", "bravo"
	dataA, dataB := genData(831, 150_000), genData(832, 150_000)
	putAll(t, cfgA, map[string][]byte{"img": dataA}, []string{"img"})
	putAll(t, cfgB, map[string][]byte{"img": dataB}, []string{"img"})

	dials, reuses := clientLinks()
	for i := 0; i < 10; i++ {
		if !bytes.Equal(restoreOne(t, cfgA, "img"), dataA) || !bytes.Equal(restoreOne(t, cfgB, "img"), dataB) {
			t.Fatalf("round %d: a tenant got bytes that are not its own", i)
		}
	}
	if d, r := clientLinks(); d-dials != 2 || r-reuses != 18 {
		t.Fatalf("20 alternating restores made %d dials and %d reuses, want 2 and 18", d-dials, r-reuses)
	}
	wrong := cfgA
	wrong.Secret = "bravo"
	var out bytes.Buffer
	if _, err := client.Restore(wrong, "img", false, &out); err == nil || out.Len() != 0 {
		t.Fatalf("tenant acme under beta's secret: err %v, %d bytes", err, out.Len())
	}
	_, reuses = clientLinks()
	if !bytes.Equal(restoreOne(t, cfgA, "img"), dataA) {
		t.Fatal("acme's own restore after the refusal differs")
	}
	if _, r := clientLinks(); r-reuses != 1 {
		t.Fatal("acme's parked link did not survive the refused caller")
	}
}

// TestClientLinkIdleBoundAcrossGateways: a hundred short-lived gateways,
// one restore each, as the benchmark starts one per repetition. Each
// leaves a link parked that its gateway then closes, and the client never
// holds more than its bound of them open.
func TestClientLinkIdleBoundAcrossGateways(t *testing.T) {
	tc := startCluster(t, 1, nil)
	data := genData(841, 50_000)
	putAll(t, tc.clientConfig(), map[string][]byte{"img": data}, []string{"img"})
	var open atomic.Int64
	dial := func(addr string) (net.Conn, error) {
		nc, err := net.DialTimeout("tcp", addr, 10*time.Second)
		if err != nil {
			return nil, err
		}
		open.Add(1)
		return &countedConn{Conn: nc, open: &open}, nil
	}
	for i := 0; i < 100; i++ {
		gw, cfg := tc.startGateway(t, nil)
		cfg.Dial = dial
		if !bytes.Equal(restoreOne(t, cfg, "img"), data) {
			t.Fatalf("gateway %d: restore differs", i)
		}
		gw.Close()
		if n := open.Load(); n > clientIdleTotal {
			t.Fatalf("after %d gateways the client holds %d links open, above its bound of %d", i+1, n, clientIdleTotal)
		}
	}
	if n := open.Load(); n != clientIdleTotal {
		t.Fatalf("the client holds %d links open, want its bound of %d", n, clientIdleTotal)
	}
}

// TestClientLinkDrainWithIdleLinks: a client keeps a link to dedupd and one
// to dedup-gw; both still drain at once, closing the parked links, where
// they used to wait out the idle timeout.
func TestClientLinkDrainWithIdleLinks(t *testing.T) {
	tc := startCluster(t, 1, nil)
	data := genData(851, 100_000)
	putAll(t, tc.clientConfig(), map[string][]byte{"img": data}, []string{"img"})
	direct := tc.clientConfig()
	direct.Addr = tc.shards[0].Addr
	for _, cfg := range []client.Config{direct, tc.clientConfig()} {
		if !bytes.Equal(restoreOne(t, cfg, "img"), data) {
			t.Fatalf("restore from %s differs", cfg.Addr)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	start := time.Now()
	if err := tc.gw.Drain(ctx); err != nil {
		t.Fatalf("gateway drain with a client link parked: %v", err)
	}
	if err := tc.servers[0].Drain(ctx); err != nil {
		t.Fatalf("dedupd drain with a client link parked: %v", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("the two drains took %v", d)
	}
}
