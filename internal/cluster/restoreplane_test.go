// The restore plane's contracts through the gateway: bounded frames relayed
// verbatim, shard links kept between requests and only when the shard is
// provably between requests too, a stale link retried rather than failed
// over, tenants never sharing a link, and a failover splice that lands in
// the middle of a frame.
package cluster_test

import (
	"bytes"
	"net"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mhdedup/internal/client"
	"mhdedup/internal/cluster"
	"mhdedup/internal/hashutil"
	"mhdedup/internal/metrics"
	"mhdedup/internal/wire"
)

// maxRestoreDataPayload is the largest RestoreData payload a shard emits:
// its 64 KiB frame bound plus the 4-byte length prefix.
const maxRestoreDataPayload = 64<<10 + 4

// restoreConn opens a raw ModeRestore connection to the gateway and returns
// the connection and a frame reader.
func restoreConn(t *testing.T, tc *testCluster) (net.Conn, func() wire.Frame) {
	t.Helper()
	c, err := net.Dial("tcp", tc.gwAddr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	read := func() wire.Frame {
		t.Helper()
		c.SetReadDeadline(time.Now().Add(10 * time.Second))
		f, err := wire.ReadFrame(c, wire.DefaultMaxPayload)
		if err != nil {
			t.Fatalf("read frame: %v", err)
		}
		return f
	}
	if _, err := wire.WriteFrame(c, wire.TypeHello, wire.Hello{Mode: wire.ModeRestore}.Marshal()); err != nil {
		t.Fatal(err)
	}
	if f := read(); f.Type != wire.TypeHelloOK {
		t.Fatalf("handshake answered %s", wire.TypeName(f.Type))
	}
	return c, read
}

// readStream reads one relayed reply stream, holding every RestoreData
// frame to the frame bound and the stream to its RestoreEnd.
func readStream(t *testing.T, read func() wire.Frame) (got []byte, frames int) {
	t.Helper()
	for {
		f := read()
		switch f.Type {
		case wire.TypeRestoreData:
			if len(f.Payload) > maxRestoreDataPayload {
				t.Fatalf("RestoreData payload of %d bytes, above the %d-byte bound", len(f.Payload), maxRestoreDataPayload)
			}
			rd, err := wire.UnmarshalRestoreData(f.Payload)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, rd.Data...)
			frames++
		case wire.TypeRestoreEnd:
			end, err := wire.UnmarshalRestoreEnd(f.Payload)
			if err != nil {
				t.Fatal(err)
			}
			if end.TotalBytes != uint64(len(got)) || end.Sum != hashutil.SumBytes(got) {
				t.Fatalf("RestoreEnd declares %d bytes, stream carried %d (sum match %v)",
					end.TotalBytes, len(got), end.Sum == hashutil.SumBytes(got))
			}
			return got, frames
		default:
			t.Fatalf("unexpected %s in relayed restore stream", wire.TypeName(f.Type))
		}
	}
}

func counter(tc *testCluster, name string) int64 { return tc.registry.Counter(name).Load() }

// TestGatewayRestoreIsBoundedFrames counts frames on a raw client
// connection to a 3-shard R=2 gateway: a 3 MiB file restored plain,
// verified and as three ranges arrives bit-identical in at least 40
// RestoreData frames per pass, none above the shard's 64 KiB bound — the
// gateway forwards the shard's frames, it does not regroup them — over
// shard links the five requests share.
func TestGatewayRestoreIsBoundedFrames(t *testing.T) {
	tc := startCluster(t, 3, func(c *cluster.GatewayConfig) { c.Replication = 2 })
	data := genData(701, 3<<20)
	putAll(t, tc.clientConfig(), map[string][]byte{"img": data}, []string{"img"})
	c, read := restoreConn(t, tc)

	for _, verify := range []bool{false, true} {
		if _, err := wire.WriteFrame(c, wire.TypeRestoreReq, wire.RestoreReq{Name: "img", Verify: verify}.Marshal()); err != nil {
			t.Fatal(err)
		}
		got, frames := readStream(t, read)
		if !bytes.Equal(got, data) || frames < 40 {
			t.Fatalf("verify=%v: %d bytes in %d frames (identical %v), want all of them in ≥ 40",
				verify, len(got), frames, bytes.Equal(got, data))
		}
	}
	var joined []byte
	ranged := 0
	third := uint64(len(data) / 3)
	for i := uint64(0); i < 3; i++ {
		req := wire.RestoreRange{Name: "img", Offset: i * third, Length: third}
		if i == 2 {
			req.Length = wire.RestoreToEOF
		}
		if _, err := wire.WriteFrame(c, wire.TypeRestoreRange, req.Marshal()); err != nil {
			t.Fatal(err)
		}
		got, frames := readStream(t, read)
		joined = append(joined, got...)
		ranged += frames
	}
	if !bytes.Equal(joined, data) || ranged < 40 {
		t.Fatalf("three ranges: %d bytes in %d frames (identical %v), want all of them in ≥ 40",
			len(joined), ranged, bytes.Equal(joined, data))
	}
	if dials, reuses := counter(tc, "gateway.restore.shard_dials"), counter(tc, "gateway.restore.shard_reuses"); dials != 1 || reuses != 4 {
		t.Fatalf("five requests for one file made %d shard dials and %d reuses, want 1 and 4", dials, reuses)
	}
	if n := tc.registry.Histogram("gateway.restore_ns").Snapshot().Count; n != 5 {
		t.Fatalf("gateway.restore_ns holds %d observations, want 5", n)
	}
}

// TestStaleRestoreLinkIsRetriedNotFailedOver: the gateway keeps its link to
// a shard after a restore; the shard then drops every connection it holds
// (a restart, an idle timeout). The next restore homed there finds the
// parked link dead on first use and is run again on a fresh dial — it
// succeeds, it is not a failover, and exactly one more dial was made.
func TestStaleRestoreLinkIsRetriedNotFailedOver(t *testing.T) {
	tc := startCluster(t, 3, func(c *cluster.GatewayConfig) { c.Replication = 2 })
	names := tc.namesByShard(t, "", 2)["s0"]
	files := map[string][]byte{names[0]: genData(711, 300_000), names[1]: genData(712, 300_000)}
	putAll(t, tc.clientConfig(), files, names)

	if got := restoreOne(t, tc.clientConfig(), names[0]); !bytes.Equal(got, files[names[0]]) {
		t.Fatal("first restore differs")
	}
	if idle := tc.gw.IdleRestoreLinks()["s0"]; idle != 1 {
		t.Fatalf("%d links to s0 parked after a restore homed there, want 1", idle)
	}
	dials := counter(tc, "gateway.restore.shard_dials")
	tc.listeners[0].dropConns()

	if got := restoreOne(t, tc.clientConfig(), names[1]); !bytes.Equal(got, files[names[1]]) {
		t.Fatal("restore over a stale link differs")
	}
	if n := counter(tc, "gateway.restore.failovers"); n != 0 {
		t.Fatalf("a stale link counted as %d failovers", n)
	}
	if n := counter(tc, "gateway.restore.shard_dials") - dials; n != 1 {
		t.Fatalf("the stale link cost %d dials, want exactly 1", n)
	}
}

// TestAbandonedRestoreStreamClosesLink: a client reads one frame of a long
// restore and hangs up. The shard is still mid-stream on the gateway's
// link, so that link must be closed, not kept: the next ten restores from
// the same shard are bit-identical. (Parking it instead hands the next
// request the tail of the abandoned stream; this test then fails.)
func TestAbandonedRestoreStreamClosesLink(t *testing.T) {
	tc := startCluster(t, 3, func(c *cluster.GatewayConfig) { c.Replication = 2 })
	names := tc.namesByShard(t, "", 11)["s0"]
	files := map[string][]byte{names[0]: genData(720, 16<<20)}
	for i, name := range names[1:] {
		files[name] = genData(int64(721+i), 150_000)
	}
	putAll(t, tc.clientConfig(), files, names)

	c, read := restoreConn(t, tc)
	// A small receive buffer keeps the stream from fitting in the kernel:
	// the gateway must still be relaying when the client goes away.
	c.(*net.TCPConn).SetReadBuffer(16 << 10)
	if _, err := wire.WriteFrame(c, wire.TypeRestoreReq, wire.RestoreReq{Name: names[0]}.Marshal()); err != nil {
		t.Fatal(err)
	}
	if f := read(); f.Type != wire.TypeRestoreData {
		t.Fatalf("first reply frame is %s", wire.TypeName(f.Type))
	}
	c.Close()

	for i, name := range names[1:] {
		var got bytes.Buffer
		if _, err := client.Restore(tc.clientConfig(), name, i%2 == 1, &got); err != nil || !bytes.Equal(got.Bytes(), files[name]) {
			t.Fatalf("restore %s after an abandoned stream: err %v, identical %v", name, err, bytes.Equal(got.Bytes(), files[name]))
		}
	}
	if n := counter(tc, "gateway.restore.failovers"); n != 0 {
		t.Fatalf("%d failovers: a later restore was served the abandoned stream's tail", n)
	}
}

// TestRestoreLinksAreTenantScoped: two tenants hold different bytes under
// one name on one shard, and restore alternately through one gateway. The
// shard scopes a link by the tenant of its Hello, so a kept link is only
// ever reused for that tenant: nobody sees the other's bytes, and after the
// first round no restore dials.
func TestRestoreLinksAreTenantScoped(t *testing.T) {
	tc := startCluster(t, 1, func(cfg *cluster.GatewayConfig) {
		cfg.Tenants = map[string]cluster.TenantAuth{"acme": {Secret: "alpha"}, "beta": {Secret: "bravo"}}
	})
	cfgA, cfgB := tc.clientConfig(), tc.clientConfig()
	cfgA.Tenant, cfgA.Secret = "acme", "alpha"
	cfgB.Tenant, cfgB.Secret = "beta", "bravo"
	dataA, dataB := genData(731, 200_000), genData(732, 200_000)
	putAll(t, cfgA, map[string][]byte{"img": dataA}, []string{"img"})
	putAll(t, cfgB, map[string][]byte{"img": dataB}, []string{"img"})

	for i := 0; i < 20; i++ {
		if !bytes.Equal(restoreOne(t, cfgA, "img"), dataA) {
			t.Fatalf("round %d: acme did not get its own bytes", i)
		}
		if !bytes.Equal(restoreOne(t, cfgB, "img"), dataB) {
			t.Fatalf("round %d: beta did not get its own bytes", i)
		}
	}
	if dials, reuses := counter(tc, "gateway.restore.shard_dials"), counter(tc, "gateway.restore.shard_reuses"); dials != 2 || reuses != 38 {
		t.Fatalf("40 alternating restores made %d dials and %d reuses, want one link per tenant: 2 and 38", dials, reuses)
	}
}

// dyingShard stands in for a file's home shard in front of a second
// gateway: it answers a restore with the first frames×frameBytes bytes of
// data — in frames of a size no current dedupd emits, as a shard of another
// build may — and then drops dead mid-stream.
func dyingShard(t *testing.T, data []byte, frames, frameBytes int) (addr string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer nc.Close()
				if f, err := wire.ReadFrame(nc, 0); err != nil || f.Type != wire.TypeHello {
					return
				}
				wire.WriteFrame(nc, wire.TypeHelloOK, wire.HelloOK{Window: 8, MaxPayload: wire.DefaultMaxPayload}.Marshal())
				if f, err := wire.ReadFrame(nc, 0); err != nil || f.Type != wire.TypeRestoreReq {
					return
				}
				for i := 0; i < frames; i++ {
					rd := wire.RestoreData{Data: data[i*frameBytes : (i+1)*frameBytes]}
					wire.WriteFrame(nc, wire.TypeRestoreData, rd.Marshal())
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// TestFailoverSpliceMidFrame kills the serving shard after the client has
// received a byte count that is not a multiple of the replica's frame size,
// so the continuation must be cut in the middle of a frame and that frame
// re-encoded around its tail — the one place the relay does not forward
// verbatim. Shards of one build frame alike and die on a frame boundary of
// each other; the shard that dies here framed differently.
func TestFailoverSpliceMidFrame(t *testing.T) {
	const oddFrame, oddFrames, replicaFrame = 50_000, 3, 64 << 10
	tc := startCluster(t, 3, func(c *cluster.GatewayConfig) { c.Replication = 2 })
	name := tc.namesByShard(t, "", 1)["s0"][0]
	data := genData(741, 1<<20)
	putAll(t, tc.clientConfig(), map[string][]byte{name: data}, []string{name})

	// A second gateway over the same ring, whose s0 is the dying stand-in.
	reg := metrics.NewRegistry()
	_, cfg := tc.startGateway(t, func(c *cluster.GatewayConfig) {
		c.Replication, c.Registry = 2, reg
		c.Shards = append([]cluster.Shard(nil), tc.shards...)
		c.Shards[0].Addr = dyingShard(t, data, oddFrames, oddFrame)
	})
	var sizes []int
	var got bytes.Buffer
	res, err := client.Restore(cfg, name, false, writerFunc(func(p []byte) (int, error) {
		sizes = append(sizes, len(p))
		return got.Write(p)
	}))
	if err != nil || res.Bytes != uint64(len(data)) || !bytes.Equal(got.Bytes(), data) {
		t.Fatalf("restore across the kill: err %v, %d bytes, identical %v", err, got.Len(), bytes.Equal(got.Bytes(), data))
	}
	if n := reg.Counter("gateway.restore.failovers").Load(); n != 1 {
		t.Fatalf("gateway.restore.failovers = %d, want 1", n)
	}
	// The client saw the dying shard's frames, then the tail of the replica
	// frame the cut fell in, then the replica's own frames.
	prefix := oddFrames * oddFrame
	want := []int{oddFrame, oddFrame, oddFrame, replicaFrame - prefix%replicaFrame, replicaFrame}
	if len(sizes) < len(want) || !slices.Equal(sizes[:len(want)], want) {
		t.Fatalf("the client's first writes were %v, want %v: the splice did not land mid-frame", sizes[:min(len(sizes), len(want))], want)
	}
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// countedConn tells its dialer when it is closed.
type countedConn struct {
	net.Conn
	once sync.Once
	open *atomic.Int64
}

func (c *countedConn) Close() error {
	c.once.Do(func() { c.open.Add(-1) })
	return c.Conn.Close()
}

// TestConcurrentRestoresBoundedPool hammers one gateway with 8 clients × 50
// restores. Every restore is bit-identical; afterwards each shard's parked
// links are within the cap, and Close leaves no shard connection open and
// no goroutine behind.
func TestConcurrentRestoresBoundedPool(t *testing.T) {
	var open atomic.Int64
	goroutines := runtime.NumGoroutine()
	tc := startCluster(t, 3, func(c *cluster.GatewayConfig) {
		c.Replication = 2
		c.Dial = func(addr string) (net.Conn, error) {
			nc, err := net.DialTimeout("tcp", addr, 10*time.Second)
			if err != nil {
				return nil, err
			}
			open.Add(1)
			return &countedConn{Conn: nc, open: &open}, nil
		}
	})
	byShard := tc.namesByShard(t, "", 4)
	files := make(map[string][]byte)
	var order []string
	seed := int64(750)
	for _, names := range byShard {
		for _, name := range names {
			files[name] = genData(seed, 100_000+int(seed%7)*30_000)
			order = append(order, name)
			seed++
		}
	}
	putAll(t, tc.clientConfig(), files, order)

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				name := order[(g*7+i)%len(order)]
				var got bytes.Buffer
				if _, err := client.Restore(tc.clientConfig(), name, i%5 == 0, &got); err != nil || !bytes.Equal(got.Bytes(), files[name]) {
					t.Errorf("client %d restore %d (%s): err %v, identical %v", g, i, name, err, bytes.Equal(got.Bytes(), files[name]))
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if n := counter(tc, "gateway.restore.failovers"); n != 0 {
		t.Errorf("%d failovers with every shard up", n)
	}
	for id, idle := range tc.gw.IdleRestoreLinks() {
		if idle > cluster.RestoreLinkCap {
			t.Errorf("shard %s has %d parked restore links, above the cap of %d", id, idle, cluster.RestoreLinkCap)
		}
	}
	dials, reuses := counter(tc, "gateway.restore.shard_dials"), counter(tc, "gateway.restore.shard_reuses")
	if dials+reuses != 400 || reuses < 300 {
		t.Errorf("400 restores made %d dials and %d reuses", dials, reuses)
	}

	tc.gw.Close()
	if n := open.Load(); n != 0 {
		t.Errorf("%d shard connections still open after Gateway.Close", n)
	}
	for _, srv := range tc.servers {
		srv.Close()
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > goroutines && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > goroutines {
		buf := make([]byte, 1<<16)
		t.Errorf("%d goroutines before the cluster, %d after closing it:\n%s", goroutines, n, buf[:runtime.Stack(buf, true)])
	}
}
