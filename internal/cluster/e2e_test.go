// Cluster end-to-end tests: real shards (internal/server over loopback
// TCP), a real gateway, and the ordinary internal/client talking to it —
// the full wire path a production deployment runs, just in-process.
package cluster_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"mhdedup/internal/client"
	"mhdedup/internal/cluster"
	"mhdedup/internal/core"
	"mhdedup/internal/events"
	"mhdedup/internal/exp"
	"mhdedup/internal/metrics"
	"mhdedup/internal/server"
	"mhdedup/internal/wire"
)

func testEvents(t *testing.T) *events.Log {
	return events.New(events.Options{Level: events.LevelDebug, Logf: t.Logf})
}

func newEngine(t *testing.T) *core.Dedup {
	t.Helper()
	p := exp.DefaultParams(exp.AlgoMHD, 4096, 64, 64<<20)
	eng, err := exp.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	return eng.(*core.Dedup)
}

// testCluster is N shards plus one gateway, all on loopback.
type testCluster struct {
	shards   []cluster.Shard
	servers  []*server.Server
	engines  []*core.Dedup
	gw       *cluster.Gateway
	gwAddr   string
	registry *metrics.Registry
	options  wire.EngineOptions
	// listeners[i] is shard i's, which remembers what it accepted so a test
	// can sever a shard's connections from the shard's side; gwListener is
	// the gateway's.
	listeners  []*trackedListener
	gwListener *trackedListener
}

// trackedListener remembers the connections it accepts.
type trackedListener struct {
	net.Listener
	mu    sync.Mutex
	conns []net.Conn
}

func (l *trackedListener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err == nil {
		l.mu.Lock()
		l.conns = append(l.conns, nc)
		l.mu.Unlock()
	}
	return nc, err
}

// dropConns closes the shard's end of every connection accepted so far:
// what a restarted or idle-timing-out shard does to a gateway's kept links.
func (l *trackedListener) dropConns() {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, nc := range l.conns {
		nc.Close()
	}
	l.conns = nil
}

func startCluster(t *testing.T, n int, mut func(*cluster.GatewayConfig)) *testCluster {
	t.Helper()
	tc := &testCluster{registry: metrics.NewRegistry()}
	for i := 0; i < n; i++ {
		eng := newEngine(t)
		srv, err := server.New(server.Config{
			Engine:   eng,
			Registry: metrics.NewRegistry(),
			Events:   testEvents(t),
		})
		if err != nil {
			t.Fatal(err)
		}
		tcp, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		ln := &trackedListener{Listener: tcp}
		tc.listeners = append(tc.listeners, ln)
		go srv.Serve(ln)
		t.Cleanup(func() { srv.Close() })
		tc.servers = append(tc.servers, srv)
		tc.engines = append(tc.engines, eng)
		tc.shards = append(tc.shards, cluster.Shard{
			ID:   fmt.Sprintf("s%d", i),
			Addr: ln.Addr().String(),
		})
		tc.options = srv.Options()
	}
	cfg := cluster.GatewayConfig{
		Shards:   tc.shards,
		Registry: tc.registry,
		Events:   testEvents(t),
	}
	if mut != nil {
		mut(&cfg)
	}
	gw, err := cluster.NewGateway(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tcp, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := &trackedListener{Listener: tcp}
	go gw.Serve(ln)
	t.Cleanup(func() { gw.Close() })
	tc.gw, tc.gwListener = gw, ln
	tc.gwAddr = ln.Addr().String()
	return tc
}

// startGateway stands up an additional gateway over the cluster's
// shards (its own registry and listener), for tests that kill the first
// gateway and reattach through a replacement.
func (tc *testCluster) startGateway(t *testing.T, mut func(*cluster.GatewayConfig)) (*cluster.Gateway, client.Config) {
	t.Helper()
	cfg := cluster.GatewayConfig{
		Shards:   tc.shards,
		Registry: metrics.NewRegistry(),
		Events:   testEvents(t),
	}
	if mut != nil {
		mut(&cfg)
	}
	gw, err := cluster.NewGateway(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go gw.Serve(ln)
	t.Cleanup(func() { gw.Close() })
	return gw, client.Config{
		Addr:          ln.Addr().String(),
		Options:       tc.options,
		RetryAttempts: 8,
		RetryDelay:    10 * time.Millisecond,
	}
}

func (tc *testCluster) clientConfig() client.Config {
	return client.Config{
		Addr:          tc.gwAddr,
		Options:       tc.options,
		RetryAttempts: 8,
		RetryDelay:    10 * time.Millisecond,
	}
}

// namesByShard picks file names until every shard is the home of at
// least `per` of them, so tests deterministically exercise cross-shard
// placement regardless of how the ring happens to land.
func (tc *testCluster) namesByShard(t *testing.T, tenant string, per int) map[string][]string {
	t.Helper()
	ring, err := cluster.NewRing(cluster.RingConfig{Shards: tc.shards})
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]string, len(tc.shards))
	for i := 0; len(out) < len(tc.shards) || !allHave(out, per); i++ {
		if i > 10000 {
			t.Fatal("could not find names covering every shard")
		}
		name := fmt.Sprintf("img-%d", i)
		id := ring.OwnersOfName(wire.NSJoin(tenant, name), 1)[0].ID
		if len(out[id]) < per {
			out[id] = append(out[id], name)
		}
	}
	return out
}

func allHave(m map[string][]string, per int) bool {
	for _, v := range m {
		if len(v) < per {
			return false
		}
	}
	return len(m) > 0
}

func genData(seed int64, n int) []byte {
	buf := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(buf)
	return buf
}

func mutate(data []byte, seed int64, edits, editSize int) []byte {
	out := append([]byte(nil), data...)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < edits; i++ {
		off := rng.Intn(len(out) - editSize)
		rng.Read(out[off : off+editSize])
	}
	return out
}

func putAll(t *testing.T, cfg client.Config, files map[string][]byte, order []string) client.Stats {
	t.Helper()
	ing, err := client.Connect(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range order {
		if err := ing.PutFile(name, bytes.NewReader(files[name])); err != nil {
			t.Fatalf("put %s: %v", name, err)
		}
	}
	if err := ing.Close(); err != nil {
		t.Fatal(err)
	}
	return ing.Stats()
}

func restoreOne(t *testing.T, cfg client.Config, name string) []byte {
	t.Helper()
	var out bytes.Buffer
	if _, err := client.Restore(cfg, name, true, &out); err != nil {
		t.Fatalf("restore %s: %v", name, err)
	}
	return out.Bytes()
}

// TestClusterRoundTripMatchesSingleNode is the headline acceptance
// check: files ingested through a 2-shard cluster restore bit-identical
// to the same files ingested into (and restored from) a single-node
// dedupd, with both shards actually holding data.
func TestClusterRoundTripMatchesSingleNode(t *testing.T) {
	tc := startCluster(t, 2, nil)

	// Single-node reference.
	refEng := newEngine(t)
	refSrv, err := server.New(server.Config{Engine: refEng, Registry: metrics.NewRegistry(), Events: testEvents(t)})
	if err != nil {
		t.Fatal(err)
	}
	refLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go refSrv.Serve(refLn)
	t.Cleanup(func() { refSrv.Close() })
	refCfg := client.Config{Addr: refLn.Addr().String(), Options: refSrv.Options(),
		RetryAttempts: 8, RetryDelay: 10 * time.Millisecond}

	byShard := tc.namesByShard(t, "", 2)
	files := make(map[string][]byte)
	var order []string
	seed := int64(100)
	for _, names := range byShard {
		for _, n := range names {
			files[n] = genData(seed, 1<<19)
			order = append(order, n)
			seed++
		}
	}

	putAll(t, tc.clientConfig(), files, order)
	putAll(t, refCfg, files, order)

	// Listings agree.
	gwNames, err := client.List(tc.clientConfig())
	if err != nil {
		t.Fatal(err)
	}
	refNames, err := client.List(refCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(gwNames) != len(files) {
		t.Fatalf("cluster list = %v, want %d names", gwNames, len(files))
	}
	if fmt.Sprint(gwNames) != fmt.Sprint(refNames) {
		t.Fatalf("cluster list %v != single-node list %v", gwNames, refNames)
	}

	// Every file restores bit-identical through the gateway and matches
	// the single-node restore byte for byte.
	for name, want := range files {
		got := restoreOne(t, tc.clientConfig(), name)
		ref := restoreOne(t, refCfg, name)
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: cluster restore differs from input", name)
		}
		if !bytes.Equal(got, ref) {
			t.Fatalf("%s: cluster restore differs from single-node restore", name)
		}
	}

	// Placement really is spread: each shard is home to the files the
	// ring assigned it.
	stats := tc.gw.ShardStats()
	for id, names := range byShard {
		if stats[id][0] != int64(len(names)) {
			t.Fatalf("shard %s homed %d files, ring assigned %d (stats %v)", id, stats[id][0], len(names), stats)
		}
	}
}

// TestClusterChunkRoutingSavesClientBandwidth pins the peer plane's
// point: after one tenant pushed data through the cluster, re-ingesting
// the same bytes under a name homed on the *other* shard must be served
// almost entirely shard→shard, not across the client link.
func TestClusterChunkRoutingSavesClientBandwidth(t *testing.T) {
	tc := startCluster(t, 2, nil)
	byShard := tc.namesByShard(t, "", 1)
	var names []string
	for _, ns := range byShard {
		names = append(names, ns[0])
	}
	if len(names) < 2 {
		t.Fatal("need names on two shards")
	}
	data := genData(7, 2<<20)

	putAll(t, tc.clientConfig(), map[string][]byte{names[0]: data}, names[:1])
	st := putAll(t, tc.clientConfig(), map[string][]byte{names[1]: data}, names[1:2])

	ratio := float64(st.WireBytesOut) / float64(st.InputBytes)
	t.Logf("cross-shard re-ingest: %.2f%% of raw bytes over the client link, %d/%d chunks sent",
		ratio*100, st.ChunksSent, st.ChunksOffered)
	if ratio >= 0.15 {
		t.Fatalf("re-ingest to the other shard moved %.1f%% of bytes from the client, want <15%%", ratio*100)
	}
	peerRouted := tc.registry.Counter("gateway.chunks.peer_routed").Load()
	if peerRouted == 0 {
		t.Fatal("no chunks were peer-routed; the savings came from somewhere they shouldn't")
	}
	both := restoreOne(t, tc.clientConfig(), names[1])
	if !bytes.Equal(both, data) {
		t.Fatal("peer-routed file restored differently from input")
	}
}

// TestClusterDrainMidRun drains a shard between two backup generations:
// names homed on the drained shard reroute on rewrite, untouched names
// stay restorable from the drained (still reachable) shard, and every
// restore returns the newest bytes.
func TestClusterDrainMidRun(t *testing.T) {
	tc := startCluster(t, 3, nil)
	byShard := tc.namesByShard(t, "", 2)

	drainID := tc.shards[0].ID
	if len(byShard[drainID]) < 2 {
		t.Fatalf("no names homed on %s", drainID)
	}
	rewritten, untouched := byShard[drainID][0], byShard[drainID][1]

	files := make(map[string][]byte)
	var order []string
	seed := int64(300)
	for _, ns := range byShard {
		for _, n := range ns {
			files[n] = genData(seed, 1<<19)
			order = append(order, n)
			seed++
		}
	}
	putAll(t, tc.clientConfig(), files, order)

	if err := tc.gw.DrainShard(drainID); err != nil {
		t.Fatal(err)
	}
	if err := tc.gw.DrainShard("nope"); err == nil {
		t.Fatal("draining an unknown shard succeeded")
	}

	// Generation 2 during the drain: one rewrite of a drained-shard name
	// plus one brand-new file.
	files[rewritten] = mutate(files[rewritten], 301, 8, 4096)
	files["post-drain-new"] = genData(999, 1<<19)
	putAll(t, tc.clientConfig(), files, []string{rewritten, "post-drain-new"})

	names, err := client.List(tc.clientConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != len(files) {
		t.Fatalf("list after drain = %v, want %d names", names, len(files))
	}
	for name, want := range files {
		if got := restoreOne(t, tc.clientConfig(), name); !bytes.Equal(got, want) {
			t.Fatalf("%s: restore after drain returned wrong bytes (rewritten=%v untouched=%v)",
				name, name == rewritten, name == untouched)
		}
	}

	// Nothing new may be homed on the drained shard.
	before := tc.gw.ShardStats()[drainID][0]
	putAll(t, tc.clientConfig(), map[string][]byte{untouched: files[untouched]}, []string{untouched})
	if after := tc.gw.ShardStats()[drainID][0]; after != before {
		t.Fatalf("drained shard %s went from %d to %d homed files", drainID, before, after)
	}
}

// killConn kills the connection after `budget` written bytes.
type killConn struct {
	net.Conn
	mu     sync.Mutex
	budget int
}

var errInjected = errors.New("injected connection death")

func (c *killConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.budget <= 0 {
		c.Conn.Close()
		return 0, errInjected
	}
	if len(p) > c.budget {
		n, _ := c.Conn.Write(p[:c.budget])
		c.budget = 0
		c.Conn.Close()
		return n, errInjected
	}
	c.budget -= len(p)
	return c.Conn.Write(p)
}

// TestClusterKillConnectionResume kills the client→gateway connection
// mid-ingest; the client must resume through the gateway (which bounces
// and replays into its backend sessions) and every byte must land.
func TestClusterKillConnectionResume(t *testing.T) {
	tc := startCluster(t, 2, nil)
	gen1 := genData(21, 1<<20)
	gen2 := mutate(gen1, 22, 8, 4096)

	cfg := tc.clientConfig()
	var once sync.Once
	cfg.Dial = func(a string) (net.Conn, error) {
		nc, err := net.Dial("tcp", a)
		if err != nil {
			return nil, err
		}
		injected := false
		once.Do(func() { injected = true })
		if injected {
			return &killConn{Conn: nc, budget: 600 << 10}, nil
		}
		return nc, nil
	}
	st := putAll(t, cfg, map[string][]byte{"img-gen1": gen1, "img-gen2": gen2},
		[]string{"img-gen1", "img-gen2"})
	if st.Reconnects == 0 {
		t.Fatal("fault injection did not trigger a reconnect; the test proved nothing")
	}
	t.Logf("resumed through gateway after %d reconnects", st.Reconnects)

	for name, want := range map[string][]byte{"img-gen1": gen1, "img-gen2": gen2} {
		if got := restoreOne(t, tc.clientConfig(), name); !bytes.Equal(got, want) {
			t.Fatalf("%s: restore after resume differs from input", name)
		}
	}
	if resumed := tc.registry.Counter("gateway.sessions.resumed").Load(); resumed == 0 {
		t.Fatal("gateway never saw a session resume")
	}
}

// TestClusterTenants drives authentication, namespace isolation and
// quota shedding through the gateway.
func TestClusterTenants(t *testing.T) {
	tc := startCluster(t, 2, func(cfg *cluster.GatewayConfig) {
		cfg.Tenants = map[string]cluster.TenantAuth{
			"acme": {Secret: "alpha", QuotaBytes: 1 << 20},
			"beta": {Secret: "bravo"},
		}
	})
	dataA := genData(51, 1<<19)
	dataB := genData(52, 1<<19)

	cfgA := tc.clientConfig()
	cfgA.Tenant, cfgA.Secret = "acme", "alpha"
	cfgB := tc.clientConfig()
	cfgB.Tenant, cfgB.Secret = "beta", "bravo"

	putAll(t, cfgA, map[string][]byte{"img": dataA}, []string{"img"})
	putAll(t, cfgB, map[string][]byte{"img": dataB}, []string{"img"})

	// Each tenant lists and restores only its own "img".
	for _, tcase := range []struct {
		cfg  client.Config
		want []byte
	}{{cfgA, dataA}, {cfgB, dataB}} {
		names, err := client.List(tcase.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(names) != 1 || names[0] != "img" {
			t.Fatalf("tenant list = %v", names)
		}
		if got := restoreOne(t, tcase.cfg, "img"); !bytes.Equal(got, tcase.want) {
			t.Fatal("tenant restored another tenant's bytes")
		}
	}

	// Wrong secret and unknown tenant are refused at handshake.
	bad := tc.clientConfig()
	bad.Tenant, bad.Secret = "acme", "wrong"
	bad.RetryAttempts = 1
	if _, err := client.Connect(bad); err == nil {
		t.Fatal("bad secret accepted")
	}
	ghost := tc.clientConfig()
	ghost.Tenant = "ghost"
	ghost.RetryAttempts = 1
	if _, err := client.Connect(ghost); err == nil {
		t.Fatal("unknown tenant accepted")
	}

	// Quota: acme has 1 MiB, used 512 KiB. One more 512 KiB file is
	// admitted (at-start check), the next is shed with a typed, hinted
	// error the caller can act on.
	putAll(t, cfgA, map[string][]byte{"img2": dataA}, []string{"img2"})
	shedCfg := cfgA
	shedCfg.SurfaceShed = true
	ing, err := client.Connect(shedCfg)
	if err != nil {
		t.Fatal(err)
	}
	err = ing.PutFile("img3", bytes.NewReader(dataA))
	var shed *client.ShedError
	if !errors.As(err, &shed) {
		t.Fatalf("over-quota put returned %v, want *client.ShedError", err)
	}
	if shed.Code != wire.CodeQuota || shed.RetryAfter <= 0 {
		t.Fatalf("shed = %+v, want CodeQuota with a backoff hint", shed)
	}
	if used := tc.gw.Tenants().Used("acme"); used != int64(2*len(dataA)) {
		t.Fatalf("acme used = %d, want %d", used, 2*len(dataA))
	}
	// Without SurfaceShed the same condition is an ordinary retried-then-
	// failed error (bounded by RetryAttempts), not a hang.
	fast := cfgA
	fast.RetryAttempts = 2
	ing2, err := client.Connect(fast)
	if err != nil {
		t.Fatal(err)
	}
	if err := ing2.PutFile("img4", bytes.NewReader(dataA)); err == nil {
		t.Fatal("over-quota put with retries eventually succeeded")
	}
}

// TestGatewayDrainExpiresParkedSession is the gateway half of the
// parked-session drain fix (see internal/session): a client session
// parked by a dropped connection must not hold Drain open until
// ResumeTimeout, because nothing can reattach once the listener closed.
func TestGatewayDrainExpiresParkedSession(t *testing.T) {
	tc := startCluster(t, 2, func(cfg *cluster.GatewayConfig) { cfg.ResumeTimeout = time.Hour })
	c, err := net.Dial("tcp", tc.gwAddr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wire.WriteFrame(c, wire.TypeHello,
		wire.Hello{Mode: wire.ModeIngest, Options: tc.options}.Marshal()); err != nil {
		t.Fatal(err)
	}
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if f, err := wire.ReadFrame(c, wire.DefaultMaxPayload); err != nil || f.Type != wire.TypeHelloOK {
		t.Fatalf("handshake: %s, %v", wire.TypeName(f.Type), err)
	}
	c.Close()
	deadline := time.Now().Add(5 * time.Second)
	for tc.registry.Counter("gateway.sessions.active").Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("session never parked after its connection dropped")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if n := tc.gw.SessionCount(); n != 1 {
		t.Fatalf("%d sessions parked, want 1", n)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	start := time.Now()
	if err := tc.gw.Drain(ctx); err != nil {
		t.Fatalf("drain with only a parked session: %v", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("drain took %v, want well under a second", d)
	}
	if n := tc.gw.SessionCount(); n != 0 {
		t.Fatalf("%d sessions survive the drain", n)
	}
}
