// Ranged restore through the cluster gateway: the RestoreRange frame must
// relay to the owning shard exactly like a whole-file restore, and when
// the client link dies mid-stream, re-requesting from the byte offset
// where the stream stopped must complete the file — the resume story
// ranged restore exists for.
package cluster_test

import (
	"bytes"
	"fmt"
	"net"
	"sync"
	"testing"

	"mhdedup/internal/algo"
	"mhdedup/internal/client"
	"mhdedup/internal/cluster"
	"mhdedup/internal/core"
	"mhdedup/internal/exp"
	"mhdedup/internal/metrics"
	"mhdedup/internal/server"
)

// startTreeCluster is startCluster with every shard's engine storing
// recipes as recipe trees.
func startTreeCluster(t *testing.T, n int) *testCluster {
	t.Helper()
	tc := &testCluster{registry: metrics.NewRegistry()}
	for i := 0; i < n; i++ {
		p := exp.Params{Algo: exp.AlgoMHD, Options: algo.Options{ECS: 4096, SD: 64, ExpectedInputBytes: 64 << 20}}
		p.RecipeTrees = true
		built, err := exp.Build(p)
		if err != nil {
			t.Fatal(err)
		}
		eng := built.(*core.Dedup)
		srv, err := server.New(server.Config{
			Engine:   eng,
			Registry: metrics.NewRegistry(),
			Events:   testEvents(t),
		})
		if err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
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
	gw, err := cluster.NewGateway(cluster.GatewayConfig{
		Shards:   tc.shards,
		Registry: tc.registry,
		Events:   testEvents(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go gw.Serve(ln)
	t.Cleanup(func() { gw.Close() })
	tc.gw = gw
	tc.gwAddr = ln.Addr().String()
	return tc
}

// readKillConn kills the connection after `budget` bytes have been read —
// the restore-direction counterpart of killConn (data flows server→client).
type readKillConn struct {
	net.Conn
	mu     sync.Mutex
	budget int
}

func (c *readKillConn) Read(p []byte) (int, error) {
	c.mu.Lock()
	budget := c.budget
	c.mu.Unlock()
	if budget <= 0 {
		c.Conn.Close()
		return 0, errInjected
	}
	if len(p) > budget {
		p = p[:budget]
	}
	n, err := c.Conn.Read(p)
	c.mu.Lock()
	c.budget -= n
	c.mu.Unlock()
	return n, err
}

// TestClusterRangedRestoreKillResume ingests files homed on both shards of
// a tree-backed cluster, checks arbitrary ranges relay correctly through
// the gateway, then kills the client link mid-restore and finishes the
// file by re-requesting exactly the missing suffix.
func TestClusterRangedRestoreKillResume(t *testing.T) {
	tc := startTreeCluster(t, 2)
	byShard := tc.namesByShard(t, "", 1)
	files := make(map[string][]byte)
	var order []string
	seed := int64(500)
	for _, ns := range byShard {
		files[ns[0]] = genData(seed, 1<<20)
		order = append(order, ns[0])
		seed++
	}
	putAll(t, tc.clientConfig(), files, order)

	// Ranged probes against every shard's file, plain and verified.
	for name, want := range files {
		total := int64(len(want))
		for _, p := range []struct{ off, length int64 }{
			{0, 4096}, {total / 3, 100_000}, {total - 100, 4096}, {total + 5, 16}, {0, -1},
		} {
			for _, verify := range []bool{false, true} {
				var got bytes.Buffer
				res, err := client.RestoreRange(tc.clientConfig(), name, verify, p.off, p.length, &got)
				if err != nil {
					t.Fatalf("%s: RestoreRange(%d, %d, verify=%v) via gateway: %v", name, p.off, p.length, verify, err)
				}
				lo, hi := p.off, total
				if lo > total {
					lo = total
				}
				if p.length >= 0 && p.off+p.length < total {
					hi = p.off + p.length
				}
				if hi < lo {
					hi = lo
				}
				if !bytes.Equal(got.Bytes(), want[lo:hi]) || res.Bytes != uint64(hi-lo) {
					t.Fatalf("%s: gateway range (%d, %d) = %d bytes, want [%d:%d)",
						name, p.off, p.length, got.Len(), lo, hi)
				}
			}
		}
	}

	// Kill + resume: restore frames are bounded by the 4 MiB payload cap,
	// so the victim file must span several frames for a mid-stream kill to
	// leave a usable prefix. The connection dies after 5 MiB of the 8 MiB
	// stream; whatever complete frames landed are kept, and a second
	// ranged request picks up from that exact offset.
	name, want := "img-big", genData(600, 8<<20)
	putAll(t, tc.clientConfig(), map[string][]byte{name: want}, []string{name})
	killCfg := tc.clientConfig()
	killCfg.RetryAttempts = 1
	// Links are kept per Addr, Tenant and Secret, and the probes above parked
	// one under the plain config; a secret of its own (the gateway is open)
	// makes this restore dial, through the killing dialer.
	killCfg.Secret = "killed"
	var once sync.Once
	killCfg.Dial = func(a string) (net.Conn, error) {
		nc, err := net.Dial("tcp", a)
		if err != nil {
			return nil, err
		}
		injected := false
		once.Do(func() { injected = true })
		if injected {
			return &readKillConn{Conn: nc, budget: 5 << 20}, nil
		}
		return nc, nil
	}
	var partial bytes.Buffer
	if _, err := client.RestoreRange(killCfg, name, false, 0, -1, &partial); err == nil {
		t.Fatal("restore over a killed connection succeeded; fault injection is broken")
	}
	got := partial.Len()
	if got == 0 || got >= len(want) {
		t.Fatalf("kill landed %d of %d bytes; test proves nothing", got, len(want))
	}
	if !bytes.Equal(partial.Bytes(), want[:got]) {
		t.Fatalf("the %d bytes received before the kill are wrong", got)
	}
	res, err := client.RestoreRange(tc.clientConfig(), name, false, int64(got), -1, &partial)
	if err != nil {
		t.Fatalf("resume from offset %d: %v", got, err)
	}
	if res.Bytes != uint64(len(want)-got) {
		t.Fatalf("resume moved %d bytes, want %d", res.Bytes, len(want)-got)
	}
	if !bytes.Equal(partial.Bytes(), want) {
		t.Fatal("kill+resume reassembly differs from the ingested file")
	}
	t.Logf("killed at byte %d of %d, resumed the remaining %d through the gateway", got, len(want), len(want)-got)
}
