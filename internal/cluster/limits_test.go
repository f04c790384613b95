package cluster_test

import (
	"bytes"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"mhdedup/internal/client"
	"mhdedup/internal/cluster"
	"mhdedup/internal/core"
	"mhdedup/internal/events"
	"mhdedup/internal/metrics"
	"mhdedup/internal/server"
	"mhdedup/internal/session"
	"mhdedup/internal/wire"
)

// parkedFor waits for ev's first typ event and returns how long it said
// the detached session stays resumable.
func parkedFor(t *testing.T, ev *events.Log, typ string) time.Duration {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		for _, e := range ev.Recent() {
			if e.Type != typ {
				continue
			}
			for _, f := range e.Fields {
				if d, ok := f.Value.(time.Duration); ok && f.Key == "resumable" {
					return d
				}
			}
		}
	}
	t.Fatalf("no %s event with a resumable field", typ)
	return 0
}

// TestZeroGatewayConfigParksShorterThanItsShards: a gateway and a shard
// built from zero configs park a client's session for less time at the
// gateway than the shard parks the gateway's backend session. Equal
// timeouts let a client resume at the gateway just in time to find its
// backend state expired — a non-retryable "resume lost backend state".
func TestZeroGatewayConfigParksShorterThanItsShards(t *testing.T) {
	shardEv, gwEv := testEvents(t), testEvents(t)
	srv, err := server.New(server.Config{Engine: newEngine(t), Registry: metrics.NewRegistry(), Events: shardEv})
	if err != nil {
		t.Fatal(err)
	}
	shardAddr := serve(t, srv.Serve, srv.Close)
	gw, err := cluster.NewGateway(cluster.GatewayConfig{
		Shards:   []cluster.Shard{{ID: "s0", Addr: shardAddr}},
		Registry: metrics.NewRegistry(),
		Events:   gwEv,
	})
	if err != nil {
		t.Fatal(err)
	}
	gwAddr := serve(t, gw.Serve, gw.Close)

	// A new client session opens a backend session on the shard to learn
	// its cut contract; the client's hang-up parks both.
	dial := func(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }
	c, _, err := session.Dial(dial, gwAddr, wire.Hello{Mode: wire.ModeIngest}, session.Limits{}, session.Meter{})
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	atGateway := parkedFor(t, gwEv, "gateway.session_detach")
	atShard := parkedFor(t, shardEv, "session.detach")
	if atGateway >= atShard {
		t.Fatalf("the gateway parks a client session for %v, its shard the backend session for %v; want the gateway's shorter",
			atGateway, atShard)
	}
}

// serve runs a server on a loopback listener until the test ends.
func serve(t *testing.T, run func(net.Listener) error, stop func() error) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go run(ln)
	t.Cleanup(func() { stop() })
	return ln.Addr().String()
}

// shardAnnouncing stands in for a shard of another build: every Hello is
// answered with ok, and the connection is then read until it closes.
func shardAnnouncing(t *testing.T, ok wire.HelloOK) string {
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
				wire.WriteFrame(nc, wire.TypeHelloOK, ok.Marshal())
				for {
					if _, err := wire.ReadFrame(nc, 0); err != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// TestGatewayRefusesShardThatAnnouncesLess: a shard whose HelloOK carries
// a smaller window or payload cap than the gateway relays to its clients
// is refused at dial time, and a put homed on it fails by name instead of
// hanging or being relayed into limits the shard would break.
func TestGatewayRefusesShardThatAnnouncesLess(t *testing.T) {
	for _, tc := range []struct {
		name string
		ok   wire.HelloOK
		want string
	}{
		{"window", wire.HelloOK{SessionToken: 1, Window: session.Window - 1, MaxPayload: wire.DefaultMaxPayload},
			fmt.Sprintf("window %d below gateway window %d", session.Window-1, session.Window)},
		{"max payload", wire.HelloOK{SessionToken: 1, Window: session.Window, MaxPayload: wire.DefaultMaxPayload / 2},
			fmt.Sprintf("max payload %d below gateway's %d", wire.DefaultMaxPayload/2, wire.DefaultMaxPayload)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var shards []cluster.Shard
			// The real shard comes first, so it announces the cut contract;
			// the limits are checked before the contract.
			cl := startClusterOf(t, 1, func(int) *core.Dedup { return newEngine(t) }, func(cfg *cluster.GatewayConfig) {
				cfg.Shards = append(cfg.Shards, cluster.Shard{ID: "other-build", Addr: shardAnnouncing(t, tc.ok)})
				shards = cfg.Shards
			})
			ring, err := cluster.NewRing(shards)
			if err != nil {
				t.Fatal(err)
			}
			name := ""
			for i := 0; name == ""; i++ {
				if n := fmt.Sprintf("img-%d", i); ring.OwnersOfName(n, 1)[0].ID == "other-build" {
					name = n
				}
			}
			ing, err := client.Connect(client.Config{Addr: cl.gwAddr, RetryAttempts: 2, RetryDelay: 10 * time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			defer ing.Close()
			done := make(chan error, 1)
			go func() { done <- ing.PutFile(name, bytes.NewReader(make([]byte, 64<<10))) }()
			select {
			case err = <-done:
			case <-time.After(30 * time.Second):
				t.Fatal("a put homed on a shard that announces less hangs")
			}
			if err == nil || !strings.Contains(err.Error(), "misconfigured cluster") || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("put homed on the shard: err = %v, want a misconfigured-cluster refusal naming %q", err, tc.want)
			}
		})
	}
}
