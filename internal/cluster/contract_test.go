package cluster_test

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"time"

	"mhdedup/internal/algo"
	"mhdedup/internal/chunker"
	"mhdedup/internal/client"
	"mhdedup/internal/core"
	"mhdedup/internal/exp"
	"mhdedup/internal/wire"
)

// gearSD16 is a shard engine off every default the handshake used to pin:
// FastCDC cuts and SD 16.
func gearSD16(t *testing.T) *core.Dedup {
	t.Helper()
	p := exp.Params{Algo: exp.AlgoMHD, Options: algo.Options{ECS: 4096, SD: 16, ExpectedInputBytes: 64 << 20}}
	p.FastCDC = true
	eng, err := exp.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	return eng.(*core.Dedup)
}

// TestUnpinnedClientCutsByAnnouncedContract: a client that pins no options
// learns the cut contract from the HelloOK — of a shard directly, or of a
// gateway that learned it from its shards — cuts every chunk as the shard's
// FastCDC engine would, and restores bit-identically. SD, the shard's own
// knob, is nobody's business but the shard's.
func TestUnpinnedClientCutsByAnnouncedContract(t *testing.T) {
	tc := startClusterOf(t, 2, func(int) *core.Dedup { return gearSD16(t) }, nil)
	want := wire.EngineOptions{Algorithm: "mhd", ECS: 4096, FastCDC: true}
	if got := tc.servers[0].Options(); got != want {
		t.Fatalf("shard announces %+v, want %+v", got, want)
	}
	data := make([]byte, 1<<20)
	rand.New(rand.NewSource(11)).Read(data)
	ch, err := chunker.New(bytes.NewReader(data), chunker.Params{ECS: 4096}, false, true)
	if err != nil {
		t.Fatal(err)
	}
	var cuts int64
	for _, err := ch.Next(); err == nil; _, err = ch.Next() {
		cuts++
	}
	for _, via := range []struct{ name, addr string }{
		{"direct", tc.shards[0].Addr},
		{"gateway", tc.gwAddr},
	} {
		t.Run(via.name, func(t *testing.T) {
			cfg := client.Config{Addr: via.addr, RetryAttempts: 4, RetryDelay: 10 * time.Millisecond}
			ing, err := client.Connect(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := ing.PutFile("img-"+via.name, bytes.NewReader(data)); err != nil {
				t.Fatal(err)
			}
			if err := ing.Close(); err != nil {
				t.Fatal(err)
			}
			if got := ing.Stats().ChunksOffered; got != cuts {
				t.Errorf("offered %d chunks; the shard's FastCDC cuts %d", got, cuts)
			}
			var out bytes.Buffer
			if _, err := client.Restore(cfg, "img-"+via.name, true, &out); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out.Bytes(), data) {
				t.Fatal("restored bytes differ from the ingested ones")
			}
		})
	}

	// A pin that matches is fine; one that differs fails Connect on the
	// client's side.
	pinned := client.Config{Addr: tc.gwAddr, Options: want, RetryAttempts: 2}
	ing, err := client.Connect(pinned)
	if err != nil {
		t.Fatalf("a pin equal to the announced contract: %v", err)
	}
	ing.Close()
	pinned.Options.FastCDC = false
	if _, err := client.Connect(pinned); err == nil || !strings.Contains(err.Error(), "pins") {
		t.Fatalf("a pin other than the announced contract: err = %v", err)
	}
}

// TestGatewayRefusesShardThatCutsOtherwise: the gateway announces the cut
// contract its first shard announced, and a file homed on a shard that
// cuts otherwise is refused, not stored under cuts the client never made.
func TestGatewayRefusesShardThatCutsOtherwise(t *testing.T) {
	tc := startClusterOf(t, 2, func(i int) *core.Dedup {
		if i == 1 {
			return gearSD16(t)
		}
		return newEngine(t)
	}, nil)
	names := tc.namesByShard(t, "", 1)
	cfg := client.Config{Addr: tc.gwAddr, RetryAttempts: 2, RetryDelay: 10 * time.Millisecond}
	ing, err := client.Connect(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ing.Close()
	if err := ing.PutFile(names["s0"][0], bytes.NewReader(make([]byte, 64<<10))); err != nil {
		t.Fatalf("a file homed on the shard whose contract the gateway announced: %v", err)
	}
	err = ing.PutFile(names["s1"][0], bytes.NewReader(make([]byte, 64<<10)))
	if err == nil || !strings.Contains(err.Error(), "misconfigured cluster") {
		t.Fatalf("a file homed on the shard that cuts otherwise: err = %v, want a refusal", err)
	}
}
