package server

import (
	"bytes"
	"testing"

	"mhdedup/internal/client"
	"mhdedup/internal/hashutil"
)

func ch(b byte, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = b
	}
	return out
}

func TestChunkCachePutGet(t *testing.T) {
	c := newChunkCache(1 << 20)
	data := ch('a', 100)
	h := hashutil.SumBytes(data)
	if _, ok := c.get(h); ok {
		t.Fatal("hit on empty cache")
	}
	c.put(h, data)
	got, ok := c.get(h)
	if !ok || string(got) != string(data) {
		t.Fatalf("get = %q, %v", got, ok)
	}
	if bytes, entries := c.stats(); bytes != 100 || entries != 1 {
		t.Fatalf("stats = %d, %d", bytes, entries)
	}
}

func TestChunkCacheEvictsLRU(t *testing.T) {
	c := newChunkCache(250)
	a, b, d := ch('a', 100), ch('b', 100), ch('d', 100)
	ha, hb, hd := hashutil.SumBytes(a), hashutil.SumBytes(b), hashutil.SumBytes(d)
	c.put(ha, a)
	c.put(hb, b)
	c.get(ha) // refresh a; b is now least recent
	c.put(hd, d)
	if _, ok := c.get(hb); ok {
		t.Fatal("b should have been evicted")
	}
	if _, ok := c.get(ha); !ok {
		t.Fatal("a (refreshed) should have survived")
	}
	if _, ok := c.get(hd); !ok {
		t.Fatal("d (newest) should be present")
	}
	if bytes, _ := c.stats(); bytes > 250 {
		t.Fatalf("over budget: %d", bytes)
	}
}

func TestChunkCacheOversizedAndZeroBudget(t *testing.T) {
	c := newChunkCache(50)
	big := ch('x', 100)
	c.put(hashutil.SumBytes(big), big)
	if _, entries := c.stats(); entries != 0 {
		t.Fatal("oversized chunk must not be cached")
	}
	z := newChunkCache(0)
	small := ch('y', 1)
	z.put(hashutil.SumBytes(small), small)
	if _, ok := z.get(hashutil.SumBytes(small)); ok {
		t.Fatal("zero budget must disable caching")
	}
}

// TestServerChunkCacheBudget: a negative Config.ChunkCacheBytes disables the
// server's chunk cache — an ingest leaves it empty — while zero keeps the
// default 256 MiB budget, which the same ingest starts to fill.
func TestServerChunkCacheBudget(t *testing.T) {
	for _, tc := range []struct {
		budget int64
		cached bool
	}{{-1, false}, {0, true}} {
		srv, _, addr := startServer(t, func(c *Config) { c.ChunkCacheBytes = tc.budget })
		ing, err := client.Connect(clientConfig(srv, addr))
		if err != nil {
			t.Fatal(err)
		}
		if err := ing.PutFile("img", bytes.NewReader(genData(31, 256<<10))); err != nil {
			t.Fatal(err)
		}
		if err := ing.Close(); err != nil {
			t.Fatal(err)
		}
		n, entries := srv.CacheStats()
		if (n > 0) != tc.cached || (entries > 0) != tc.cached {
			t.Fatalf("ChunkCacheBytes %d: cache holds %d bytes in %d entries after an ingest", tc.budget, n, entries)
		}
		if tc.budget == 0 && srv.cache.budget != 256<<20 {
			t.Fatalf("ChunkCacheBytes 0: budget %d, want the 256 MiB default", srv.cache.budget)
		}
	}
}
