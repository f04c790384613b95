package server

import (
	"bytes"
	"strings"
	"testing"

	"mhdedup/internal/algo"
	"mhdedup/internal/client"
	"mhdedup/internal/core"
	"mhdedup/internal/exp"
	"mhdedup/internal/simdisk"
)

// newTreeEngine builds an MHD engine that stores recipes as recipe trees.
func newTreeEngine(t *testing.T) *core.Dedup {
	t.Helper()
	p := exp.Params{Algo: exp.AlgoMHD, Options: algo.Options{ECS: 4096, SD: 64, ExpectedInputBytes: 64 << 20}}
	p.RecipeTrees = true
	eng, err := exp.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	return eng.(*core.Dedup)
}

// TestLoopbackRangedRestore drives the versioned RestoreRange frame end to
// end over loopback TCP, against both recipe formats: a tree-backed engine
// and the default flat one must serve identical, correctly clamped ranges,
// through the plain and the verifying server paths.
func TestLoopbackRangedRestore(t *testing.T) {
	for _, tc := range []struct {
		name  string
		trees bool
	}{{"tree", true}, {"flat", false}} {
		t.Run(tc.name, func(t *testing.T) {
			srv, _, addr := startServer(t, func(cfg *Config) {
				if tc.trees {
					cfg.Engine = newTreeEngine(t)
				}
			})
			data := genData(31, 3<<20)
			ing, err := client.Connect(clientConfig(srv, addr))
			if err != nil {
				t.Fatal(err)
			}
			if err := ing.PutFile("img", bytes.NewReader(data)); err != nil {
				t.Fatal(err)
			}
			if err := ing.Close(); err != nil {
				t.Fatal(err)
			}

			total := int64(len(data))
			probes := []struct{ off, length int64 }{
				{0, 4096},            // head
				{total / 2, 1 << 17}, // interior
				{total - 512, 8192},  // tail, clamps at EOF
				{total + 999, 64},    // past EOF: zero bytes, success
				{0, -1},              // whole file via the ranged frame
			}
			for _, verify := range []bool{false, true} {
				for _, p := range probes {
					var got bytes.Buffer
					res, err := client.RestoreRange(clientConfig(srv, addr), "img", verify, p.off, p.length, &got)
					if err != nil {
						t.Fatalf("RestoreRange(%d, %d, verify=%v): %v", p.off, p.length, verify, err)
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
					if !bytes.Equal(got.Bytes(), data[lo:hi]) {
						t.Fatalf("RestoreRange(%d, %d, verify=%v) returned %d wrong bytes, want [%d:%d)",
							p.off, p.length, verify, got.Len(), lo, hi)
					}
					if res.Bytes != uint64(hi-lo) {
						t.Fatalf("result claims %d bytes, want %d", res.Bytes, hi-lo)
					}
				}
			}

			// Unknown file through the ranged frame is a clean server error,
			// not a hang or a connection drop.
			var sink bytes.Buffer
			if _, err := client.RestoreRange(clientConfig(srv, addr), "ghost", false, 0, 10, &sink); err == nil ||
				!strings.Contains(err.Error(), "server error") {
				t.Fatalf("ranged restore of unknown file: %v", err)
			}
		})
	}
}

// TestPlainRestoreReadsNoManifests: a plain restore follows the recipe to
// raw container ranges and never looks at a manifest, so serving one —
// ranged or whole — must read none: nothing on the request path, format
// detection included, may decode the store's manifests.
func TestPlainRestoreReadsNoManifests(t *testing.T) {
	srv, eng, addr := startServer(t, nil)
	data := genData(32, 2<<20)
	ing, err := client.Connect(clientConfig(srv, addr))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"a", "b"} {
		if err := ing.PutFile(name, bytes.NewReader(data)); err != nil {
			t.Fatal(err)
		}
	}
	if err := ing.Close(); err != nil {
		t.Fatal(err)
	}
	if eng.Disk().ObjectCount(simdisk.Manifest) == 0 {
		t.Fatal("ingest wrote no manifests; nothing for a restore to (not) read")
	}

	before := eng.Disk().Counters().Reads.Get(simdisk.Manifest)
	var got bytes.Buffer
	if _, err := client.RestoreRange(clientConfig(srv, addr), "b", false, 1<<20, 64<<10, &got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), data[1<<20:1<<20+64<<10]) {
		t.Fatal("ranged restore returned wrong bytes")
	}
	got.Reset()
	if _, err := client.Restore(clientConfig(srv, addr), "b", false, &got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), data) {
		t.Fatal("whole-file restore returned wrong bytes")
	}
	if n := eng.Disk().Counters().Reads.Get(simdisk.Manifest) - before; n != 0 {
		t.Fatalf("two plain restores read %d manifests, want 0", n)
	}
}
