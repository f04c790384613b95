package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// ingestVariant runs the given config over a base + edited-files workload
// and returns the finished Dedup.
func ingestVariant(t *testing.T, cfg Config) *Dedup {
	t.Helper()
	base := randBytes(71, 400_000)
	files := map[string][]byte{"a": base}
	order := []string{"a"}
	for i := int64(1); i <= 3; i++ {
		e := append([]byte(nil), base...)
		copy(e[100_000*i:], randBytes(500+i, 6_000))
		name := fmt.Sprintf("v%d", i)
		files[name] = e
		order = append(order, name)
	}
	d := ingest(t, cfg, files, order)
	checkRestore(t, d, files)
	checkInvariants(t, d)
	return d
}

func TestSHMPerSliceStrategy(t *testing.T) {
	cfg := testConfig()
	buffered := ingestVariant(t, cfg)
	cfg.SHMPerSlice = true
	perSlice := ingestVariant(t, cfg)

	// Per-slice SHM guarantees at least one hook per non-duplicate slice,
	// so it produces at least as many hooks as buffer-flush SHM.
	bh := buffered.Report().InodesHook
	ph := perSlice.Report().InodesHook
	if ph < bh {
		t.Errorf("per-slice SHM produced fewer hooks (%d) than buffered SHM (%d)", ph, bh)
	}
	// And it must not lose deduplication.
	if perSlice.Stats().DupBytes < buffered.Stats().DupBytes*9/10 {
		t.Errorf("per-slice SHM lost dedup: %d vs %d dup bytes",
			perSlice.Stats().DupBytes, buffered.Stats().DupBytes)
	}
}

func TestTTTDChunkerVariant(t *testing.T) {
	cfg := testConfig()
	cfg.TTTD = true
	d := ingestVariant(t, cfg)
	if d.Stats().DupBytes == 0 {
		t.Error("TTTD-chunked MHD found no duplicates")
	}
}

func TestVariantsComposable(t *testing.T) {
	cfg := testConfig()
	cfg.TTTD = true
	cfg.SHMPerSlice = true
	cfg.DisableBloom = true
	content := randBytes(73, 200_000)
	files := map[string][]byte{"a": content, "b": append([]byte(nil), content...)}
	d := ingest(t, cfg, files, []string{"a", "b"})
	checkRestore(t, d, files)
	if d.Stats().DupBytes != int64(len(content)) {
		t.Errorf("composed variants: dup bytes = %d, want %d", d.Stats().DupBytes, len(content))
	}
}

// TestRandomizedRoundTripProperty is a randomized stress test of the master
// invariant: any mix of unique, duplicate and partially-edited files must
// restore byte-identically under every feature combination.
func TestRandomizedRoundTripProperty(t *testing.T) {
	variants := []func(*Config){
		func(c *Config) {},
		func(c *Config) { c.SHMPerSlice = true },
		func(c *Config) { c.TTTD = true },
		func(c *Config) { c.SD = 2 }, // minimum legal SD
		func(c *Config) { c.CacheManifests = 1 },
	}
	for vi, mut := range variants {
		cfg := testConfig()
		mut(&cfg)
		d, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		files := map[string][]byte{}
		rng := rand.New(rand.NewSource(int64(vi) * 7919))
		var prev []byte
		for i := 0; i < 8; i++ {
			name := fmt.Sprintf("f%d-%d", vi, i)
			var content []byte
			switch {
			case i == 0 || rng.Intn(3) == 0:
				content = randBytes(int64(vi*100+i), 50_000+rng.Intn(150_000))
			case rng.Intn(2) == 0 && prev != nil:
				content = append([]byte(nil), prev...) // exact duplicate
			default: // edited copy of the previous file
				content = append([]byte(nil), prev...)
				off := rng.Intn(len(content) / 2)
				n := rng.Intn(10_000) + 100
				if off+n > len(content) {
					n = len(content) - off
				}
				copy(content[off:], randBytes(int64(i*31+vi), n))
			}
			prev = content
			files[name] = content
			if err := d.PutFile(name, bytes.NewReader(content)); err != nil {
				t.Fatalf("variant %d: PutFile(%s): %v", vi, name, err)
			}
		}
		if err := d.Finish(); err != nil {
			t.Fatal(err)
		}
		for name, want := range files {
			var got bytes.Buffer
			if err := d.Restore(name, &got); err != nil {
				t.Fatalf("variant %d: restore %s: %v", vi, name, err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Fatalf("variant %d: %s corrupted on restore", vi, name)
			}
		}
	}
}

func TestFastCDCVariant(t *testing.T) {
	cfg := testConfig()
	cfg.FastCDC = true
	d := ingestVariant(t, cfg)
	if d.Stats().DupBytes == 0 {
		t.Error("FastCDC-chunked MHD found no duplicates")
	}
	bad := testConfig()
	bad.TTTD = true
	bad.FastCDC = true
	if _, err := New(bad); err == nil {
		t.Error("TTTD+FastCDC accepted")
	}
}
