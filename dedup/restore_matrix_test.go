package dedup

import (
	"bytes"
	"fmt"
	"testing"
)

// matrixWorkload synthesizes one machine's backup generations: a base
// image plus per-generation localized edits, the self-similar stream every
// algorithm's dedup path exercises hardest.
func matrixWorkload(seed int64) map[string][]byte {
	base := randBytes(seed, 140_000)
	files := map[string][]byte{"img/day1": base}
	prev := base
	for day := 2; day <= 3; day++ {
		gen := append([]byte(nil), prev...)
		for i := 0; i < 4; i++ {
			off := (int(seed)*13_337 + day*31_013 + i*29_989) % (len(gen) - 3_000)
			copy(gen[off:], randBytes(seed*100+int64(day*10+i), 3_000))
		}
		files[fmt.Sprintf("img/day%d", day)] = gen
		prev = gen
	}
	return files
}

// TestRestoreMatrixParallelEqualsSerial is the differential acceptance
// gate at the public API: for every servable format — the two paper
// algorithms and the three baselines, which lay out containers and recipes
// differently — every file restored with reads in flight must be
// bit-identical to the default restore and to the bytes that were
// ingested, across worker counts, a save/open round-trip, and an explicit
// crash-recovery pass. The verifying restore path is held to the same
// standard.
func TestRestoreMatrixParallelEqualsSerial(t *testing.T) {
	algos := []Algorithm{MHD, SIMHD, CDC, Bimodal, SubChunk}
	for _, algo := range algos {
		algo := algo
		t.Run(string(algo), func(t *testing.T) {
			t.Parallel()
			for _, seed := range []int64{1, 7} {
				files := matrixWorkload(seed)
				eng, err := New(algo, Options{ECS: 1024, SD: 8, BloomBytes: 1 << 16})
				if err != nil {
					t.Fatal(err)
				}
				for day := 1; day <= 3; day++ {
					name := fmt.Sprintf("img/day%d", day)
					if err := eng.PutFile(name, bytes.NewReader(files[name])); err != nil {
						t.Fatal(err)
					}
				}
				if err := eng.Finish(); err != nil {
					t.Fatal(err)
				}
				dir := t.TempDir()
				if err := SaveStore(eng, dir); err != nil {
					t.Fatal(err)
				}

				checkStore := func(label string) {
					st, err := OpenStore(dir)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					// The default restore first (plain: one planned read at a
					// time; verified: the GOMAXPROCS width), per file, both
					// paths, against the ingested bytes.
					serial := map[string][]byte{}
					serialVerified := map[string][]byte{}
					for _, name := range st.Files() {
						var plain, verified bytes.Buffer
						if err := st.Restore(name, &plain); err != nil {
							t.Fatalf("%s: serial restore %s: %v", label, name, err)
						}
						if err := st.VerifyRestore(name, &verified); err != nil {
							t.Fatalf("%s: serial verified restore %s: %v", label, name, err)
						}
						want := files[name]
						if !bytes.Equal(plain.Bytes(), want) || !bytes.Equal(verified.Bytes(), want) {
							t.Fatalf("%s: serial restore of %s diverges from ingested bytes", label, name)
						}
						serial[name] = plain.Bytes()
						serialVerified[name] = verified.Bytes()
					}
					for _, workers := range []int{1, 2, 8} {
						for _, name := range st.Files() {
							var plain, verified bytes.Buffer
							if _, err := st.restoreAt(workers, false, name, 0, -1, &plain); err != nil {
								t.Fatalf("%s workers=%d: restore %s: %v", label, workers, name, err)
							}
							if !bytes.Equal(plain.Bytes(), serial[name]) {
								t.Fatalf("%s workers=%d: %s diverges from serial", label, workers, name)
							}
							if _, err := st.restoreAt(workers, true, name, 0, -1, &verified); err != nil {
								t.Fatalf("%s workers=%d: verified restore %s: %v", label, workers, name, err)
							}
							if !bytes.Equal(verified.Bytes(), serialVerified[name]) {
								t.Fatalf("%s workers=%d: verified %s diverges from serial", label, workers, name)
							}
						}
					}
				}

				checkStore(fmt.Sprintf("seed %d", seed))
				// Crash-recovery round-trip: RecoverStore mounts the last
				// consistent generation; the matrix must hold on the
				// recovered store too.
				if _, err := RecoverStore(dir); err != nil {
					t.Fatal(err)
				}
				checkStore(fmt.Sprintf("seed %d post-recover", seed))
			}
		})
	}
}
