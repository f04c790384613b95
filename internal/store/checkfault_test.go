package store

import (
	"strings"
	"testing"

	"mhdedup/internal/hashutil"
	"mhdedup/internal/simdisk"
)

// TestCheckDetectsInjectedCorruption drives store.Check against a matrix of
// targeted faults injected through the faultdisk, and demands a distinct,
// attributable Problems line for each. This pins the fsck's coverage: every
// class of metadata damage the fault substrate can produce must be named,
// not silently tolerated and not conflated with a different class.
func TestCheckDetectsInjectedCorruption(t *testing.T) {
	c1 := hashutil.SumString("c1").Hex()
	hk1 := hashutil.SumString("hk1").Hex()
	// Basic-format manifest entries are 36-byte records:
	// 20 hash | 8 big-endian Start | 8 big-endian Size.
	const (
		entry1StartLSB = (36 + 27) * 8 // low bit of entry 1's Start field
		entry0SizeLSB  = 35 * 8        // low bit of entry 0's Size field
	)

	cases := []struct {
		name    string
		corrupt func(t *testing.T, s *Store, disk *simdisk.Disk)
		want    string // substring every matching Problems line must carry
	}{
		{
			name: "bit-flipped manifest start breaks tiling",
			corrupt: func(t *testing.T, s *Store, disk *simdisk.Disk) {
				// 512 -> 513: entry 1 no longer abuts entry 0.
				if err := disk.FlipStoredBit(simdisk.Manifest, c1, entry1StartLSB); err != nil {
					t.Fatal(err)
				}
			},
			want: "gap or overlap",
		},
		{
			name: "bit-flipped manifest size breaks coverage",
			corrupt: func(t *testing.T, s *Store, disk *simdisk.Disk) {
				// Entry 0 claims 513 bytes: entries now cover 1025 of 1024.
				if err := disk.FlipStoredBit(simdisk.Manifest, c1, entry0SizeLSB); err != nil {
					t.Fatal(err)
				}
			},
			want: "entries cover",
		},
		{
			name: "truncated manifest is undecodable",
			corrupt: func(t *testing.T, s *Store, disk *simdisk.Disk) {
				if err := disk.TruncateStored(simdisk.Manifest, c1, 35); err != nil {
					t.Fatal(err)
				}
			},
			want: "payload 35 bytes is not a multiple of",
		},
		{
			name: "dangling hook after manifest loss",
			corrupt: func(t *testing.T, s *Store, disk *simdisk.Disk) {
				if err := s.Disk().Delete(simdisk.Manifest, c1); err != nil {
					t.Fatal(err)
				}
			},
			want: "target manifest",
		},
		{
			name: "truncated hook payload",
			corrupt: func(t *testing.T, s *Store, disk *simdisk.Disk) {
				if err := disk.TruncateStored(simdisk.Hook, hk1, 10); err != nil {
					t.Fatal(err)
				}
			},
			want: "payload of 10 bytes is malformed",
		},
		{
			name: "truncated file manifest",
			corrupt: func(t *testing.T, s *Store, disk *simdisk.Disk) {
				if err := disk.TruncateStored(simdisk.FileManifest, "f/one", 30); err != nil {
					t.Fatal(err)
				}
			},
			want: "30 bytes not a multiple of",
		},
		{
			name: "truncated container orphans manifest ranges",
			corrupt: func(t *testing.T, s *Store, disk *simdisk.Disk) {
				if err := disk.TruncateStored(simdisk.Data, c1, 700); err != nil {
					t.Fatal(err)
				}
			},
			want: "outside container of 700 bytes",
		},
		{
			name: "deleted container reported for files too",
			corrupt: func(t *testing.T, s *Store, disk *simdisk.Disk) {
				if err := s.Disk().Delete(simdisk.Data, c1); err != nil {
					t.Fatal(err)
				}
			},
			want: "container " + hashutil.SumString("c1").String() + " missing",
		},
	}

	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			s, _ := buildVerifyStore(t)
			tc.corrupt(t, s, s.Disk())

			rep := Check(s.Disk(), FormatBasic)
			if rep.OK() {
				t.Fatalf("Check reported OK on a store with injected fault %q", tc.name)
			}
			found := false
			for _, p := range rep.Problems {
				if strings.Contains(p, tc.want) {
					found = true
				}
			}
			if !found {
				t.Fatalf("Problems = %v\nwant a line containing %q", rep.Problems, tc.want)
			}
		})
	}

	// The cases above are pairwise distinct: no fault's signature line
	// matches another fault's expectation, so Check attributes each class
	// of damage unambiguously.
	for i, a := range cases {
		for j, b := range cases {
			if i != j && strings.Contains(a.want, b.want) {
				t.Fatalf("case %q and %q do not have distinct signatures", a.name, b.name)
			}
		}
	}
}

// TestCheckSurvivesRandomCorruptionStorm sprays persistent bit flips over
// every manifest and checks the union property: a flip landing in a Start or
// Size field is structural damage that Check must flag, while a flip landing
// in an entry's hash field is invisible to the structural fsck by design —
// but then the Verifier must report the claim/content mismatch instead. No
// manifest flip may escape both layers.
func TestCheckSurvivesRandomCorruptionStorm(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		s, _ := buildVerifyStore(t)
		mutated := s.Disk().CorruptStored(simdisk.Manifest, 1.0, seed)
		if len(mutated) == 0 {
			t.Fatal("corruption plan mutated nothing")
		}
		if rep := Check(s.Disk(), FormatBasic); !rep.OK() {
			continue // structural layer caught it
		}
		v := NewVerifier(s, VerifyOpts{})
		caught := len(v.BadManifests) > 0
		for _, c := range v.Containers() {
			bad, err := v.VerifyContainer(c)
			if err != nil || len(bad) > 0 {
				caught = true
			}
		}
		if !caught {
			t.Fatalf("seed %d: manifest flips in %v escaped both Check and Verifier", seed, mutated)
		}
	}
}
