package store

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"mhdedup/internal/hashutil"
	"mhdedup/internal/simdisk"
)

// The crash-consistency harness: for many seeds, interrupt SaveDir at a
// random kill point (optionally tearing the file being written), run
// recovery, and demand that the mounted store is bit-for-bit either the
// previously committed generation or the new one — never a hybrid — and
// that it passes the full consistency check. This is the property the
// commit-marker protocol exists to provide.

// diskState fingerprints every object of a disk.
func diskState(d *simdisk.Disk) map[string]hashutil.Sum {
	out := make(map[string]hashutil.Sum)
	for _, cat := range []simdisk.Category{simdisk.Data, simdisk.Hook, simdisk.Manifest, simdisk.FileManifest} {
		for _, name := range d.Names(cat) {
			data, err := d.Read(cat, name)
			if err != nil {
				continue
			}
			out[cat.String()+"/"+name] = hashutil.SumBytes(data)
		}
	}
	return out
}

func statesEqual(a, b map[string]hashutil.Sum) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// addRandomBatch grows the store by a few consistent objects: containers
// tiled by manifests, a hook per container, and files referencing
// entry-aligned ranges.
func addRandomBatch(t *testing.T, rng *rand.Rand, s *Store, tag string) {
	t.Helper()
	nContainers := 1 + rng.Intn(3)
	for c := 0; c < nContainers; c++ {
		size := 64 + rng.Intn(448)
		data := make([]byte, size)
		rng.Read(data)
		name := hashutil.SumString(fmt.Sprintf("%s-c%d", tag, c))
		if err := s.SealDiskChunk(name, data); err != nil {
			t.Fatal(err)
		}
		m := NewManifest(name, FormatBasic)
		var entries []FileRef
		off := 0
		for off < size {
			sz := 16 + rng.Intn(size-off)
			if off+sz > size || size-(off+sz) < 16 {
				sz = size - off
			}
			m.Append(Entry{Hash: hashutil.SumBytes(data[off : off+sz]), Start: int64(off), Size: int64(sz)})
			entries = append(entries, FileRef{Container: name, Start: int64(off), Size: int64(sz)})
			off += sz
		}
		if err := s.CreateManifest(m); err != nil {
			t.Fatal(err)
		}
		if err := s.CreateHook(hashutil.SumString(fmt.Sprintf("%s-h%d", tag, c)), name); err != nil {
			t.Fatal(err)
		}
		fm := &FileManifest{File: fmt.Sprintf("%s/file%d", tag, c)}
		for _, ref := range entries {
			fm.Append(ref)
		}
		if err := s.WriteFileManifest(fm); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCrashConsistency(t *testing.T) {
	seeds := 100
	if testing.Short() {
		seeds = 10
	}
	for seed := 0; seed < seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed-%03d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(int64(seed)))
			dir := t.TempDir()
			disk := simdisk.New()
			s := New(disk, FormatBasic)

			// Generation 1: committed cleanly.
			addRandomBatch(t, rng, s, fmt.Sprintf("s%d-a", seed))
			if err := disk.SaveDir(dir); err != nil {
				t.Fatal(err)
			}
			oldState := diskState(disk)

			// Grow the store, then crash the save at a random point.
			addRandomBatch(t, rng, s, fmt.Sprintf("s%d-b", seed))
			newState := diskState(disk)

			killAt := 1 + rng.Intn(80)
			tear := rng.Intn(2) == 0
			tearFrac := rng.Float64()
			var point int
			disk.SetSaveHook(func(path string, data []byte) ([]byte, error) {
				point++
				if point == killAt {
					if tear && len(data) > 0 {
						return data[:int(float64(len(data))*tearFrac)], simdisk.ErrKilled
					}
					return nil, simdisk.ErrKilled
				}
				return data, nil
			})
			err := disk.SaveDir(dir)
			disk.SetSaveHook(nil)
			killed := err != nil
			if err != nil && !errors.Is(err, simdisk.ErrKilled) {
				t.Fatalf("save failed with a non-injected error: %v", err)
			}

			// Recovery must mount a consistent generation...
			if _, err := simdisk.Recover(dir); err != nil {
				t.Fatalf("recover after kill@%d (tear=%v): %v", killAt, tear, err)
			}
			back, err := simdisk.LoadDir(dir)
			if err != nil {
				t.Fatalf("load after recover: %v", err)
			}

			// ...that is exactly the old or the new store, never a hybrid...
			got := diskState(back)
			isOld, isNew := statesEqual(got, oldState), statesEqual(got, newState)
			if !isOld && !isNew {
				t.Fatalf("kill@%d (tear=%v, killed=%v): recovered store is a hybrid (%d objects; old %d, new %d)",
					killAt, tear, killed, len(got), len(oldState), len(newState))
			}
			// ...and passes the full fsck.
			if rep := Check(back, FormatBasic); !rep.OK() {
				t.Fatalf("kill@%d: recovered store inconsistent: %v", killAt, rep.Problems)
			}

			// The recovered directory accepts a clean save and commits it.
			if err := disk.SaveDir(dir); err != nil {
				t.Fatalf("post-recovery save: %v", err)
			}
			back2, err := simdisk.LoadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			if !statesEqual(diskState(back2), newState) {
				t.Fatal("post-recovery save did not commit the new state")
			}
		})
	}
}
