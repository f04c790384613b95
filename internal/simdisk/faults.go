package simdisk

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
)

// Fault injection. The paper measures a prototype on a healthy Ext3 file
// system; a production deduplicating store additionally has to survive the
// failure modes real disks exhibit: I/O errors, torn writes, latent sector
// corruption (bit flips) and crashes in the middle of a persistence pass.
// Every engine and store runs on a *Disk, so the faults are the Disk's own:
// SetFailureHook fails any operation before it runs, SetSaveHook fails,
// tears or kills (ErrKilled) SaveDir at any of its file-system mutations,
// SetReadTransform damages what one read returns and never the stored
// object, SetReadDelay slows every read, and the three methods below damage
// stored objects persistently.

// ErrKilled marks a simulated crash: the operation (and everything after
// it) aborts as if the process had died. SaveDir recognizes it and
// deliberately leaves its partial temporary state on disk so recovery paths
// can be exercised against realistic wreckage.
var ErrKilled = errors.New("simulated crash")

// The methods below replace stored objects with damaged copies, modelling
// latent sector errors: the damage persists until found and repaired. Like
// mutateRaw they charge no access (corruption is not an operation the store
// performs), and views taken before the damage keep their bytes.

// FlipStoredBit flips one bit of the stored object, persistently. The bit
// index is taken modulo the object's size in bits.
func (d *Disk) FlipStoredBit(cat Category, name string, bit int) error {
	return d.mutateRaw(cat, name, func(data []byte) ([]byte, error) {
		if len(data) == 0 {
			return nil, fmt.Errorf("simdisk: cannot flip a bit of empty %v object %q", cat, name)
		}
		if bit < 0 {
			bit = -bit
		}
		bit %= len(data) * 8
		out := append([]byte(nil), data...)
		out[bit/8] ^= 1 << (bit % 8)
		return out, nil
	})
}

// TruncateStored truncates the stored object to n bytes, persistently (the
// durable version of a torn write discovered after the fact).
func (d *Disk) TruncateStored(cat Category, name string, n int) error {
	return d.mutateRaw(cat, name, func(data []byte) ([]byte, error) {
		if n < 0 || n > len(data) {
			return nil, fmt.Errorf("simdisk: truncate %v %q to %d of %d bytes", cat, name, n, len(data))
		}
		return append([]byte(nil), data[:n]...), nil
	})
}

// CorruptStored flips one random bit in approximately rate of the stored
// objects of cat, persistently, and returns the sorted names of the objects
// it corrupted. Selection and bit positions come from an RNG seeded with
// seed, so a given seed corrupts the same objects at the same bits every run.
func (d *Disk) CorruptStored(cat Category, rate float64, seed int64) []string {
	names := d.Names(cat)
	sort.Strings(names)
	rng := rand.New(rand.NewSource(seed))
	var corrupted []string
	for _, name := range names {
		if rng.Float64() < rate && d.FlipStoredBit(cat, name, rng.Int()) == nil {
			corrupted = append(corrupted, name)
		}
	}
	return corrupted
}
