package simdisk

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"
)

// Fault injection. The paper measures a prototype on a healthy Ext3 file
// system; a production deduplicating store additionally has to survive the
// failure modes real disks exhibit: transient I/O errors, torn (prefix-
// truncated) writes, latent sector corruption (bit flips) and crashes in
// the middle of a persistence pass. FaultDisk is the deterministic,
// seed-driven fault injector the robustness tests are built on: it wraps a
// *Disk, implements the same operation surface, and decides
// the fate of every operation from a FaultPlan and a seeded RNG, so every
// failing schedule is reproducible from its seed.

// Sentinel errors distinguishing injected faults from genuine bugs.
var (
	// ErrInjected marks a fault injected by a FaultDisk (transient I/O
	// error, torn write).
	ErrInjected = errors.New("injected I/O fault")
	// ErrKilled marks a simulated crash: the operation (and everything
	// after it) aborts as if the process had died. SaveDir recognizes it
	// and deliberately leaves its partial temporary state on disk so
	// recovery paths can be exercised against realistic wreckage.
	ErrKilled = errors.New("simulated crash")
)

// FaultPlan configures a FaultDisk. Rates are probabilities in [0,1]
// evaluated independently per operation with the plan's seeded RNG; zero
// values inject nothing, so the zero plan is a transparent wrapper.
type FaultPlan struct {
	// Seed drives the injector's RNG. Equal plans over equal operation
	// sequences inject identical faults.
	Seed int64

	// ReadErrorRate is the probability that a Read/ReadRange fails with
	// ErrInjected (a transient error: retrying may succeed).
	ReadErrorRate float64
	// WriteErrorRate is the probability that a Create/Write fails with
	// ErrInjected before mutating anything.
	WriteErrorRate float64
	// TornWriteRate is the probability that a Create persists only a
	// random prefix of the payload and then fails with ErrInjected — the
	// classic torn write of a non-atomic file system.
	TornWriteRate float64
	// ReadFlipRate is the probability that a Read/ReadRange returns data
	// with a single flipped bit while the stored object stays intact (a
	// transient bus/RAM error: re-reading returns good bytes).
	ReadFlipRate float64

	// OpLatency, when non-nil, charges the given simulated latency per
	// operation kind, accumulated into TotalLatency. It models slow paths
	// (a failing drive retrying internally) without real sleeping.
	OpLatency map[Op]time.Duration

	// KillAfterOps, when positive, makes every operation from the Nth
	// onward (1-based, counted across all operations) fail with
	// ErrKilled — the crash kill-point for tests that abort mid-workload.
	KillAfterOps int64

	// Categories, when non-nil, restricts injection to the categories
	// mapped to true; nil means every category is eligible.
	Categories map[Category]bool
}

// FaultStats counts the faults a FaultDisk has injected.
type FaultStats struct {
	ReadErrors  int64
	WriteErrors int64
	TornWrites  int64
	ReadFlips   int64
	Kills       int64
	Ops         int64
}

// FaultDisk wraps a Disk with deterministic fault injection. It is safe
// for concurrent use: one mutex serializes the RNG and counters, and the
// inner Disk serializes itself. Construct with NewFaultDisk.
type FaultDisk struct {
	inner *Disk

	mu      sync.Mutex
	plan    FaultPlan
	rng     *rand.Rand
	stats   FaultStats
	latency time.Duration
}

// NewFaultDisk returns a fault-injecting wrapper over disk driven by plan.
func NewFaultDisk(disk *Disk, plan FaultPlan) *FaultDisk {
	return &FaultDisk{
		inner: disk,
		plan:  plan,
		rng:   rand.New(rand.NewSource(plan.Seed)),
	}
}

// Stats returns a snapshot of the injected-fault counters.
func (f *FaultDisk) Stats() FaultStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}

// TotalLatency returns the simulated latency accumulated so far under the
// plan's OpLatency table.
func (f *FaultDisk) TotalLatency() time.Duration {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.latency
}

// eligible reports whether cat is subject to injection under the plan.
func (f *FaultDisk) eligible(cat Category) bool {
	return f.plan.Categories == nil || f.plan.Categories[cat]
}

// step charges latency, advances the operation counter, and decides the
// fault for one operation. It returns (tearAt, err): err non-nil aborts
// the operation; tearAt >= 0 additionally instructs a torn write of that
// many payload bytes.
func (f *FaultDisk) step(op Op, cat Category, payloadLen int) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.stats.Ops++
	if f.plan.OpLatency != nil {
		f.latency += f.plan.OpLatency[op]
	}
	if f.plan.KillAfterOps > 0 && f.stats.Ops >= f.plan.KillAfterOps {
		f.stats.Kills++
		return -1, ErrKilled
	}
	if !f.eligible(cat) {
		return -1, nil
	}
	switch op {
	case OpRead:
		if f.plan.ReadErrorRate > 0 && f.rng.Float64() < f.plan.ReadErrorRate {
			f.stats.ReadErrors++
			return -1, fmt.Errorf("%w: read error", ErrInjected)
		}
	case OpCreate, OpWrite:
		if f.plan.WriteErrorRate > 0 && f.rng.Float64() < f.plan.WriteErrorRate {
			f.stats.WriteErrors++
			return -1, fmt.Errorf("%w: write error", ErrInjected)
		}
		if f.plan.TornWriteRate > 0 && payloadLen > 0 && f.rng.Float64() < f.plan.TornWriteRate {
			f.stats.TornWrites++
			return f.rng.Intn(payloadLen), nil
		}
	}
	return -1, nil
}

// maybeFlip returns data with one flipped bit when the plan says so; the
// stored object is untouched (the flip is transient).
func (f *FaultDisk) maybeFlip(cat Category, data []byte) []byte {
	if len(data) == 0 {
		return data
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.eligible(cat) || f.plan.ReadFlipRate <= 0 || f.rng.Float64() >= f.plan.ReadFlipRate {
		return data
	}
	f.stats.ReadFlips++
	bit := f.rng.Intn(len(data) * 8)
	out := append([]byte(nil), data...)
	out[bit/8] ^= 1 << (bit % 8)
	return out
}

// Create stores a new object, possibly failing or tearing the write.
func (f *FaultDisk) Create(cat Category, name string, data []byte) error {
	return f.put(OpCreate, f.inner.Create, cat, name, data)
}

// Write replaces an object's content, possibly failing or tearing first.
func (f *FaultDisk) Write(cat Category, name string, data []byte) error {
	return f.put(OpWrite, f.inner.Write, cat, name, data)
}

func (f *FaultDisk) put(op Op, put func(Category, string, []byte) error, cat Category, name string, data []byte) error {
	tearAt, err := f.step(op, cat, len(data))
	if err != nil {
		return err
	}
	if tearAt >= 0 {
		// Persist the prefix, then report failure: exactly what a crash
		// between a file system's data blocks and its size update leaves.
		if err := put(cat, name, data[:tearAt]); err != nil {
			return err
		}
		return fmt.Errorf("%w: torn write of %v %q after %d/%d bytes",
			ErrInjected, cat, name, tearAt, len(data))
	}
	return put(cat, name, data)
}

// Delete removes an object.
func (f *FaultDisk) Delete(cat Category, name string) error {
	if _, err := f.step(OpDelete, cat, 0); err != nil {
		return err
	}
	return f.inner.Delete(cat, name)
}

// Read returns an object's content, possibly failing or flipping a bit.
func (f *FaultDisk) Read(cat Category, name string) ([]byte, error) {
	return f.read(cat, func() ([]byte, error) { return f.inner.Read(cat, name) })
}

// ReadRange returns part of an object, possibly failing or flipping a bit.
func (f *FaultDisk) ReadRange(cat Category, name string, off, length int64) ([]byte, error) {
	return f.read(cat, func() ([]byte, error) { return f.inner.ReadRange(cat, name, off, length) })
}

func (f *FaultDisk) read(cat Category, read func() ([]byte, error)) ([]byte, error) {
	if _, err := f.step(OpRead, cat, 0); err != nil {
		return nil, err
	}
	data, err := read()
	if err != nil {
		return nil, err
	}
	return f.maybeFlip(cat, data), nil
}

// Exists reports whether the object is present. Injected faults make it
// report false, like a failing stat.
func (f *FaultDisk) Exists(cat Category, name string) bool {
	if _, err := f.step(OpExists, cat, 0); err != nil {
		return false
	}
	return f.inner.Exists(cat, name)
}

// Size passes through to the inner disk (in-RAM metadata, never faulted).
func (f *FaultDisk) Size(cat Category, name string) (int64, bool) {
	return f.inner.Size(cat, name)
}

// --- Persistent (latent) corruption helpers -------------------------------
//
// The methods below mutate the *stored* objects of the inner disk directly,
// modelling latent sector errors: the damage persists until detected and
// repaired. They bypass the operation counters (corruption is not an access
// the store performs) and are deterministic under the plan's seed.

// FlipStoredBit flips one bit of the stored object, persistently. The bit
// index is taken modulo the object's size in bits.
func (f *FaultDisk) FlipStoredBit(cat Category, name string, bit int) error {
	return f.inner.mutateRaw(cat, name, func(data []byte) ([]byte, error) {
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
func (f *FaultDisk) TruncateStored(cat Category, name string, n int) error {
	return f.inner.mutateRaw(cat, name, func(data []byte) ([]byte, error) {
		if n < 0 || n > len(data) {
			return nil, fmt.Errorf("simdisk: truncate %v %q to %d of %d bytes", cat, name, n, len(data))
		}
		return append([]byte(nil), data[:n]...), nil
	})
}

// CorruptStored flips one random bit in approximately rate of the stored
// objects of cat, persistently, and returns the sorted names of the objects
// it corrupted. Selection and bit positions come from the plan's RNG, so a
// given seed corrupts the same objects every run.
func (f *FaultDisk) CorruptStored(cat Category, rate float64) []string {
	names := f.inner.Names(cat)
	sort.Strings(names)
	var corrupted []string
	f.mu.Lock()
	type pick struct {
		name string
		bit  int
	}
	var picks []pick
	for _, name := range names {
		if f.rng.Float64() < rate {
			picks = append(picks, pick{name, f.rng.Int()})
		}
	}
	f.mu.Unlock()
	for _, p := range picks {
		if err := f.FlipStoredBit(cat, p.name, p.bit); err == nil {
			corrupted = append(corrupted, p.name)
		}
	}
	return corrupted
}
