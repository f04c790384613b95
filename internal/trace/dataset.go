package trace

import (
	"fmt"
	"io"
	"math/rand"
)

// OSKind labels the operating system family of a simulated machine.
// Machines of the same kind share OS/application content, which is the
// cross-machine duplication source.
type OSKind int

const (
	Windows OSKind = iota
	Linux
	Mac
)

// String returns the OS name.
func (k OSKind) String() string {
	switch k {
	case Windows:
		return "windows"
	case Linux:
		return "linux"
	case Mac:
		return "mac"
	default:
		return fmt.Sprintf("os(%d)", int(k))
	}
}

// Config parameterizes a synthetic backup dataset. The zero value is not
// usable; start from Default() and override.
type Config struct {
	// Machines is the number of simulated PCs (the paper used 14).
	Machines int
	// Days is the number of daily snapshots per machine (the paper's trace
	// spans two weeks).
	Days int
	// SnapshotBytes is the approximate size of one machine's disk image.
	SnapshotBytes int64
	// SharedFraction is the fraction of a fresh image drawn from the
	// machine's OS pool (shared with same-OS machines); the rest is unique.
	SharedFraction float64
	// EditsPerDay is the number of localized mutations applied between
	// consecutive snapshots. Together with EditBytes it sets the daily
	// change rate and the duplicate-slice length (DAD).
	EditsPerDay int
	// EditBytes is the mean size of one mutation.
	EditBytes int64
	// HotspotFraction is the fraction of each day's edits that rewrite a
	// fixed set of per-machine positions (in place, fresh content) —
	// modeling logs, databases and profiles that real disk images rewrite
	// at the same sites every day. Recurring change sites are what let
	// MHD's EdgeHash amortize HHR across backup generations.
	HotspotFraction float64
	// MaxFileBytes, when positive, splits each snapshot into input files of
	// at most this size; zero means one file per snapshot.
	MaxFileBytes int64
	// Seed makes the whole dataset reproducible.
	Seed int64
}

// Default returns the laptop-scaled configuration used by the experiment
// harness: 14 machines × 14 days, tuned so that the data-only DER is close
// to the paper's ≈4.15 and the DAD falls in the paper's 90–220 KB band.
func Default() Config {
	return Config{
		Machines:        14,
		Days:            14,
		SnapshotBytes:   8 << 20,
		SharedFraction:  0.6,
		EditsPerDay:     40,
		EditBytes:       48 << 10,
		HotspotFraction: 0.5,
		MaxFileBytes:    0,
		Seed:            1,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	switch {
	case c.Machines <= 0:
		return fmt.Errorf("trace: Machines must be positive")
	case c.Days <= 0:
		return fmt.Errorf("trace: Days must be positive")
	case c.SnapshotBytes < 1<<16:
		return fmt.Errorf("trace: SnapshotBytes must be at least 64 KiB")
	case c.SharedFraction < 0 || c.SharedFraction > 1:
		return fmt.Errorf("trace: SharedFraction must be in [0,1]")
	case c.EditsPerDay < 0:
		return fmt.Errorf("trace: EditsPerDay must be non-negative")
	case c.EditBytes <= 0:
		return fmt.Errorf("trace: EditBytes must be positive")
	case c.HotspotFraction < 0 || c.HotspotFraction > 1:
		return fmt.Errorf("trace: HotspotFraction must be in [0,1]")
	case c.MaxFileBytes < 0:
		return fmt.Errorf("trace: MaxFileBytes must be non-negative")
	}
	return nil
}

// extent references n bytes of a pool starting at off.
type extent struct {
	pool uint64
	off  int64
	n    int64
}

// FileInfo describes one input file of the dataset.
type FileInfo struct {
	// Name is "m<machine>/d<day>" with an optional "/p<part>" suffix when
	// snapshots are split.
	Name string
	// Machine and Day locate the snapshot this file belongs to.
	Machine, Day int
	// Size is the exact file size in bytes.
	Size int64

	exts []extent
}

// Dataset is a fully specified synthetic workload: an ordered list of input
// files whose contents can be streamed any number of times.
type Dataset struct {
	cfg    Config
	files  []FileInfo
	byName map[string]int
	total  int64
}

// machineOS assigns OS kinds with the mixed population the paper describes
// (a majority of Windows machines, some Linux, a couple of Macs).
func machineOS(machine, total int) OSKind {
	// Proportions 4:2:1 across windows/linux/mac.
	r := machine * 7 / total
	switch {
	case r < 4:
		return Windows
	case r < 6:
		return Linux
	default:
		return Mac
	}
}

// Pool ID namespaces.
const (
	osPoolBase      = 1 << 32
	machinePoolBase = 2 << 32
)

// New builds the dataset: it simulates every machine's daily snapshots and
// records each as a list of pool extents. Building is cheap (no content is
// generated); bytes are produced lazily by Open/EachFile.
func New(cfg Config) (*Dataset, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	d := &Dataset{cfg: cfg, byName: make(map[string]int)}
	for m := 0; m < cfg.Machines; m++ {
		os := machineOS(m, cfg.Machines)
		state := newMachine(cfg, m, os)
		for day := 0; day < cfg.Days; day++ {
			if day > 0 {
				state.mutate(day)
			}
			d.addSnapshot(m, day, state.snapshot())
		}
	}
	for _, f := range d.files {
		d.total += f.Size
	}
	return d, nil
}

// addSnapshot splits a snapshot's extents into files per MaxFileBytes and
// registers them.
func (d *Dataset) addSnapshot(machine, day int, exts []extent) {
	limit := d.cfg.MaxFileBytes
	var parts [][]extent
	if limit <= 0 {
		parts = [][]extent{exts}
	} else {
		var cur []extent
		var curBytes int64
		for _, e := range exts {
			for e.n > 0 {
				room := limit - curBytes
				take := e.n
				if take > room {
					take = room
				}
				cur = append(cur, extent{pool: e.pool, off: e.off, n: take})
				curBytes += take
				e.off += take
				e.n -= take
				if curBytes == limit {
					parts = append(parts, cur)
					cur, curBytes = nil, 0
				}
			}
		}
		if len(cur) > 0 {
			parts = append(parts, cur)
		}
	}
	for p, part := range parts {
		name := fmt.Sprintf("m%02d/d%02d", machine, day)
		if len(parts) > 1 {
			name = fmt.Sprintf("%s/p%03d", name, p)
		}
		info := FileInfo{Name: name, Machine: machine, Day: day, exts: part}
		for _, e := range part {
			info.Size += e.n
		}
		d.byName[name] = len(d.files)
		d.files = append(d.files, info)
	}
}

// Files returns the input files in processing order (machine-major,
// day-minor — each machine's backups arrive day by day, interleaved
// machine by machine as the paper's group of PCs would be backed up).
func (d *Dataset) Files() []FileInfo {
	return d.files
}

// TotalBytes returns the exact total input size.
func (d *Dataset) TotalBytes() int64 { return d.total }

// Open returns a reader streaming the named file's content. The same name
// always yields identical bytes.
func (d *Dataset) Open(name string) (io.Reader, error) {
	i, ok := d.byName[name]
	if !ok {
		return nil, fmt.Errorf("trace: unknown file %q", name)
	}
	return newExtentReader(d.files[i].exts), nil
}

// EachFile streams every file in order through fn, stopping at the first
// error.
func (d *Dataset) EachFile(fn func(info FileInfo, r io.Reader) error) error {
	for _, f := range d.files {
		if err := fn(f, newExtentReader(f.exts)); err != nil {
			return err
		}
	}
	return nil
}

// extentReader streams the bytes referenced by a list of extents.
type extentReader struct {
	exts []extent
	cur  int
	pos  int64 // within exts[cur]
}

func newExtentReader(exts []extent) *extentReader {
	return &extentReader{exts: exts}
}

// Read implements io.Reader.
func (r *extentReader) Read(p []byte) (int, error) {
	for r.cur < len(r.exts) && r.pos == r.exts[r.cur].n {
		r.cur++
		r.pos = 0
	}
	if r.cur >= len(r.exts) {
		return 0, io.EOF
	}
	e := r.exts[r.cur]
	n := e.n - r.pos
	if n > int64(len(p)) {
		n = int64(len(p))
	}
	pool{id: e.pool}.fill(e.off+r.pos, p[:n])
	r.pos += n
	return int(n), nil
}

// machine evolves one machine's disk image from day to day.
type machine struct {
	cfg      Config
	index    int
	os       OSKind
	exts     []extent
	uniqueID uint64
	freshOff int64
	// hotspots are the machine's recurring change sites: fixed positions
	// and sizes rewritten (with fresh content) every day.
	hotspots []hotspot
}

type hotspot struct {
	pos  int64
	size int64
}

func newMachine(cfg Config, index int, os OSKind) *machine {
	m := &machine{
		cfg:      cfg,
		index:    index,
		os:       os,
		uniqueID: machinePoolBase + uint64(cfg.Seed)<<16 + uint64(index),
	}
	m.buildDayZero()
	m.placeHotspots()
	return m
}

// placeHotspots samples the machine's recurring change sites. Their count
// tracks HotspotFraction·EditsPerDay so that each site is rewritten about
// once per day.
func (m *machine) placeHotspots() {
	n := int(float64(m.cfg.EditsPerDay) * m.cfg.HotspotFraction)
	if n == 0 {
		return
	}
	rng := rand.New(rand.NewSource(m.cfg.Seed<<16 ^ int64(0x7057+m.index)))
	total := m.totalBytes()
	for i := 0; i < n; i++ {
		m.hotspots = append(m.hotspots, hotspot{
			pos:  rng.Int63n(total),
			size: m.cfg.EditBytes/2 + rng.Int63n(m.cfg.EditBytes),
		})
	}
}

// buildDayZero interleaves OS-pool extents (identical layout for all
// machines of the same OS, so they deduplicate against each other) with
// unique extents, honoring SharedFraction.
func (m *machine) buildDayZero() {
	osPool := osPoolBase + uint64(m.cfg.Seed)<<16 + uint64(m.os)
	// The OS layout RNG is keyed by OS kind only: every same-OS machine
	// walks the OS pool identically.
	layout := rand.New(rand.NewSource(m.cfg.Seed<<8 ^ int64(m.os)))
	perso := rand.New(rand.NewSource(m.cfg.Seed<<8 ^ int64(0x1000+m.index)))
	var osOff, total int64
	f := m.cfg.SharedFraction
	for total < m.cfg.SnapshotBytes {
		osLen := 256<<10 + layout.Int63n(768<<10) // 256 KiB – 1 MiB OS extent
		if f <= 0 {
			// No shared content at all: the whole image is drawn from the
			// machine's private pool, so different machines share nothing
			// (the concurrency stress test depends on this disjointness).
			m.exts = append(m.exts, m.fresh(osLen))
			total += osLen
			continue
		}
		m.exts = append(m.exts, extent{pool: osPool, off: osOff, n: osLen})
		osOff += osLen
		total += osLen
		if f < 1 {
			uniqLen := int64(float64(osLen) * (1 - f) / f)
			// Jitter the unique extent ±25% so machines differ in layout.
			if uniqLen > 4 {
				uniqLen += perso.Int63n(uniqLen/2+1) - uniqLen/4
			}
			if uniqLen > 0 {
				m.exts = append(m.exts, m.fresh(uniqLen))
				total += uniqLen
			}
		}
	}
}

// fresh allocates a never-before-used unique extent of n bytes.
func (m *machine) fresh(n int64) extent {
	e := extent{pool: m.uniqueID, off: m.freshOff, n: n}
	m.freshOff += n
	return e
}

// totalBytes returns the current image size.
func (m *machine) totalBytes() int64 {
	var t int64
	for _, e := range m.exts {
		t += e.n
	}
	return t
}

// mutate applies one day's worth of edits: overwrites (60%), insertions
// (25%) and deletions (15%), each at a random position with size around
// EditBytes.
func (m *machine) mutate(day int) {
	rng := rand.New(rand.NewSource(m.cfg.Seed<<20 ^ int64(m.index)<<8 ^ int64(day)))
	// Recurring change sites first: in-place rewrites at fixed positions.
	for _, h := range m.hotspots {
		total := m.totalBytes()
		if total == 0 {
			break
		}
		pos := h.pos
		if pos >= total {
			pos = total - 1
		}
		m.overwrite(pos, h.size)
	}
	// Then this day's scattered edits at fresh random positions.
	scattered := m.cfg.EditsPerDay - len(m.hotspots)
	for i := 0; i < scattered; i++ {
		total := m.totalBytes()
		if total == 0 {
			m.exts = append(m.exts, m.fresh(m.cfg.EditBytes))
			continue
		}
		size := m.cfg.EditBytes/2 + rng.Int63n(m.cfg.EditBytes)
		pos := rng.Int63n(total)
		switch p := rng.Float64(); {
		case p < 0.60:
			m.overwrite(pos, size)
		case p < 0.85:
			m.insert(pos, size)
		default:
			m.delete(pos, size)
		}
	}
	m.coalesce()
}

// splitAt ensures an extent boundary at byte position pos and returns the
// index of the extent that starts there (== len(exts) if pos is the end).
func (m *machine) splitAt(pos int64) int {
	var acc int64
	for i, e := range m.exts {
		if pos == acc {
			return i
		}
		if pos < acc+e.n {
			in := pos - acc
			tail := extent{pool: e.pool, off: e.off + in, n: e.n - in}
			m.exts[i].n = in
			m.exts = append(m.exts[:i+1], append([]extent{tail}, m.exts[i+1:]...)...)
			return i + 1
		}
		acc += e.n
	}
	return len(m.exts)
}

func (m *machine) overwrite(pos, size int64) {
	if total := m.totalBytes(); pos+size > total {
		size = total - pos
	}
	if size <= 0 {
		return
	}
	i := m.splitAt(pos)
	j := m.splitAt(pos + size)
	repl := append([]extent{m.fresh(size)}, m.exts[j:]...)
	m.exts = append(m.exts[:i], repl...)
}

func (m *machine) insert(pos, size int64) {
	i := m.splitAt(pos)
	rest := append([]extent{m.fresh(size)}, m.exts[i:]...)
	m.exts = append(m.exts[:i], rest...)
	// Hotspots track content, not disk offsets: an insertion before a
	// recurring change site shifts the site.
	for j := range m.hotspots {
		if m.hotspots[j].pos >= pos {
			m.hotspots[j].pos += size
		}
	}
}

func (m *machine) delete(pos, size int64) {
	if total := m.totalBytes(); pos+size > total {
		size = total - pos
	}
	if size <= 0 {
		return
	}
	i := m.splitAt(pos)
	j := m.splitAt(pos + size)
	m.exts = append(m.exts[:i], m.exts[j:]...)
	for k := range m.hotspots {
		switch {
		case m.hotspots[k].pos >= pos+size:
			m.hotspots[k].pos -= size
		case m.hotspots[k].pos > pos:
			m.hotspots[k].pos = pos
		}
	}
}

// coalesce merges adjacent extents that continue the same pool range,
// keeping the extent list compact across many days of edits.
func (m *machine) coalesce() {
	out := m.exts[:0]
	for _, e := range m.exts {
		if e.n == 0 {
			continue
		}
		if n := len(out); n > 0 {
			last := &out[n-1]
			if last.pool == e.pool && last.off+last.n == e.off {
				last.n += e.n
				continue
			}
		}
		out = append(out, e)
	}
	m.exts = out
}

// snapshot returns a copy of the current extent list.
func (m *machine) snapshot() []extent {
	return append([]extent(nil), m.exts...)
}
