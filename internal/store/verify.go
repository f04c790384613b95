package store

import (
	"fmt"
	"io"
	"runtime"
	"slices"
	"sort"
	"sync"

	"mhdedup/internal/hashutil"
	"mhdedup/internal/metrics"
	"mhdedup/internal/simdisk"
)

// Verified, self-healing restore. RestoreFile trusts whatever bytes the
// disk returns; on real hardware that is how a single latent bit flip in a
// shared chunk silently corrupts every file that references it (the
// information-theoretic worst case of deduplication: one lost chunk, all
// referencing files gone). The Verifier closes that hole end-to-end:
// manifest entries carry the SHA-1 content address of every chunk range,
// and entries tile their containers, so re-hashing stored ranges against
// the entries detects any corruption of chunk data.
//
// The unit of verification is the claim — one manifest entry — not the
// container: a verified restore reads and hashes exactly the claims that
// overlap the bytes it serves, so it costs what it restores, not
// containers touched × container size. Four invariants hold throughout:
//
//  1. Served bytes come from the very buffer that hashed clean:
//     verification and serving are one read, never a verify-read followed
//     by a separate, unchecked serve-read.
//  2. A served range that no claim vouches for is refused.
//  3. A mismatching claim that overlaps a served byte fails the restore,
//     after a bounded number of re-reads (transient faults — a failing
//     bus, a disk read transform — heal on retry). A claim only
//     partly served is still hashed whole: part of a claim cannot be
//     vouched for.
//  4. Scrub verifies every claim of every container and quarantines
//     exactly the objects with persistent damage, so the rest of the
//     store keeps serving.
//
// Bytes a planned read merely bridges (coalescing gaps) are neither
// vouched for nor hashed: they are never emitted.
//
// Hashing, not the disk, bounds a verified restore, so it uses every core
// (DESIGN §11): verifiedWorkers reads in flight by default, and oversized
// reads cut at claim boundaries into sub-reads (splitReads) — planned reads
// like any other, so the invariants hold for each unchanged.

// Bytes hashed by verification (restores and Scrub) and bytes served by
// verified planned reads. Over restores alone their ratio is what claims
// straddling a read's edges cost on top of one SHA-1 pass.
var (
	cVerifyHashedBytes = metrics.Counter("store.verify.hashed_bytes")
	cVerifyServedBytes = metrics.Counter("store.verify.served_bytes")
)

// verifySplitBytes is the container span past which splitReads cuts.
const verifySplitBytes = 1 << 20

// verifiedWorkers is a verified restore's width when Workers is zero: eight
// reads per P (at most 64; restoreWindow bounds their bytes), so one long
// read at the head of the schedule does not idle the other cores — and
// inline on a single P.
func verifiedWorkers() int {
	if p := runtime.GOMAXPROCS(0); p > 1 {
		return min(8*p, 64)
	}
	return 1
}

// VerifyOpts tunes verification.
type VerifyOpts struct {
	// MaxRetries is how many times a failed or mismatching read is retried
	// before the damage is declared persistent. Zero means the default of 2.
	MaxRetries int
}

func (o VerifyOpts) retries() int {
	if o.MaxRetries <= 0 {
		return 2
	}
	return o.MaxRetries
}

// Mismatch is one manifest entry whose stored bytes no longer hash to the
// entry's content address.
type Mismatch struct {
	// Container is the DiskChunk holding the damaged range.
	Container hashutil.Sum
	// Manifest and Entry locate the violated entry.
	Manifest hashutil.Sum
	Entry    int
	// Start and Size delimit the damaged range within the container.
	Start, Size int64
	// Want is the content address recorded in the manifest; Got is the
	// hash of the bytes actually stored (zero when the range is
	// unreadable, e.g. past a truncated container's end).
	Want, Got hashutil.Sum
}

func (m Mismatch) String() string {
	return fmt.Sprintf("container %s range [%d,+%d): stored bytes hash %s, manifest %s entry %d says %s",
		m.Container.Short(), m.Start, m.Size, m.Got.Short(), m.Manifest.Short(), m.Entry, m.Want.Short())
}

// coverEntry is one verifiable claim about a container's bytes.
type coverEntry struct {
	manifest    hashutil.Sum
	entry       int
	start, size int64
	hash        hashutil.Sum
	// maxEnd is the furthest end among this claim and all sorted before it.
	// Claims sort by start, so maxEnd never decreases and the claims that
	// reach past an offset are found by binary search even where
	// FormatMultiContainer manifests overlap.
	maxEnd int64
}

func (ce *coverEntry) end() int64 { return ce.start + ce.size }

// Verifier verifies stored bytes against the manifests' content claims:
// RestoreRange for exactly the claims a restore serves from, and
// VerifyContainer (Scrub's engine) for every claim of one container. It is
// safe for concurrent use — whole restores may run side by side on one
// Verifier, each with its own planned reads in flight.
type Verifier struct {
	s    *Store
	opts VerifyOpts

	// mu guards cover, full and loading.
	mu sync.Mutex
	// cover maps a container to its claims, sorted by start. In the
	// single-container formats the claims on container C are exactly
	// manifest C's entries, so cover fills one manifest per container
	// touched. full means it holds every manifest's claims: built up front
	// for FormatMultiContainer, where any manifest may claim bytes of any
	// container, and on demand for Containers and Scrub.
	cover map[string][]coverEntry
	full  bool
	// loading holds the containers whose manifest a reader is loading;
	// loaded (on mu) wakes the reads waiting for one of those loads.
	loading map[string]bool
	loaded  sync.Cond

	// BadManifests lists the manifests the full index build could not read
	// or decode and that therefore contribute no claims (Check reports the
	// same objects; a Scrub quarantines them).
	BadManifests []string
}

// NewVerifier returns a Verifier over s. In the single-container formats
// it reads nothing: a verified ranged restore from a large store costs the
// manifests of the containers it touches, not every manifest there is.
func NewVerifier(s *Store, opts VerifyOpts) *Verifier {
	v := &Verifier{s: s, opts: opts, cover: make(map[string][]coverEntry), loading: make(map[string]bool)}
	v.loaded.L = &v.mu
	if s.format == FormatMultiContainer {
		v.buildIndex()
	}
	return v
}

// loadManifest adds one manifest's claims to cover, or says why the
// manifest could not be read and decoded.
func (v *Verifier) loadManifest(cover map[string][]coverEntry, name string) error {
	sum, err := hashutil.ParseHex(name)
	if err != nil {
		return err
	}
	raw, err := readRetry(v.s.disk, simdisk.Manifest, name, v.opts.retries())
	if err != nil {
		return err
	}
	m, err := DecodeManifest(sum, v.s.format, raw)
	if err != nil {
		return err
	}
	for i, e := range m.Entries {
		if e.Size <= 0 || e.Start < 0 || e.Start+e.Size < 0 {
			continue // Check's domain; nothing to verify
		}
		c := m.ContainerOf(e).Hex()
		cover[c] = append(cover[c], coverEntry{
			manifest: sum, entry: i, start: e.Start, size: e.Size, hash: e.Hash,
		})
	}
	return nil
}

// sortClaims orders one container's claims by start and fills in maxEnd.
func sortClaims(claims []coverEntry) {
	sort.Slice(claims, func(i, j int) bool { return claims[i].start < claims[j].start })
	var maxEnd int64
	for i := range claims {
		maxEnd = max(maxEnd, claims[i].end())
		claims[i].maxEnd = maxEnd
	}
}

// buildIndex loads the claims of every manifest in the store. Manifests
// that fail to read or decode are recorded in BadManifests rather than
// aborting — verification must degrade, not die.
func (v *Verifier) buildIndex() {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.full {
		return
	}
	cover := make(map[string][]coverEntry)
	names := v.s.disk.Names(simdisk.Manifest)
	sort.Strings(names)
	for _, name := range names {
		if v.loadManifest(cover, name) != nil {
			v.BadManifests = append(v.BadManifests, name)
		}
	}
	for _, claims := range cover {
		sortClaims(claims)
	}
	v.cover, v.full = cover, true
}

// claims returns the claims on a container, sorted by start. Short of the
// full index it loads the container's own manifest on first touch, outside
// mu and once however many reads wait for it. A manifest that is missing
// or undecodable vouches for nothing and is reported, not remembered: the
// next read of the container tries again.
func (v *Verifier) claims(container string) ([]coverEntry, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	for v.loading[container] {
		v.loaded.Wait()
	}
	if claims, ok := v.cover[container]; ok || v.full {
		return claims, nil
	}
	v.loading[container] = true
	v.mu.Unlock()
	cover := make(map[string][]coverEntry)
	err := v.loadManifest(cover, container)
	sortClaims(cover[container])
	v.mu.Lock()
	delete(v.loading, container)
	v.loaded.Broadcast()
	if err == nil && !v.full {
		v.cover[container] = cover[container]
	}
	return cover[container], err
}

// readRetry reads an object, retrying transient failures.
func readRetry(disk *simdisk.Disk, cat simdisk.Category, name string, retries int) ([]byte, error) {
	var lastErr error
	for attempt := 0; attempt <= retries; attempt++ {
		data, err := disk.Read(cat, name)
		if err == nil {
			return data, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

// Covered reports whether any manifest claims bytes of the container.
func (v *Verifier) Covered(container string) bool {
	claims, _ := v.claims(container)
	return len(claims) > 0
}

// Containers returns the sorted names of every container at least one
// manifest makes claims about. It builds the full index.
func (v *Verifier) Containers() []string {
	v.buildIndex()
	v.mu.Lock()
	defer v.mu.Unlock()
	out := make([]string, 0, len(v.cover))
	for c := range v.cover {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// checkClaims hashes each claim on buf, which holds the container's bytes
// from offset base on, and returns the claims that do not check out. A
// claim reaching outside buf (a truncated container) is a mismatch by that
// fact alone, whatever hash it records; its Got stays zero.
func checkClaims(container hashutil.Sum, claims []coverEntry, buf []byte, base int64) []Mismatch {
	var bad []Mismatch
	for _, ce := range claims {
		mm := Mismatch{
			Container: container, Manifest: ce.manifest, Entry: ce.entry,
			Start: ce.start, Size: ce.size, Want: ce.hash,
		}
		inside := ce.start >= base && ce.end() <= base+int64(len(buf))
		if inside {
			mm.Got = hashutil.SumBytes(buf[ce.start-base : ce.end()-base])
		}
		if !inside || mm.Got != ce.hash {
			bad = append(bad, mm)
		}
	}
	return bad
}

// readClaims reads container bytes [lo, hi) and hashes claims on them,
// re-reading up to the retry bound on error or mismatch (a transient flip
// heals on re-read; persistent damage does not). It returns the buffer
// that hashed clean, or else the last attempt's error or mismatches.
func (v *Verifier) readClaims(container hashutil.Sum, claims []coverEntry, lo, hi int64) (buf []byte, bad []Mismatch, err error) {
	var hashed int64
	for _, ce := range claims {
		hashed += ce.size
	}
	for attempt := 0; attempt <= v.opts.retries(); attempt++ {
		if buf, err = v.s.ReadDiskChunkRange(container, lo, hi-lo); err != nil {
			bad = nil
			continue
		}
		cVerifyHashedBytes.Add(hashed)
		if bad = checkClaims(container, claims, buf, lo); len(bad) == 0 {
			return buf, nil, nil
		}
	}
	return nil, bad, err
}

// VerifyContainer re-hashes every claimed range of the container against
// its content addresses, on one read of the whole container (readClaims).
// A nil, nil return means every claim checked out.
func (v *Verifier) VerifyContainer(container string) ([]Mismatch, error) {
	claims, err := v.claims(container)
	if err != nil {
		return nil, err
	}
	csum, _ := hashutil.ParseHex(container)
	size, _ := v.s.DiskChunkSize(csum)
	_, bad, err := v.readClaims(csum, claims, 0, size)
	return bad, err
}

// RestoreFile rebuilds one whole file into w: RestoreRange from offset 0
// to EOF at the default width.
func (v *Verifier) RestoreFile(file string, w io.Writer) error {
	_, err := v.RestoreRange(file, 0, -1, w, RestoreOptions{})
	return err
}

// RestoreRange rebuilds file bytes [off, off+length) into w with
// end-to-end verification (length < 0 means to EOF, so 0, -1 is the whole
// file; ranges clamp as in Store.RestoreRange). The recipe is found and
// planned into coalesced container reads exactly as for a plain restore —
// recipe chunks additionally prove themselves against their content
// addresses, with retry — and every planned read is fetched by
// readPlannedVerified, opts.Workers of them in flight (0: verifiedWorkers;
// 1: inline). Bytes are written strictly in output order. The returned
// error is per-file: other files restore independently.
func (v *Verifier) RestoreRange(file string, off, length int64, w io.Writer, opts RestoreOptions) (RangeStats, error) {
	if opts.Workers == 0 {
		opts.Workers = verifiedWorkers()
	}
	return v.s.restoreRange(file, off, length, w, opts, v)
}

// splitReads cuts every planned read spanning more than verifySplitBytes
// into sub-reads the executor verifies side by side. A cut falls only on a
// claim start no earlier claim reaches past (maxEnd ≤ the cut), so each
// claim — overlapping FormatMultiContainer ones included — lies wholly on
// one side and is hashed once, as uncut. Only reads whose segments ascend
// through the container are cut: there output order is container order,
// so each sub-read serves one contiguous run of the output.
func (v *Verifier) splitReads(plan *restorePlan) {
	out := make([]plannedRead, 0, len(plan.reads))
	for _, pr := range plan.reads {
		cuts := v.cuts(&pr)
		if cuts == nil {
			out = append(out, pr)
			continue
		}
		lo, segs := pr.start, pr.segs
		for _, hi := range append(cuts, pr.start+pr.length) {
			sub := plannedRead{container: pr.container, start: -1}
			for len(segs) > 0 && pr.start+segs[0].off < hi {
				a := max(pr.start+segs[0].off, lo) // a cut segment resumes at lo
				b := pr.start + segs[0].off + segs[0].size
				if sub.start < 0 {
					sub.start = a
				}
				sub.segs = append(sub.segs, planSegment{off: a - sub.start, size: min(b, hi) - a})
				sub.length = min(b, hi) - sub.start
				if b > hi {
					break
				}
				segs = segs[1:]
			}
			if sub.start >= 0 {
				out = append(out, sub)
			}
			lo = hi
		}
	}
	plan.reads = out
}

// cuts lists where splitReads cuts pr, at least verifySplitBytes apart.
func (v *Verifier) cuts(pr *plannedRead) []int64 {
	if pr.length <= verifySplitBytes {
		return nil
	}
	for k := 1; k < len(pr.segs); k++ {
		if pr.segs[k].off < pr.segs[k-1].off+pr.segs[k-1].size {
			return nil
		}
	}
	claims, err := v.claims(pr.container.Hex())
	if err != nil {
		return nil // readPlannedVerified reports it
	}
	var cuts []int64
	from, end := pr.start, pr.start+pr.length
	k := sort.Search(len(claims), func(k int) bool { return claims[k].start >= from+verifySplitBytes })
	for ; k < len(claims) && claims[k].start < end; k++ {
		if c := claims[k].start; c-from >= verifySplitBytes && (k == 0 || claims[k-1].maxEnd <= c) {
			cuts = append(cuts, c)
			from = c
		}
	}
	return cuts
}

// readPlannedVerified fetches one planned read under the four invariants
// above: it selects the claims overlapping the read's served segments
// (refusing a segment they do not cover), issues one ranged read spanning
// those claims, hashes each of them on that buffer — re-reading a bounded
// number of times on error or mismatch — and returns a slice of the buffer
// that hashed clean. Safe for concurrent use.
func (v *Verifier) readPlannedVerified(pr *plannedRead) ([]byte, error) {
	claims, err := v.claims(pr.container.Hex())
	if err != nil {
		return nil, fmt.Errorf("container %s is not vouched for: its manifest is unreadable: %w",
			pr.container.Short(), err)
	}
	var sel []int
	var served int64
	for _, seg := range pr.segs {
		lo, hi := pr.start+seg.off, pr.start+seg.off+seg.size
		// Claims before i end at or before lo; claims from j on start at or
		// after hi. Walking [i, j) in start order, a claim starting past
		// pos leaves [pos, its start) unclaimed.
		i := sort.Search(len(claims), func(k int) bool { return claims[k].maxEnd > lo })
		j := sort.Search(len(claims), func(k int) bool { return claims[k].start >= hi })
		pos := lo
		for k := i; k < j && claims[k].start <= pos; k++ {
			if end := claims[k].end(); end > lo {
				sel = append(sel, k)
				pos = max(pos, end)
			}
		}
		if pos < hi {
			return nil, fmt.Errorf("range [%d,+%d) of container %s is not vouched for by any manifest",
				lo, seg.size, pr.container.Short())
		}
		served += seg.size
	}
	slices.Sort(sel)
	sel = slices.Compact(sel)
	picked := make([]coverEntry, len(sel))
	lo, hi := claims[sel[0]].start, int64(0)
	for n, k := range sel {
		picked[n] = claims[k]
		hi = max(hi, claims[k].end())
	}
	if pr.start < lo || pr.start+pr.length > hi {
		// Unreachable: the read's span is the hull of its segments, each
		// covered by a selected claim. Guard the slice below anyway.
		return nil, fmt.Errorf("read %s[%d+%d] outside its claims [%d,%d)",
			pr.container.Short(), pr.start, pr.length, lo, hi)
	}
	// Clamp to the container: a claim running past a truncated container's
	// end must read what is left and mismatch, not fail as a bad range.
	size, _ := v.s.DiskChunkSize(pr.container)
	lo, hi = min(lo, size), min(hi, size)

	buf, bad, err := v.readClaims(pr.container, picked, lo, hi)
	if err != nil {
		return nil, fmt.Errorf("container %s unreadable: %w", pr.container.Short(), err)
	}
	if len(bad) > 0 {
		return nil, fmt.Errorf("corrupt data: %s", bad[0])
	}
	cVerifyServedBytes.Add(served)
	return buf[pr.start-lo:][:pr.length], nil
}

// QuarantineFunc persists one corrupt object's surviving bytes outside the
// store (typically dir/quarantine/) before the object is dropped. A nil
// function skips preservation.
type QuarantineFunc func(cat simdisk.Category, name string, data []byte) error

// ScrubReport is the outcome of a Scrub pass.
type ScrubReport struct {
	// ContainersChecked counts containers with at least one manifest
	// claim; EntriesVerified counts the claims hashed.
	ContainersChecked, EntriesVerified int
	// Corrupt lists every persistent content-address violation found.
	Corrupt []Mismatch
	// Unreadable lists containers whose reads kept failing.
	Unreadable []string
	// MissingContainers lists containers manifests make claims about but
	// that no longer exist (already quarantined or reclaimed): dangling
	// metadata that Check reports, with nothing left to verify.
	MissingContainers []string
	// UnverifiedContainers lists containers no manifest makes claims
	// about (nothing to check them against).
	UnverifiedContainers []string
	// BadManifests lists manifests that failed to read or decode.
	BadManifests []string
	// Quarantined lists the objects removed from the store (with their
	// categories), sorted.
	Quarantined []string
	// AffectedFiles lists files whose recipes reference a quarantined
	// container: they are no longer (fully) restorable and their restore
	// now fails loudly instead of returning corrupt bytes.
	AffectedFiles []string
}

// OK reports whether the scrub found nothing wrong.
func (r ScrubReport) OK() bool {
	return len(r.Corrupt) == 0 && len(r.Unreadable) == 0 && len(r.BadManifests) == 0
}

// Scrub verifies every claimed chunk range in the store against its
// content address and quarantines the objects with persistent damage:
// corrupt or unreadable containers and undecodable manifests are handed to
// quarantine (best-effort byte preservation) and deleted from the store,
// so subsequent restores fail per-file with a clear report instead of
// serving corrupt bytes. The store's remaining objects are untouched.
func (s *Store) Scrub(opts VerifyOpts, quarantine QuarantineFunc) (ScrubReport, error) {
	v := NewVerifier(s, opts)
	v.buildIndex()
	var rep ScrubReport
	rep.BadManifests = append(rep.BadManifests, v.BadManifests...)

	drop := make(map[string]bool) // container names to quarantine
	for _, cname := range v.Containers() {
		if _, ok := s.disk.Size(simdisk.Data, cname); !ok {
			rep.MissingContainers = append(rep.MissingContainers, cname)
			continue
		}
		rep.ContainersChecked++
		claims, _ := v.claims(cname) // the full index: never fails
		rep.EntriesVerified += len(claims)
		bad, err := v.VerifyContainer(cname)
		if err != nil {
			rep.Unreadable = append(rep.Unreadable, cname)
			drop[cname] = true
			continue
		}
		if len(bad) > 0 {
			rep.Corrupt = append(rep.Corrupt, bad...)
			drop[cname] = true
		}
	}
	for _, cname := range s.disk.Names(simdisk.Data) {
		if !v.Covered(cname) {
			rep.UnverifiedContainers = append(rep.UnverifiedContainers, cname)
		}
	}
	sort.Strings(rep.UnverifiedContainers)

	// Quarantine: preserve bytes best-effort, then drop the object.
	quarantineObj := func(cat simdisk.Category, name string) error {
		if quarantine != nil {
			if data, err := s.disk.Read(cat, name); err == nil {
				if err := quarantine(cat, name, data); err != nil {
					return fmt.Errorf("store: scrub: quarantine %v %q: %w", cat, name, err)
				}
			}
		}
		if err := s.disk.Delete(cat, name); err != nil {
			return fmt.Errorf("store: scrub: drop %v %q: %w", cat, name, err)
		}
		rep.Quarantined = append(rep.Quarantined, fmt.Sprintf("%v/%s", cat, name))
		return nil
	}
	dropped := make([]string, 0, len(drop))
	for cname := range drop {
		dropped = append(dropped, cname)
	}
	sort.Strings(dropped)
	for _, cname := range dropped {
		if err := quarantineObj(simdisk.Data, cname); err != nil {
			return rep, err
		}
	}
	for _, mname := range rep.BadManifests {
		if err := quarantineObj(simdisk.Manifest, mname); err != nil {
			return rep, err
		}
	}
	sort.Strings(rep.Quarantined)

	// Degradation report: which files lost data?
	for _, fname := range s.disk.Names(simdisk.FileManifest) {
		raw, err := s.disk.Read(simdisk.FileManifest, fname)
		if err != nil {
			rep.AffectedFiles = append(rep.AffectedFiles, fname)
			continue
		}
		fm, err := loadFileManifestDisk(s.disk, fname, raw, 0)
		if err != nil {
			rep.AffectedFiles = append(rep.AffectedFiles, fname)
			continue
		}
		for _, ref := range fm.Refs {
			if drop[ref.Container.Hex()] {
				rep.AffectedFiles = append(rep.AffectedFiles, fname)
				break
			}
		}
	}
	sort.Strings(rep.AffectedFiles)
	return rep, nil
}
