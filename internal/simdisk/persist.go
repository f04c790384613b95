package simdisk

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// Persistence: a simulated disk can be materialized to (and reloaded from)
// a real directory, one file per object under a per-category subdirectory.
// This is the paper's actual deployment shape — "algorithms read data from
// and write the outputs to local directories" (§V) — and it lets the CLI
// deduplicate in one invocation and restore in another. Access counters
// are session state and are not persisted.
//
// Crash safety. A save is all-or-nothing at generation granularity:
//
//	dir/
//	  MANIFEST.json        top-level commit marker: current generation +
//	                       per-category object counts and byte totals
//	  gen-000002/          the committed generation
//	    GEN.json           the generation's own manifest (written last,
//	                       before the directory is renamed into place)
//	    chunks/ hooks/ manifests/ files/
//	  gen-000003.tmp/      an interrupted save (removed by Recover)
//
// SaveDir writes the complete object set into a fresh gen-N.tmp directory,
// fsyncs everything, renames it to gen-N (the generation becomes
// self-validating: GEN.json records what it must contain), then atomically
// replaces MANIFEST.json (write temp + fsync + rename) — the commit point —
// and finally removes older generations. A crash at any step leaves either
// the old or the new generation committed, never a hybrid; Recover (and the
// read-only selection inside LoadDir) detects interrupted saves, ignores or
// rolls back partial state, and mounts the last consistent generation.

// categoryDirs maps categories to directory names (stable on disk).
var categoryDirs = map[Category]string{
	Data:         "chunks",
	Hook:         "hooks",
	Manifest:     "manifests",
	FileManifest: "files",
	Recipe:       "recipes",
}

// markerFile is the top-level commit marker's name.
const markerFile = "MANIFEST.json"

// genManifestFile is the per-generation manifest's name inside a gen dir.
const genManifestFile = "GEN.json"

// genPrefix prefixes generation directory names.
const genPrefix = "gen-"

// storeManifest is the JSON body of both MANIFEST.json and GEN.json: the
// generation number plus per-category object counts and byte totals, which
// is what makes a generation self-validating.
type storeManifest struct {
	Generation int              `json:"generation"`
	Objects    map[string]int   `json:"objects"`
	Bytes      map[string]int64 `json:"bytes"`
	SavedAt    string           `json:"saved_at,omitempty"`
}

// SaveHook is consulted before every file-system mutation a SaveDir
// performs: each object write, the generation rename and the marker
// commit. path identifies the mutation; data is the payload about to be
// written (nil for renames). The hook may return a prefix of data to
// simulate a torn write, and a non-nil error to abort the save at that
// point. When the error is (or wraps) ErrKilled the save leaves its
// partial state on disk, exactly as a crash would — the crash-consistency
// harness is built on this. The hook runs with the disk lock held and must
// not call back into the Disk.
type SaveHook func(path string, data []byte) ([]byte, error)

// SetSaveHook installs fn as the persistence fault injector; nil clears it.
func (d *Disk) SetSaveHook(fn SaveHook) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.saveHook = fn
}

// categoryOrder returns the categories in their fixed numeric order, so a
// save visits objects deterministically (kill points are reproducible).
func categoryOrder() []Category {
	return []Category{Data, Hook, Manifest, FileManifest, Recipe}
}

// SaveDir writes every stored object under dir as a new generation and
// commits it atomically; see the package comment above for the protocol.
// Object names are encoded so they are safe as file names. On a non-crash
// error the partially written generation is cleaned up; on an injected
// ErrKilled it is deliberately left behind for recovery to deal with.
func (d *Disk) SaveDir(dir string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("simdisk: save: %w", err)
	}

	// The next generation number must clear BOTH the marker and every
	// on-disk generation directory: after a crash between the generation
	// rename and the marker swap, the marker still names N-1 while gen-N
	// already exists, and a save that only consulted the marker would try
	// to rename onto the existing non-empty gen-N and fail until a Recover
	// ran. max(marker, newest valid gen) + 1 makes SaveDir itself immune.
	gen := 0
	if m, _, err := readMarker(dir); err == nil && m != nil {
		gen = m.Generation
	}
	if g, _, ok := newestValidGen(dir); ok && g > gen {
		gen = g
	}
	gen++
	genName := fmt.Sprintf("%s%06d", genPrefix, gen)
	tmpDir := filepath.Join(dir, genName+".tmp")

	err := d.writeGeneration(dir, tmpDir, genName, gen)
	if err != nil {
		if !errors.Is(err, ErrKilled) {
			os.RemoveAll(tmpDir) // best-effort cleanup; crash paths keep the wreckage
		}
		return err
	}

	// The commit folds the attached write-ahead log: every record —
	// durable segment or buffered batch — describes state the generation
	// now contains (we hold d.mu, so no mutation interleaved with the
	// save), so the log restarts empty. This IS online compaction. A
	// crash inside is safe: leftover segments replay idempotently on top
	// of the committed generation.
	if d.wal != nil && d.wal.sameStore(dir) {
		if err := d.wal.compacted(); err != nil {
			return err
		}
	}

	// Post-commit cleanup: older generations are now garbage. A crash in
	// here is harmless — the marker already
	// names the new generation — but the kill hook still covers it so the
	// harness exercises this window too.
	return d.cleanupAfterCommit(dir, genName)
}

// writeGeneration materializes the disk's objects as generation gen under
// tmpDir, validates nothing less than the full commit protocol: object
// files, GEN.json, directory fsyncs, the rename to genName, and the marker
// replacement that commits it.
func (d *Disk) writeGeneration(dir, tmpDir, genName string, gen int) error {
	if err := os.RemoveAll(tmpDir); err != nil {
		return fmt.Errorf("simdisk: save: %w", err)
	}
	man := storeManifest{
		Generation: gen,
		Objects:    make(map[string]int),
		Bytes:      make(map[string]int64),
		SavedAt:    time.Now().UTC().Format(time.RFC3339),
	}
	for _, cat := range categoryOrder() {
		sub := categoryDirs[cat]
		catDir := filepath.Join(tmpDir, sub)
		if err := os.MkdirAll(catDir, 0o755); err != nil {
			return fmt.Errorf("simdisk: save: %w", err)
		}
		names := make([]string, 0, len(d.objects[cat]))
		for name := range d.objects[cat] {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			data := d.objects[cat][name]
			path := filepath.Join(catDir, EncodeName(name))
			if err := d.savePoint(path, data); err != nil {
				return fmt.Errorf("simdisk: save %v %q: %w", cat, name, err)
			}
			man.Objects[sub]++
			man.Bytes[sub] += int64(len(data))
		}
		if err := syncDir(catDir); err != nil {
			return fmt.Errorf("simdisk: save: %w", err)
		}
	}

	// The generation manifest is written last inside the temp dir: its
	// presence (and agreement with the directory contents) is what makes
	// the generation self-validating after the rename.
	genJSON, err := json.Marshal(man)
	if err != nil {
		return fmt.Errorf("simdisk: save: %w", err)
	}
	if err := d.savePoint(filepath.Join(tmpDir, genManifestFile), genJSON); err != nil {
		return fmt.Errorf("simdisk: save: %w", err)
	}
	if err := syncDir(tmpDir); err != nil {
		return fmt.Errorf("simdisk: save: %w", err)
	}

	// Publish the generation directory under its final name. Anything
	// already sitting at that name is debris that neither the marker nor
	// the newest-valid-generation scan accepted (gen exceeds both), so it
	// is cleared out of the rename's way, not preserved.
	final := filepath.Join(dir, genName)
	if err := os.RemoveAll(final); err != nil {
		return fmt.Errorf("simdisk: save: %w", err)
	}
	if err := d.renamePoint(tmpDir, final); err != nil {
		return fmt.Errorf("simdisk: save: %w", err)
	}
	if err := syncDir(dir); err != nil {
		return fmt.Errorf("simdisk: save: %w", err)
	}

	// Commit: atomically replace the top-level marker.
	markerTmp := filepath.Join(dir, markerFile+".tmp")
	if err := d.savePoint(markerTmp, genJSON); err != nil {
		return fmt.Errorf("simdisk: save: %w", err)
	}
	if err := d.renamePoint(markerTmp, filepath.Join(dir, markerFile)); err != nil {
		return fmt.Errorf("simdisk: save: %w", err)
	}
	if err := syncDir(dir); err != nil {
		return fmt.Errorf("simdisk: save: %w", err)
	}
	return nil
}

// cleanupAfterCommit removes everything except the committed generation and
// the marker: older/newer generation dirs, stray temp dirs, and — when no
// attached WAL owns it — the wal/ directory.
// That last one matters: a generation commit supersedes the whole log, and
// a stale log left behind by an earlier durable run would otherwise replay
// on top of this generation and resurrect objects deleted since (deletes
// are unlogged when no WAL is attached).
func (d *Disk) cleanupAfterCommit(dir, keep string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil // the committed state is safe; cleanup is best-effort
	}
	walOwned := d.wal != nil && d.wal.sameStore(dir)
	for _, e := range entries {
		name := e.Name()
		if name == keep || name == markerFile {
			continue
		}
		if name == walDirName {
			if walOwned {
				continue // just reset by compacted(); it is the live log
			}
		} else if !strings.HasPrefix(name, genPrefix) && name != markerFile+".tmp" {
			continue
		}
		if err := d.removePoint(filepath.Join(dir, name)); err != nil {
			if errors.Is(err, ErrKilled) {
				return err
			}
			// Non-crash cleanup errors don't endanger the commit.
		}
	}
	return nil
}

// savePoint writes one file durably (write + fsync) through the save hook.
func (d *Disk) savePoint(path string, data []byte) error {
	return hookWrite(d.saveHook, path, data, func(b []byte) error { return writeFileSync(path, b) })
}

// hookWrite makes one payload write, consulting hook (if there is one)
// first: the hook may abort the write, or tear it — the prefix it returns
// with its error is written, as a crash mid-write would leave it.
func hookWrite(hook SaveHook, op string, data []byte, write func([]byte) error) error {
	if hook != nil {
		torn, err := hook(op, data)
		if err != nil {
			if torn != nil && len(torn) < len(data) {
				write(torn)
			}
			return err
		}
		if torn != nil {
			data = torn
		}
	}
	return write(data)
}

// renamePoint renames oldp to newp, consulting the save hook first.
func (d *Disk) renamePoint(oldp, newp string) error {
	if err := hookPoint(d.saveHook, "rename:"+newp); err != nil {
		return err
	}
	return os.Rename(oldp, newp)
}

// removePoint removes a path during cleanup, consulting the save hook.
func (d *Disk) removePoint(path string) error {
	if err := hookPoint(d.saveHook, "remove:"+path); err != nil {
		return err
	}
	return os.RemoveAll(path)
}

// hookPoint consults hook, if there is one, for a file-system mutation
// that carries no payload: the kill-point mechanism of the crash harnesses.
func hookPoint(hook SaveHook, op string) error {
	if hook == nil {
		return nil
	}
	_, err := hook(op, nil)
	return err
}

// writeFileSync writes path and fsyncs it before closing, so the data is
// durable before any rename that depends on it.
func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// syncDir fsyncs a directory so renames and file creations in it are
// durable.
func syncDir(dir string) error {
	f, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// readMarker parses dir's MANIFEST.json. Returns (nil, false, nil) when the
// marker does not exist, and an error when it exists but is unreadable or
// does not parse (torn or corrupted marker).
func readMarker(dir string) (*storeManifest, bool, error) {
	raw, err := os.ReadFile(filepath.Join(dir, markerFile))
	if os.IsNotExist(err) {
		return nil, false, nil
	}
	if err != nil {
		return nil, true, err
	}
	var m storeManifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, true, fmt.Errorf("simdisk: corrupt marker: %w", err)
	}
	if m.Generation <= 0 {
		return nil, true, fmt.Errorf("simdisk: corrupt marker: generation %d", m.Generation)
	}
	return &m, true, nil
}

// readGenManifest parses and validates a generation directory: GEN.json
// must exist, parse, and agree with the directory's actual per-category
// file counts and byte totals.
func readGenManifest(genDir string) (*storeManifest, error) {
	raw, err := os.ReadFile(filepath.Join(genDir, genManifestFile))
	if err != nil {
		return nil, err
	}
	var m storeManifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("simdisk: corrupt %s: %w", genManifestFile, err)
	}
	for _, sub := range categoryDirs {
		var count int
		var bytes int64
		entries, err := os.ReadDir(filepath.Join(genDir, sub))
		if err != nil && !os.IsNotExist(err) {
			return nil, err
		}
		for _, e := range entries {
			if e.IsDir() {
				continue
			}
			info, err := e.Info()
			if err != nil {
				return nil, err
			}
			count++
			bytes += info.Size()
		}
		if count != m.Objects[sub] || bytes != m.Bytes[sub] {
			return nil, fmt.Errorf("simdisk: generation %q: %s holds %d objects / %d bytes, manifest says %d / %d",
				genDir, sub, count, bytes, m.Objects[sub], m.Bytes[sub])
		}
	}
	return &m, nil
}

// genNumber parses a generation directory name; ok is false for temp dirs
// and non-generation names.
func genNumber(name string) (int, bool) {
	if !strings.HasPrefix(name, genPrefix) || strings.HasSuffix(name, ".tmp") {
		return 0, false
	}
	var n int
	if _, err := fmt.Sscanf(name[len(genPrefix):], "%d", &n); err != nil || n <= 0 {
		return 0, false
	}
	return n, true
}

// newestValidGen scans dir for the highest-numbered generation directory
// that self-validates.
func newestValidGen(dir string) (int, string, bool) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, "", false
	}
	best, bestDir := 0, ""
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		n, ok := genNumber(e.Name())
		if !ok || n <= best {
			continue
		}
		genDir := filepath.Join(dir, e.Name())
		if _, err := readGenManifest(genDir); err == nil {
			best, bestDir = n, genDir
		}
	}
	return best, bestDir, best > 0
}

// selectGeneration decides, read-only, what a mount of dir should see: the
// generation directory to load, or an empty store (genDir == ""). The
// marker's generation when it validates; otherwise the newest
// self-validating generation.
func selectGeneration(dir string) (gen int, genDir string, err error) {
	m, markerPresent, markerErr := readMarker(dir)
	if markerErr == nil && m != nil {
		candidate := filepath.Join(dir, fmt.Sprintf("%s%06d", genPrefix, m.Generation))
		if _, err := readGenManifest(candidate); err == nil {
			return m.Generation, candidate, nil
		}
		// Marker names a generation that is missing or fails validation
		// (post-commit damage): fall back to the newest consistent one.
	}
	if g, gdir, ok := newestValidGen(dir); ok {
		return g, gdir, nil
	}
	if markerPresent {
		// A marker exists (even corrupt) but no generation validates:
		// the store is unrecoverable, which the caller must hear about.
		if markerErr != nil {
			return 0, "", fmt.Errorf("simdisk: no consistent generation under %s (marker: %v)", dir, markerErr)
		}
		return 0, "", fmt.Errorf("simdisk: no consistent generation under %s", dir)
	}
	return 0, "", nil // no marker, no generations: an empty or missing directory
}

// LoadDir returns a disk populated from a directory written by SaveDir.
// It performs read-only recovery: if the last save was interrupted, the
// partial generation is ignored and the last consistent one is loaded
// (use Recover to also roll the partial state back). Counters start at
// zero: loading models mounting existing storage, not re-performing the
// writes.
func LoadDir(dir string) (*Disk, error) {
	_, genDir, err := selectGeneration(dir)
	if err != nil {
		return nil, err
	}
	d := New()
	if genDir == "" {
		return d, nil // empty or missing directory
	}
	for cat, sub := range categoryDirs {
		catDir := filepath.Join(genDir, sub)
		entries, err := os.ReadDir(catDir)
		if err != nil {
			if os.IsNotExist(err) {
				continue // category may be empty
			}
			return nil, fmt.Errorf("simdisk: load: %w", err)
		}
		for _, e := range entries {
			if e.IsDir() {
				continue
			}
			name, err := decodeName(e.Name())
			if err != nil {
				return nil, fmt.Errorf("simdisk: load %v %q: %w", cat, e.Name(), err)
			}
			data, err := os.ReadFile(filepath.Join(catDir, e.Name()))
			if err != nil {
				return nil, fmt.Errorf("simdisk: load %v %q: %w", cat, name, err)
			}
			d.objects[cat][name] = data
		}
	}
	return d, nil
}

// RecoverReport describes what Recover found and did.
type RecoverReport struct {
	// Generation is the generation left mounted (0 for an empty store).
	Generation int
	// RolledBack lists directories removed because they belonged to
	// interrupted saves or superseded generations.
	RolledBack []string
	// RepairedMarker is true when MANIFEST.json was missing or disagreed
	// with the mounted generation and was rewritten.
	RepairedMarker bool
	// WALTrimmed lists write-ahead-log repairs ("truncate:<seg>" for a
	// torn tail trimmed to its valid prefix, "remove:<seg>" for a segment
	// discarded entirely).
	WALTrimmed []string
}

// recoverHook, when non-nil, is consulted before each repair Recover
// performs — the crash-inside-recovery injection seam of the idempotence
// tests. A non-nil return aborts recovery at that point, as a crash would.
var recoverHook func(step string) error

// recoverPoint consults recoverHook for one repair step.
func recoverPoint(step string) error {
	if recoverHook != nil {
		return recoverHook(step)
	}
	return nil
}

// Recover inspects a store directory for the debris of an interrupted
// SaveDir (or an interrupted log write) and repairs it: partial gen-*.tmp
// directories and uncommitted or superseded generations are rolled back,
// the commit marker is rewritten if it was torn or lost, and the
// write-ahead log's torn tail is trimmed on disk (post-corruption segments
// removed), so the directory afterwards holds exactly the last consistent
// generation plus the log's valid prefix. Empty/missing directories are
// left untouched (their wal/ debris, if any, is still repaired). Recover is
// idempotent and re-entrant: running it twice — or crashing at any point
// inside it and running it again — converges on the same store.
func Recover(dir string) (RecoverReport, error) {
	rep, err := recoverGenerations(dir)
	if err != nil {
		return rep, err
	}
	// Write-ahead-log debris: trim the torn tail so the on-disk log is
	// exactly its valid prefix before anyone appends after it.
	wrep, _, err := walPass(dir, nil, true)
	rep.WALTrimmed = wrep.Trimmed
	return rep, err
}

// Mount opens dir as a continuously durable store: Recover's repairs, the
// newest committed generation, the log's valid prefix replayed on top of
// it and a fresh log segment attached, so every mutation from here on is
// journaled — with the log read and checked once, by the pass that trims
// it. The report says how much log survived the last run.
func Mount(dir string) (*Disk, *WAL, WALReplayReport, error) {
	if _, err := recoverGenerations(dir); err != nil {
		return nil, nil, WALReplayReport{}, err
	}
	d, err := LoadDir(dir)
	if err != nil {
		return nil, nil, WALReplayReport{}, err
	}
	w, rep, err := openWAL(dir, d)
	if err != nil {
		return nil, nil, rep, err
	}
	d.wal = w
	return d, w, rep, nil
}

// Load reads dir as a snapshot: the newest committed generation with the
// log's valid prefix replayed on top, the log read once and nothing
// attached. With repair it first makes Recover's repairs, best-effort — a
// directory that cannot be written still loads, and the generation choice
// and the replay are the authority on what mounts. Without it nothing on
// disk changes, so it may run beside the store's live writer.
func Load(dir string, repair bool) (*Disk, WALReplayReport, error) {
	if repair {
		recoverGenerations(dir)
	}
	d, err := LoadDir(dir)
	if err != nil {
		return nil, WALReplayReport{}, err
	}
	rep, _, err := walPass(dir, d, repair)
	if err != nil && !errors.Is(err, errWALRepair) {
		return nil, rep, fmt.Errorf("simdisk: wal replay: %w", err)
	}
	return d, rep, nil
}

// recoverGenerations is the generation half of Recover.
func recoverGenerations(dir string) (RecoverReport, error) {
	var rep RecoverReport
	gen, genDir, err := selectGeneration(dir)
	if err != nil || genDir == "" {
		return rep, err
	}
	rep.Generation = gen
	keep := filepath.Base(genDir)

	entries, err := os.ReadDir(dir)
	if err != nil {
		return rep, err
	}
	for _, e := range entries {
		name := e.Name()
		if name == keep || name == markerFile || name == walDirName {
			continue
		}
		stale := name == markerFile+".tmp" || strings.HasSuffix(name, ".tmp")
		if n, ok := genNumber(name); ok && n != gen {
			stale = true
		}
		if !stale {
			continue
		}
		if err := recoverPoint("remove:" + name); err != nil {
			return rep, err
		}
		if err := os.RemoveAll(filepath.Join(dir, name)); err != nil {
			return rep, fmt.Errorf("simdisk: recover: %w", err)
		}
		rep.RolledBack = append(rep.RolledBack, name)
	}
	sort.Strings(rep.RolledBack)

	// Re-point the marker if it is missing, torn, or names a
	// generation other than the one that validated.
	m, _, markerErr := readMarker(dir)
	if markerErr == nil && m != nil && m.Generation == gen {
		return rep, nil
	}
	gm, err := readGenManifest(genDir)
	if err != nil {
		return rep, fmt.Errorf("simdisk: recover: %w", err)
	}
	raw, err := json.Marshal(gm)
	if err != nil {
		return rep, err
	}
	if err := recoverPoint("marker"); err != nil {
		return rep, err
	}
	tmp := filepath.Join(dir, markerFile+".tmp")
	if err := writeFileSync(tmp, raw); err != nil {
		return rep, fmt.Errorf("simdisk: recover: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(dir, markerFile)); err != nil {
		return rep, fmt.Errorf("simdisk: recover: %w", err)
	}
	if err := syncDir(dir); err != nil {
		return rep, fmt.Errorf("simdisk: recover: %w", err)
	}
	rep.RepairedMarker = true
	return rep, nil
}

// DirSize returns the on-disk footprint of a saved store's object payload
// (the mounted generation's object files, as its validated manifest totals
// them; marker and generation manifests are bookkeeping and excluded), for
// CLI reporting.
func DirSize(dir string) (int64, error) {
	_, genDir, err := selectGeneration(dir)
	if err != nil || genDir == "" {
		return 0, err
	}
	m, err := readGenManifest(genDir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, n := range m.Bytes {
		total += n
	}
	return total, nil
}

// EncodeName makes an object name safe as a file name (also for tools that
// materialize object payloads outside a store proper, like the quarantine
// directory a scrub writes corrupt objects into). Hash-addressable
// names are already hex; FileManifest keys are arbitrary user paths, so
// '/' and other separators are escaped. The encoding is canonical: exactly
// the four bytes {%, /, \, :} are escaped, always as uppercase %XX, so
// EncodeName is injective and decodeName can reject every non-canonical
// spelling (two distinct on-disk names can never collide on one object
// name).
func EncodeName(name string) string {
	r := strings.NewReplacer("%", "%25", "/", "%2F", "\\", "%5C", ":", "%3A")
	return r.Replace(name)
}

// decodeName inverts EncodeName, strictly: only the canonical escapes
// %25 %2F %5C %3A (uppercase) are accepted, and raw separator bytes —
// which EncodeName would have escaped — are rejected. Anything else is
// corruption or an adversarial file name, never a panic.
func decodeName(file string) (string, error) {
	var b strings.Builder
	for i := 0; i < len(file); i++ {
		switch c := file[i]; c {
		case '%':
			if i+2 >= len(file) {
				return "", fmt.Errorf("truncated escape in %q", file)
			}
			var v byte
			switch file[i+1 : i+3] {
			case "25":
				v = '%'
			case "2F":
				v = '/'
			case "5C":
				v = '\\'
			case "3A":
				v = ':'
			default:
				return "", fmt.Errorf("non-canonical escape %%%s in %q", file[i+1:i+3], file)
			}
			b.WriteByte(v)
			i += 2
		case '/', '\\', ':':
			return "", fmt.Errorf("unescaped separator %q in %q", c, file)
		default:
			b.WriteByte(c)
		}
	}
	return b.String(), nil
}
