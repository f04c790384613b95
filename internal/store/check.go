package store

import (
	"fmt"
	"sort"

	"mhdedup/internal/hashutil"
	"mhdedup/internal/simdisk"
)

// CheckReport is the result of a store consistency check.
type CheckReport struct {
	// Counts of objects examined, by kind.
	DiskChunks, Manifests, Hooks, FileManifests int
	// Problems lists every inconsistency found, one human-readable line
	// each. Empty means the store is internally consistent: every manifest
	// decodes and tiles real chunk data, every hook points at a real
	// manifest, and every file is restorable.
	Problems []string
}

// OK reports whether no problems were found.
func (r CheckReport) OK() bool { return len(r.Problems) == 0 }

// Check performs an offline consistency check of a deduplicated store —
// the fsck of this system. It verifies:
//
//   - every Manifest decodes under the given format, its entries have
//     positive sizes and in-bounds ranges in their (existing) containers,
//     and for single-container formats the entries tile the DiskChunk
//     exactly;
//   - every Hook has a well-formed payload pointing at existing Manifests;
//   - every FileManifest decodes and each of its refs lies inside an
//     existing DiskChunk — i.e. every file can be restored.
//
// Reads performed by the check are counted disk accesses (it is a real
// maintenance scan); run it on a snapshot if counters matter.
func Check(disk *simdisk.Disk, format Format) CheckReport {
	var rep CheckReport
	addf := func(f string, args ...any) {
		rep.Problems = append(rep.Problems, fmt.Sprintf(f, args...))
	}

	rep.DiskChunks = len(disk.Names(simdisk.Data))

	manifests := disk.Names(simdisk.Manifest)
	sort.Strings(manifests)
	rep.Manifests = len(manifests)
	for _, name := range manifests {
		sum, err := hashutil.ParseHex(name)
		if err != nil {
			addf("manifest %q: malformed name: %v", name, err)
			continue
		}
		raw, err := disk.Read(simdisk.Manifest, name)
		if err != nil {
			addf("manifest %s: unreadable: %v", name[:8], err)
			continue
		}
		m, err := DecodeManifest(sum, format, raw)
		if err != nil {
			addf("manifest %s: %v", name[:8], err)
			continue
		}
		var off int64
		for i, e := range m.Entries {
			if e.Size <= 0 || e.Start < 0 {
				addf("manifest %s entry %d: degenerate range [%d,+%d)", name[:8], i, e.Start, e.Size)
				continue
			}
			container := m.ContainerOf(e)
			csize, ok := disk.Size(simdisk.Data, container.Hex())
			if !ok {
				addf("manifest %s entry %d: container %s missing", name[:8], i, container)
				continue
			}
			if e.Start+e.Size > csize {
				addf("manifest %s entry %d: range [%d,+%d) outside container of %d bytes",
					name[:8], i, e.Start, e.Size, csize)
			}
			if format != FormatMultiContainer {
				if e.Start != off {
					addf("manifest %s entry %d: gap or overlap at %d (expected %d)", name[:8], i, e.Start, off)
				}
				off += e.Size
			}
		}
		if format != FormatMultiContainer {
			if csize, ok := disk.Size(simdisk.Data, name); ok && off != csize {
				addf("manifest %s: entries cover %d of %d chunk bytes", name[:8], off, csize)
			}
		}
	}

	hooks := disk.Names(simdisk.Hook)
	sort.Strings(hooks)
	rep.Hooks = len(hooks)
	for _, name := range hooks {
		raw, err := disk.Read(simdisk.Hook, name)
		if err != nil {
			addf("hook %s: unreadable: %v", name[:8], err)
			continue
		}
		if len(raw) == 0 || len(raw)%hashutil.Size != 0 {
			addf("hook %s: payload of %d bytes is malformed", name[:8], len(raw))
			continue
		}
		for i := 0; i < len(raw); i += hashutil.Size {
			var target hashutil.Sum
			copy(target[:], raw[i:])
			if _, ok := disk.Size(simdisk.Manifest, target.Hex()); !ok {
				addf("hook %s: target manifest %s missing", name[:8], target)
			}
		}
	}

	files := disk.Names(simdisk.FileManifest)
	sort.Strings(files)
	rep.FileManifests = len(files)
	for _, name := range files {
		raw, err := disk.Read(simdisk.FileManifest, name)
		if err != nil {
			addf("file %q: unreadable: %v", name, err)
			continue
		}
		// Tree roots materialize through their recipe chunks, which also
		// proves every chunk against its content address and the root's
		// declared totals; flat payloads decode directly.
		fm, err := loadFileManifestDisk(disk, name, raw, 0)
		if err != nil {
			addf("file %q: %v", name, err)
			continue
		}
		for i, ref := range fm.Refs {
			csize, ok := disk.Size(simdisk.Data, ref.Container.Hex())
			if !ok {
				addf("file %q ref %d: container %s missing", name, i, ref.Container)
				continue
			}
			if ref.Start < 0 || ref.Size <= 0 || ref.Start+ref.Size > csize {
				addf("file %q ref %d: range [%d,+%d) outside container of %d bytes",
					name, i, ref.Start, ref.Size, csize)
			}
		}
	}
	return rep
}
