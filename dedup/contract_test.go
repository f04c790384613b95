package dedup

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"mhdedup/internal/simdisk"
	"mhdedup/internal/store"
)

// footprint is what a store directory holds, per category: objects and
// bytes. A refused resume must leave it as it was.
func footprint(t *testing.T, dir string) [2][5]int64 {
	t.Helper()
	disk, _, err := simdisk.Load(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	var fp [2][5]int64
	for i, cat := range []simdisk.Category{simdisk.Data, simdisk.Hook, simdisk.Manifest, simdisk.FileManifest, simdisk.Recipe} {
		fp[0][i], fp[1][i] = disk.ObjectCount(cat), disk.BytesStored(cat)
	}
	return fp
}

// resumer opens a store directory as Resume or as ResumeDurable does, and
// persists what the engine did as each one's caller does.
type resumer struct {
	name string
	open func(t *testing.T, a Algorithm, opt Options, dir string) (Engine, func(), error)
}

var resumers = []resumer{
	{"Resume", func(t *testing.T, a Algorithm, opt Options, dir string) (Engine, func(), error) {
		eng, err := Resume(a, opt, dir)
		return eng, func() {
			if err := SaveStore(eng, dir); err != nil {
				t.Fatal(err)
			}
		}, err
	}},
	{"ResumeDurable", func(t *testing.T, a Algorithm, opt Options, dir string) (Engine, func(), error) {
		eng, dur, _, err := ResumeDurable(a, opt, dir, DurabilityOptions{FlushInterval: -1})
		return eng, func() {
			if err := dur.Commit(); err != nil {
				t.Fatal(err)
			}
			if err := dur.Close(); err != nil {
				t.Fatal(err)
			}
		}, err
	}},
}

// TestResumeContractMatrix: a store records how it was cut, and a resume
// adopts that record or refuses to cut otherwise — never silently stores
// the same bytes again under other cuts.
func TestResumeContractMatrix(t *testing.T) {
	data := randBytes(7, 1<<20)
	put := func(t *testing.T, eng Engine, name string) int64 {
		t.Helper()
		before := eng.Disk().BytesStored(simdisk.Data)
		if err := eng.PutFile(name, bytes.NewReader(data)); err != nil {
			t.Fatal(err)
		}
		if err := eng.Finish(); err != nil {
			t.Fatal(err)
		}
		return eng.Disk().BytesStored(simdisk.Data) - before
	}
	for _, r := range resumers {
		t.Run(r.name, func(t *testing.T) {
			for _, base := range []struct {
				name string
				opt  Options
				want store.Contract
			}{
				{"mhd-rabin-4096", Options{}, store.Contract{Algorithm: "mhd", Format: store.FormatMHD, ECS: 4096}},
				{"mhd-fastcdc-2048", Options{ECS: 2048, FastCDC: true}, store.Contract{Algorithm: "mhd", Format: store.FormatMHD, FastCDC: true, ECS: 2048}},
			} {
				t.Run(base.name, func(t *testing.T) {
					dir := filepath.Join(t.TempDir(), "store")
					eng, persist, err := r.open(t, MHD, base.opt, dir)
					if err != nil {
						t.Fatal(err)
					}
					if put(t, eng, "a") == 0 {
						t.Fatal("the first ingest stored nothing")
					}
					persist()
					if c, ok := store.ContractOf(eng.Disk()); !ok || c != base.want {
						t.Fatalf("recorded %+v, %v; want %+v", c, ok, base.want)
					}

					if base.opt == (Options{}) {
						// Each cut option that differs from the record is
						// refused, naming what the store records, and the
						// store is left as it was.
						before := footprint(t, dir)
						for _, tc := range []struct {
							a    Algorithm
							opt  Options
							name string
						}{
							{MHD, Options{ECS: 2048}, "ECS 4096"},
							{MHD, Options{FastCDC: true}, "TTTD false and FastCDC false"},
							{CDC, Options{}, "algorithm mhd"},
						} {
							if _, _, err := r.open(t, tc.a, tc.opt, dir); err == nil || !strings.Contains(err.Error(), tc.name) {
								t.Errorf("%s %+v: err = %v, want a refusal naming %q", tc.a, tc.opt, err, tc.name)
							}
						}
						if after := footprint(t, dir); after != before {
							t.Errorf("a refused resume changed the store: %v → %v", before, after)
						}
					}

					// Unset cut options adopt the record, and SD is free:
					// re-ingesting the same bytes stores nothing new.
					for i, opt := range []Options{{}, {SD: 16}} {
						eng, persist, err := r.open(t, "", opt, dir)
						if err != nil {
							t.Fatalf("%+v: %v", opt, err)
						}
						if n := put(t, eng, fmt.Sprint("again", i)); n != 0 {
							t.Errorf("%+v: re-ingesting the same file stored %d new bytes", opt, n)
						}
						persist()
					}
				})
			}
		})
	}
}

// TestFreshDurableStoreRecordsBeforeAck: a new durable store's contract is
// on disk once ResumeDurable returns — before anything could be acked — so
// a process killed right after still remounts with it.
func TestFreshDurableStoreRecordsBeforeAck(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	eng, dur, _, err := ResumeDurable(MHD, Options{ECS: 2048, TTTD: true}, dir, DurabilityOptions{FlushInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer dur.Close()
	if err := eng.PutFile("unacked", bytes.NewReader(randBytes(8, 64<<10))); err != nil {
		t.Fatal(err)
	}
	// No Commit and no Close: what a kill leaves.
	disk, _, err := simdisk.Load(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	want := store.Contract{Algorithm: "mhd", Format: store.FormatMHD, TTTD: true, ECS: 2048}
	if c, ok := store.ContractOf(disk); !ok || c != want {
		t.Fatalf("remounted with %+v, %v; want %+v", c, ok, want)
	}
}

// TestTruncatedManifestKeepsRecordedFormat: one damaged manifest among
// several does not change how the others decode. The store opens in the
// format it records; verified restore, Check and Scrub blame that manifest
// and the files its container holds, and no other.
func TestTruncatedManifestKeepsRecordedFormat(t *testing.T) {
	eng, err := New(MHD, Options{ECS: 1024, SD: 4})
	if err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{}
	for i, name := range []string{"f0", "f1", "f2", "f3"} {
		files[name] = randBytes(int64(20+i), 96<<10)
		if err := eng.PutFile(name, bytes.NewReader(files[name])); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Finish(); err != nil {
		t.Fatal(err)
	}
	disk := eng.Disk()
	manifests := disk.Names(simdisk.Manifest)
	sort.Strings(manifests)
	if len(manifests) < 4 {
		t.Fatalf("%d manifests, want one per file at least", len(manifests))
	}
	damaged := manifests[1]
	raw, _ := disk.Read(simdisk.Manifest, damaged)
	if err := disk.TruncateStored(simdisk.Manifest, damaged, len(raw)-1); err != nil {
		t.Fatal(err)
	}
	// The files whose recipes read the damaged manifest's container (in the
	// MHD format a manifest vouches for the container of its own name).
	var want []string
	for name := range files {
		fm, err := store.New(disk, store.FormatMHD).ReadFileManifest(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, ref := range fm.Refs {
			if ref.Container.Hex() == damaged {
				want = append(want, name)
				break
			}
		}
	}
	sort.Strings(want)
	if len(want) == 0 || len(want) == len(files) {
		t.Fatalf("the damaged container is read by %v: want some files, not all", want)
	}
	dir := t.TempDir()
	if err := SaveStore(eng, dir); err != nil {
		t.Fatal(err)
	}

	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if f := s.st.Format(); f != store.FormatMHD {
		t.Fatalf("opened as format %v, want FormatMHD", f)
	}
	var failed []string
	for _, name := range s.Files() {
		if err := s.VerifyRestore(name, io.Discard); err != nil {
			failed = append(failed, name)
		}
	}
	if !reflect.DeepEqual(failed, want) {
		t.Errorf("verified restore failed for %v, want exactly %v", failed, want)
	}
	problems := s.Check()
	if len(problems) == 0 || !strings.Contains(strings.Join(problems, "\n"), damaged[:8]) {
		t.Errorf("Check = %q, want the damaged manifest %s named", problems, damaged[:8])
	}
	rep, err := s.Scrub(VerifyOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if got := []string{"manifest/" + damaged}; !reflect.DeepEqual(rep.Quarantined, got) {
		t.Errorf("Scrub quarantined %v, want %v", rep.Quarantined, got)
	}
	if !reflect.DeepEqual(rep.AffectedFiles, want) {
		t.Errorf("Scrub affected %v, want %v", rep.AffectedFiles, want)
	}
	if _, err := os.Stat(filepath.Join(dir, "quarantine", "manifest-"+damaged)); err != nil {
		t.Errorf("the damaged manifest was not preserved: %v", err)
	}
}
