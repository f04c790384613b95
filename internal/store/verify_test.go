package store

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"

	"mhdedup/internal/hashutil"
	"mhdedup/internal/simdisk"
)

// buildVerifyStore synthesizes a small, fully consistent FormatBasic store:
// two containers tiled by their manifests, a hook, and three files whose
// recipes reference entry-aligned ranges. Returns the store and the
// expected content of every file.
func buildVerifyStore(t *testing.T) (*Store, map[string][]byte) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	disk := simdisk.New()
	s := New(disk, FormatBasic)

	mk := func(tag string, size int, entrySizes []int64) (hashutil.Sum, []byte) {
		data := make([]byte, size)
		rng.Read(data)
		name := hashutil.SumString(tag)
		if err := s.SealDiskChunk(name, data); err != nil {
			t.Fatal(err)
		}
		m := NewManifest(name, FormatBasic)
		var off int64
		for _, sz := range entrySizes {
			m.Append(Entry{Hash: hashutil.SumBytes(data[off : off+sz]), Start: off, Size: sz})
			off += sz
		}
		if off != int64(size) {
			t.Fatalf("entries do not tile container %s", tag)
		}
		if err := s.CreateManifest(m); err != nil {
			t.Fatal(err)
		}
		return name, data
	}

	c1, d1 := mk("c1", 1024, []int64{512, 512})
	c2, d2 := mk("c2", 768, []int64{256, 512})
	if err := s.CreateHook(hashutil.SumString("hk1"), c1); err != nil {
		t.Fatal(err)
	}

	files := map[string][]byte{}
	addFile := func(name string, refs []FileRef) {
		fm := &FileManifest{File: name}
		var content []byte
		for _, r := range refs {
			fm.Append(r)
			switch r.Container {
			case c1:
				content = append(content, d1[r.Start:r.Start+r.Size]...)
			case c2:
				content = append(content, d2[r.Start:r.Start+r.Size]...)
			}
		}
		if err := s.WriteFileManifest(fm); err != nil {
			t.Fatal(err)
		}
		files[name] = content
	}
	addFile("f/one", []FileRef{{Container: c1, Start: 0, Size: 512}, {Container: c2, Start: 0, Size: 256}})
	addFile("f/two", []FileRef{{Container: c1, Start: 512, Size: 512}, {Container: c2, Start: 256, Size: 512}})
	addFile("f/shared", []FileRef{{Container: c1, Start: 0, Size: 1024}})

	if rep := Check(disk, FormatBasic); !rep.OK() {
		t.Fatalf("synthesized store is inconsistent: %v", rep.Problems)
	}
	return s, files
}

func TestVerifierCleanStore(t *testing.T) {
	s, files := buildVerifyStore(t)
	v := NewVerifier(s, VerifyOpts{})
	if len(v.BadManifests) != 0 {
		t.Fatalf("BadManifests = %v", v.BadManifests)
	}
	for _, c := range v.Containers() {
		bad, err := v.VerifyContainer(c)
		if err != nil || len(bad) != 0 {
			t.Fatalf("container %s: %v, %v", c[:8], bad, err)
		}
	}
	for name, want := range files {
		var buf bytes.Buffer
		if err := v.RestoreFile(name, &buf); err != nil {
			t.Fatalf("verified restore %q: %v", name, err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Errorf("verified restore %q: bytes differ", name)
		}
	}
}

func TestVerifierDetectsPersistentBitFlip(t *testing.T) {
	s, files := buildVerifyStore(t)
	c1 := hashutil.SumString("c1").Hex()
	// Flip a bit inside [0,512): corrupts f/one and f/shared, not f/two.
	if err := s.Disk().FlipStoredBit(simdisk.Data, c1, 100*8); err != nil {
		t.Fatal(err)
	}
	v := NewVerifier(s, VerifyOpts{})
	bad, err := v.VerifyContainer(c1)
	if err != nil {
		t.Fatal(err)
	}
	if len(bad) != 1 || bad[0].Start != 0 || bad[0].Size != 512 {
		t.Fatalf("mismatches = %v, want exactly entry [0,512)", bad)
	}
	if bad[0].Got == bad[0].Want || bad[0].Got.IsZero() {
		t.Errorf("mismatch hashes not reported: %v", bad[0])
	}
	for _, name := range []string{"f/one", "f/shared"} {
		if err := v.RestoreFile(name, &bytes.Buffer{}); err == nil {
			t.Errorf("restore %q of corrupt range succeeded silently", name)
		} else if !strings.Contains(err.Error(), "corrupt data") {
			t.Errorf("restore %q error = %v", name, err)
		}
	}
	var buf bytes.Buffer
	if err := v.RestoreFile("f/two", &buf); err != nil {
		t.Errorf("f/two does not touch the corrupt range, restore failed: %v", err)
	} else if !bytes.Equal(buf.Bytes(), files["f/two"]) {
		t.Error("f/two restored wrong bytes")
	}
}

// errInjected is what the failure hooks below make a read return.
var errInjected = errors.New("injected I/O fault")

func TestVerifierRetriesTransientReadErrors(t *testing.T) {
	s, _ := buildVerifyStore(t)
	failures := 2
	s.Disk().SetFailureHook(func(op simdisk.Op, cat simdisk.Category, _ string) error {
		if op == simdisk.OpRead && cat == simdisk.Data && failures > 0 {
			failures--
			return errInjected
		}
		return nil
	})
	defer s.Disk().SetFailureHook(nil)
	v := NewVerifier(s, VerifyOpts{MaxRetries: 2})
	bad, err := v.VerifyContainer(hashutil.SumString("c1").Hex())
	if err != nil || len(bad) != 0 {
		t.Fatalf("transient errors should heal on retry: %v, %v", bad, err)
	}
}

func TestVerifierRetriesTransientBitFlips(t *testing.T) {
	s, files := buildVerifyStore(t)
	flips := 1
	s.Disk().SetReadTransform(func(cat simdisk.Category, _ string, data []byte) []byte {
		if cat == simdisk.Data && flips > 0 && len(data) > 0 {
			flips--
			data[0] ^= 0x80
		}
		return data
	})
	defer s.Disk().SetReadTransform(nil)
	v := NewVerifier(s, VerifyOpts{MaxRetries: 2})
	var buf bytes.Buffer
	if err := v.RestoreFile("f/one", &buf); err != nil {
		t.Fatalf("one transient flip should heal on retry: %v", err)
	}
	if !bytes.Equal(buf.Bytes(), files["f/one"]) {
		t.Error("restored bytes differ after healed flip")
	}
}

// TestVerifiedRestoreFlipOnServingReadIsNotSilent pins the serving-read
// window shut: a bit flip injected on a *later* read of a container — one
// a previously memoized good verdict does not vouch for — must never reach
// the output silently. (A verify-then-reread implementation fails this:
// the first read verifies clean, the flipped re-read is served unchecked.)
func TestVerifiedRestoreFlipOnServingReadIsNotSilent(t *testing.T) {
	s, files := buildVerifyStore(t)
	c1 := hashutil.SumString("c1").Hex()
	reads := 0
	s.Disk().SetReadTransform(func(cat simdisk.Category, name string, data []byte) []byte {
		if cat == simdisk.Data && name == c1 && len(data) > 0 {
			reads++
			if reads >= 2 { // first read clean, every re-read flipped
				data[100] ^= 0x01
			}
		}
		return data
	})
	defer s.Disk().SetReadTransform(nil)

	v := NewVerifier(s, VerifyOpts{MaxRetries: 2})
	// First restore reads c1 once (clean) and serves those verified bytes.
	var buf bytes.Buffer
	if err := v.RestoreFile("f/one", &buf); err != nil {
		t.Fatalf("restore with clean first read failed: %v", err)
	}
	if !bytes.Equal(buf.Bytes(), files["f/one"]) {
		t.Fatal("f/one restored wrong bytes")
	}
	// f/shared forces a fresh read of c1 (the serving cache now holds c2).
	// Every re-read is flipped: the restore must fail, never emit the
	// flipped bytes on the strength of the earlier read's verdict.
	buf.Reset()
	err := v.RestoreFile("f/shared", &buf)
	if err == nil {
		if bytes.Equal(buf.Bytes(), files["f/shared"]) {
			t.Fatal("restore succeeded with correct bytes, but every re-read was flipped — serving read not exercised")
		}
		t.Fatal("flipped serving read written to output without an error (silent corruption)")
	}
	if !strings.Contains(err.Error(), "corrupt data") {
		t.Errorf("error = %v, want corrupt-data report", err)
	}
	if reads < 2 {
		t.Fatalf("c1 read %d times; test needs a post-verdict re-read", reads)
	}
}

// TestVerifiedRestoreTransientFlipOnServingReadHeals: the same window, but
// the flip is transient — exactly one re-read is damaged. The restore must
// retry and emit the correct bytes.
func TestVerifiedRestoreTransientFlipOnServingReadHeals(t *testing.T) {
	s, files := buildVerifyStore(t)
	c1 := hashutil.SumString("c1").Hex()
	reads := 0
	s.Disk().SetReadTransform(func(cat simdisk.Category, name string, data []byte) []byte {
		if cat == simdisk.Data && name == c1 && len(data) > 0 {
			reads++
			if reads == 2 { // only the first re-read is flipped
				data[100] ^= 0x01
			}
		}
		return data
	})
	defer s.Disk().SetReadTransform(nil)

	v := NewVerifier(s, VerifyOpts{MaxRetries: 2})
	var buf bytes.Buffer
	if err := v.RestoreFile("f/one", &buf); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := v.RestoreFile("f/shared", &buf); err != nil {
		t.Fatalf("one transient flip on the serving read should heal: %v", err)
	}
	if !bytes.Equal(buf.Bytes(), files["f/shared"]) {
		t.Fatal("restored bytes differ after healed serving-read flip")
	}
	if reads < 3 {
		t.Fatalf("c1 read %d times; healing needs a retry read", reads)
	}
}

// TestVerifiedRestoreRandomFlipsNeverSilent is the property behind both
// tests above: under random flips on *any* data read, every verified
// restore either returns the exact original bytes or an error — across
// many trials, zero silent corruptions.
func TestVerifiedRestoreRandomFlipsNeverSilent(t *testing.T) {
	s, files := buildVerifyStore(t)
	rng := rand.New(rand.NewSource(99))
	flip := false
	s.Disk().SetReadTransform(func(cat simdisk.Category, _ string, data []byte) []byte {
		if flip && cat == simdisk.Data && len(data) > 0 && rng.Float64() < 0.4 {
			data[rng.Intn(len(data))] ^= 1 << rng.Intn(8)
		}
		return data
	})
	defer s.Disk().SetReadTransform(nil)

	names := make([]string, 0, len(files))
	for name := range files {
		names = append(names, name)
	}
	sort.Strings(names)

	flip = false
	verifiers := make([]*Verifier, 20)
	for i := range verifiers {
		verifiers[i] = NewVerifier(s, VerifyOpts{MaxRetries: 1})
	}
	flip = true
	successes, failures := 0, 0
	for i, v := range verifiers {
		for _, name := range names {
			var buf bytes.Buffer
			err := v.RestoreFile(name, &buf)
			if err != nil {
				failures++
				continue
			}
			successes++
			if !bytes.Equal(buf.Bytes(), files[name]) {
				t.Fatalf("silent corruption: %q restored wrong bytes with a nil error", name)
			}
		}
		// The same property for ranged restores, whose edges fall inside
		// claims, serially and with four workers racing over the flips.
		for _, name := range names {
			want := files[name]
			off := int64(rng.Intn(len(want)))
			length := int64(1 + rng.Intn(len(want)-int(off)))
			var buf bytes.Buffer
			_, err := v.RestoreRange(name, off, length, &buf, RestoreOptions{Workers: 1 + 3*(i%2)})
			if err != nil {
				failures++
				continue
			}
			successes++
			if !bytes.Equal(buf.Bytes(), want[off:off+length]) {
				t.Fatalf("silent corruption: %q [%d,+%d) restored wrong bytes with a nil error", name, off, length)
			}
		}
	}
	if successes == 0 || failures == 0 {
		t.Fatalf("trial mix degenerate: %d successes, %d failures — tune the flip rate", successes, failures)
	}
}

// TestVerifierOverlappingMultiContainerClaims: in FormatMultiContainer any
// manifest may claim bytes of any container, so claims overlap and nest.
// Every claim that overlaps a served byte must be found — a long claim
// sorted far before the offset included — and one wrong claim among them
// fails the read even when another manifest vouches for the same bytes.
func TestVerifierOverlappingMultiContainerClaims(t *testing.T) {
	s := New(simdisk.New(), FormatMultiContainer)
	data := make([]byte, 2048)
	rand.New(rand.NewSource(3)).Read(data)
	c := hashutil.SumString("mc")
	if err := s.SealDiskChunk(c, data); err != nil {
		t.Fatal(err)
	}
	claim := func(manifest string, wrong bool, ranges ...[2]int64) {
		m := NewManifest(hashutil.SumString(manifest), FormatMultiContainer)
		for _, r := range ranges {
			h := hashutil.SumBytes(data[r[0] : r[0]+r[1]])
			if wrong {
				h[0] ^= 1
			}
			m.Append(Entry{Hash: h, Container: c, Start: r[0], Size: r[1]})
		}
		if err := s.CreateManifest(m); err != nil {
			t.Fatal(err)
		}
	}
	claim("long", false, [2]int64{0, 1024})                        // nests the two below
	claim("short", false, [2]int64{100, 100}, [2]int64{300, 100})  // both inside "long"
	claim("twin", false, [2]int64{1024, 512}, [2]int64{1536, 512}) // tiles the second half
	claim("liar", true, [2]int64{1024, 512})                       // same range as twin's first, wrong hash
	if err := s.WriteFileManifest(&FileManifest{File: "f", Refs: []FileRef{{Container: c, Start: 0, Size: 2048}}}); err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 4} {
		for _, tc := range []struct {
			off, length int64
			corrupt     bool
		}{
			{500, 100, false},  // only "long" reaches here, two shorter claims sort after it
			{150, 10, false},   // "long" and short's first
			{1536, 512, false}, // twin's second entry: the liar does not overlap it
			{1000, 100, true},  // crosses into the range the liar also claims
			{1024, 512, true},  // vouched for by twin, contradicted by the liar
			{0, -1, true},      // the whole file
		} {
			var buf bytes.Buffer
			_, err := NewVerifier(s, VerifyOpts{}).RestoreRange("f", tc.off, tc.length, &buf, RestoreOptions{Workers: workers})
			if tc.corrupt {
				if err == nil || !strings.Contains(err.Error(), "corrupt data") || !strings.Contains(err.Error(), hashutil.SumString("liar").Short()) {
					t.Fatalf("workers %d [%d,+%d): error %v, want corrupt data naming the liar's manifest", workers, tc.off, tc.length, err)
				}
				continue
			}
			if err != nil || !bytes.Equal(buf.Bytes(), data[tc.off:tc.off+tc.length]) {
				t.Fatalf("workers %d [%d,+%d): %v", workers, tc.off, tc.length, err)
			}
		}
	}
}

func TestVerifierReportsTruncatedContainer(t *testing.T) {
	s, _ := buildVerifyStore(t)
	c2 := hashutil.SumString("c2").Hex()
	if err := s.Disk().TruncateStored(simdisk.Data, c2, 300); err != nil {
		t.Fatal(err)
	}
	v := NewVerifier(s, VerifyOpts{})
	bad, err := v.VerifyContainer(c2)
	if err != nil {
		t.Fatal(err)
	}
	// Entry [256,+512) now reaches past the end: reported with a zero Got.
	found := false
	for _, mm := range bad {
		if mm.Start == 256 && mm.Got.IsZero() {
			found = true
		}
	}
	if !found {
		t.Fatalf("truncation not reported: %v", bad)
	}
}

// A claim that reaches past the end of what was read mismatches by that fact,
// not by comparing a never-computed Got with the recorded hash — which a
// claim recording the zero Sum would pass.
func TestCheckClaimsOutOfRangeZeroHashClaim(t *testing.T) {
	bad := checkClaims(hashutil.Sum{}, []coverEntry{{start: 0, size: 10}}, simdisk.Runs{make([]byte, 5)}, 0)
	if len(bad) != 1 || bad[0].Start != 0 || bad[0].Size != 10 {
		t.Fatalf("claim [0,+10) on 5 bytes with a zero recorded hash: mismatches = %v, want that claim", bad)
	}
}

// The same end to end: manifests carry no checksum of their own, so a
// zero-filled sector inside one leaves an entry recording the zero Sum. With
// the container truncated inside that entry's range, verification must still
// say so — in a restore, in a scrub — and never reslice past what it read.
func TestVerifierZeroedEntryOverTruncatedContainer(t *testing.T) {
	s, _ := buildVerifyStore(t)
	c2 := hashutil.SumString("c2").Hex()
	raw, err := s.Disk().Read(simdisk.Manifest, c2)
	if err != nil {
		t.Fatal(err)
	}
	// Entry 1 of c2's manifest claims [256,+512); zero its recorded hash.
	clear(raw[FormatBasic.EntrySize():][:hashutil.Size])
	if err := s.Disk().Write(simdisk.Manifest, c2, raw); err != nil {
		t.Fatal(err)
	}
	if err := s.Disk().TruncateStored(simdisk.Data, c2, 300); err != nil {
		t.Fatal(err)
	}

	v := NewVerifier(s, VerifyOpts{})
	// f/two serves c2[256,+512), all of it inside the zeroed claim.
	if err := v.RestoreFile("f/two", &bytes.Buffer{}); err == nil {
		t.Error("verified restore through a truncated container succeeded")
	} else if !strings.Contains(err.Error(), "corrupt data") {
		t.Errorf("verified restore error = %v, want corrupt data", err)
	}
	rep, err := s.Scrub(VerifyOpts{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, mm := range rep.Corrupt {
		found = found || (mm.Container.Hex() == c2 && mm.Start == 256 && mm.Size == 512)
	}
	if !found {
		t.Errorf("scrub: truncated claim c2[256,+512) not under Corrupt: %v", rep.Corrupt)
	}
}

func TestVerifierRefusesUnvouchedRanges(t *testing.T) {
	s, _ := buildVerifyStore(t)
	// Remove c1's manifest: its bytes are no longer vouched for by anyone.
	if err := s.Disk().Delete(simdisk.Manifest, hashutil.SumString("c1").Hex()); err != nil {
		t.Fatal(err)
	}
	v := NewVerifier(s, VerifyOpts{})
	err := v.RestoreFile("f/one", &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "not vouched") {
		t.Fatalf("restore of unvouched range = %v, want refusal", err)
	}
}

func TestScrubQuarantinesExactlyTheCorruptObjects(t *testing.T) {
	s, _ := buildVerifyStore(t)
	c2 := hashutil.SumString("c2").Hex()
	if err := s.Disk().FlipStoredBit(simdisk.Data, c2, 5000); err != nil {
		t.Fatal(err)
	}
	var quarantined []string
	var quarantinedBytes int
	rep, err := s.Scrub(VerifyOpts{}, func(cat simdisk.Category, name string, data []byte) error {
		quarantined = append(quarantined, cat.String()+"/"+name)
		quarantinedBytes += len(data)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatal("scrub of a corrupt store reported OK")
	}
	if len(rep.Corrupt) == 0 || rep.Corrupt[0].Container.Hex() != c2 {
		t.Fatalf("Corrupt = %v", rep.Corrupt)
	}
	if len(quarantined) != 1 || quarantined[0] != "data/"+c2 {
		t.Fatalf("quarantined %v, want exactly data/%s", quarantined, c2[:8])
	}
	if quarantinedBytes != 768 {
		t.Errorf("quarantine preserved %d bytes, want 768", quarantinedBytes)
	}
	// The corrupt object is gone; the rest of the store is intact.
	if _, ok := s.Disk().Size(simdisk.Data, c2); ok {
		t.Error("corrupt container still in store after scrub")
	}
	if _, ok := s.Disk().Size(simdisk.Data, hashutil.SumString("c1").Hex()); !ok {
		t.Error("healthy container removed by scrub")
	}
	wantAffected := []string{"f/one", "f/two"}
	if len(rep.AffectedFiles) != 2 || rep.AffectedFiles[0] != wantAffected[0] || rep.AffectedFiles[1] != wantAffected[1] {
		t.Errorf("AffectedFiles = %v, want %v", rep.AffectedFiles, wantAffected)
	}
	// Affected files now fail loudly; unaffected files still restore.
	v := NewVerifier(s, VerifyOpts{})
	if err := v.RestoreFile("f/one", &bytes.Buffer{}); err == nil {
		t.Error("restore of a file with quarantined data succeeded")
	}
	if err := v.RestoreFile("f/shared", &bytes.Buffer{}); err != nil {
		t.Errorf("restore of unaffected file failed: %v", err)
	}
	// Scrubbing again finds nothing new (idempotent on the survivors).
	rep2, err := s.Scrub(VerifyOpts{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rep2.OK() || len(rep2.Quarantined) != 0 {
		t.Errorf("second scrub = %+v, want clean", rep2)
	}
}

func TestScrubQuarantinesUndecodableManifest(t *testing.T) {
	s, _ := buildVerifyStore(t)
	c1 := hashutil.SumString("c1").Hex()
	// Truncating a basic manifest to a non-multiple of 36 makes it
	// undecodable.
	if err := s.Disk().TruncateStored(simdisk.Manifest, c1, 35); err != nil {
		t.Fatal(err)
	}
	rep, err := s.Scrub(VerifyOpts{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.BadManifests) != 1 || rep.BadManifests[0] != c1 {
		t.Fatalf("BadManifests = %v", rep.BadManifests)
	}
	if _, ok := s.Disk().Size(simdisk.Manifest, c1); ok {
		t.Error("undecodable manifest still in store after scrub")
	}
}

// TestVerifierManifestLoadFailureIsNotCached: a manifest that cannot be read
// fails the verified restore that needed it, loudly and with the cause, but
// is not remembered as vouching for nothing — the next restore on the same
// Verifier loads it again and succeeds. The disk's failure hook fails every
// attempt of the first load.
func TestVerifierManifestLoadFailureIsNotCached(t *testing.T) {
	s, files := buildVerifyStore(t)
	c1 := hashutil.SumString("c1").Hex()
	v := NewVerifier(s, VerifyOpts{})
	failures := v.opts.retries() + 1
	s.Disk().SetFailureHook(func(op simdisk.Op, cat simdisk.Category, name string) error {
		if op == simdisk.OpRead && cat == simdisk.Manifest && name == c1 && failures > 0 {
			failures--
			return errInjected
		}
		return nil
	})
	defer s.Disk().SetFailureHook(nil)
	err := v.RestoreFile("f/shared", io.Discard)
	if err == nil || !strings.Contains(err.Error(), "manifest is unreadable") || !errors.Is(err, errInjected) {
		t.Fatalf("restore while c1's manifest is unreadable = %v, want a refusal naming the cause", err)
	}
	var buf bytes.Buffer
	if err := v.RestoreFile("f/shared", &buf); err != nil || !bytes.Equal(buf.Bytes(), files["f/shared"]) {
		t.Fatalf("restore on the same Verifier once the manifest reads again: %v", err)
	}
}

// TestVerifiedSplitCutsAtCleanClaimBoundaries holds splitReads to its rule
// on a 4 MiB container tiled by 128 KiB claims and overlapped by one long
// FormatMultiContainer claim over [0.5, 2.5) MiB: a one-segment read is cut
// at least 1 MiB apart and only where no claim crosses — never inside the
// long claim — a read of several segments is left whole, and at any width
// the restore writes the same bytes and hashes and serves exactly what the
// inline restore does (where the CPU has no SHA-1 lanes, -tags purego, the
// wide restore is the one that cuts).
func TestVerifiedSplitCutsAtCleanClaimBoundaries(t *testing.T) {
	const kib, mib = 1 << 10, 1 << 20
	s := New(simdisk.New(), FormatMultiContainer)
	data := make([]byte, 4*mib)
	rand.New(rand.NewSource(11)).Read(data)
	c := hashutil.SumString("big")
	if err := s.SealDiskChunk(c, data); err != nil {
		t.Fatal(err)
	}
	claim := func(manifest string, ranges ...[2]int64) {
		m := NewManifest(hashutil.SumString(manifest), FormatMultiContainer)
		for _, r := range ranges {
			m.Append(Entry{Hash: hashutil.SumBytes(data[r[0] : r[0]+r[1]]), Container: c, Start: r[0], Size: r[1]})
		}
		if err := s.CreateManifest(m); err != nil {
			t.Fatal(err)
		}
	}
	var tiles [][2]int64
	for off := int64(0); off < 4*mib; off += 128 * kib {
		tiles = append(tiles, [2]int64{off, 128 * kib})
	}
	claim("tiles", tiles...)
	claim("long", [2]int64{mib / 2, 2 * mib})

	for _, tc := range []struct {
		file   string
		refs   [][2]int64 // start, size within the container, in output order
		starts []int64    // where the planned read's sub-reads start
	}{
		{"whole", [][2]int64{{0, 4 * mib}}, []int64{0, 5 * mib / 2, 7 * mib / 2}},
		{"ascending", [][2]int64{{100, 3*mib/2 - 100}, {3*mib/2 + 40*kib, 3*mib/2 - 40*kib}, {3*mib + 10, 900 * kib}},
			[]int64{100}},
		{"backward", [][2]int64{{mib, 3 * mib / 2}, {0, 6 * mib / 5}}, []int64{0}},
	} {
		fm := &FileManifest{File: tc.file}
		var want []byte
		for _, r := range tc.refs {
			fm.Refs = append(fm.Refs, FileRef{Container: c, Start: r[0], Size: r[1]})
			want = append(want, data[r[0]:r[0]+r[1]]...)
		}
		if err := s.WriteFileManifest(fm); err != nil {
			t.Fatal(err)
		}
		v := NewVerifier(s, VerifyOpts{})
		plan := planOf(t, s, tc.file)
		if len(plan.reads) != 1 {
			t.Fatalf("%s: planned %d reads, want one", tc.file, len(plan.reads))
		}
		v.splitReads(plan)
		var starts []int64
		for _, pr := range plan.reads {
			starts = append(starts, pr.start)
		}
		if !slices.Equal(starts, tc.starts) {
			t.Fatalf("%s: sub-reads start at %v, want %v", tc.file, starts, tc.starts)
		}

		var counts [2][2]int64
		for i, workers := range []int{1, 4} {
			hashed, served := cVerifyHashedBytes.Load(), cVerifyServedBytes.Load()
			var got bytes.Buffer
			if _, err := v.RestoreRange(tc.file, 0, -1, &got, RestoreOptions{Workers: workers}); err != nil {
				t.Fatalf("%s workers %d: %v", tc.file, workers, err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Fatalf("%s workers %d: wrong bytes", tc.file, workers)
			}
			counts[i] = [2]int64{cVerifyHashedBytes.Load() - hashed, cVerifyServedBytes.Load() - served}
		}
		if counts[0] != counts[1] {
			t.Fatalf("%s: hashed/served bytes inline %v, four wide %v", tc.file, counts[0], counts[1])
		}
	}
}

// TestVerifiedDefaultWidth: zero options mean verifiedWorkers reads in
// flight on the verified path — inline on a single P — and stay inline on
// the plain path, which starts no read ahead of the caller at all.
func TestVerifiedDefaultWidth(t *testing.T) {
	s, file, want := buildFragmentedStore(t, 31, 300)
	ahead := func() int64 { return hRestoreWindow.Snapshot().Count }
	before := ahead()
	var got bytes.Buffer
	rs, err := NewVerifier(s, VerifyOpts{}).RestoreRange(file, 0, -1, &got, RestoreOptions{})
	if err != nil || !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("verified: %v", err)
	}
	inline := runtime.GOMAXPROCS(0) == 1
	if rs.Workers != verifiedWorkers() || inline != (rs.Workers == 1) || inline == (ahead() > before) {
		t.Fatalf("GOMAXPROCS %d: verified restore at width %d started %d reads ahead",
			runtime.GOMAXPROCS(0), rs.Workers, ahead()-before)
	}
	before = ahead()
	got.Reset()
	rs, err = s.RestoreRange(file, 0, -1, &got, RestoreOptions{})
	if err != nil || !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("plain: %v", err)
	}
	if rs.Workers != 1 || ahead() != before {
		t.Fatalf("plain restore with zero options: width %d, %d reads started ahead", rs.Workers, ahead()-before)
	}
}
