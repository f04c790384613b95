package dedup

import (
	"bytes"
	"io"
	"testing"
)

// TestCrossEngineWorkload is the capstone correctness test: every engine
// ingests the same multi-machine backup workload and must (a) restore
// every snapshot byte-identically, (b) satisfy the accounting identities,
// and (c) find a sane amount of duplication. It is the single test that
// exercises all nine engines through the public API on realistic input.
func TestCrossEngineWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-engine workload is slow")
	}
	cfg := DefaultWorkloadConfig()
	cfg.Machines = 3
	cfg.Days = 3
	cfg.SnapshotBytes = 1 << 20
	cfg.EditsPerDay = 8
	cfg.EditBytes = 8 << 10
	w, err := NewWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}

	for _, a := range Algorithms() {
		t.Run(string(a), func(t *testing.T) {
			eng, err := New(a, Options{
				ECS:                1024,
				SD:                 8,
				ExpectedInputBytes: w.TotalBytes(),
				CacheManifests:     8,
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := w.EachFile(func(info WorkloadFile, r io.Reader) error {
				return eng.PutFile(info.Name, r)
			}); err != nil {
				t.Fatal(err)
			}
			if err := eng.Finish(); err != nil {
				t.Fatal(err)
			}
			rep := eng.Report()
			if rep.InputBytes != w.TotalBytes() {
				t.Errorf("input accounting: %d != %d", rep.InputBytes, w.TotalBytes())
			}
			if rep.StoredDataBytes+rep.DupBytes != rep.InputBytes {
				t.Error("stored + dup != input")
			}
			if rep.DupChunks+rep.NonDupChunks != rep.ChunksIn {
				t.Error("D + N != chunks")
			}
			if der := rep.DataOnlyDER(); der < 1.3 {
				t.Errorf("data-only DER = %.2f — engine found almost no duplication", der)
			}
			if rep.RealDER() > rep.DataOnlyDER() {
				t.Error("real DER cannot exceed data-only DER")
			}
			// Full byte-identical restore of every snapshot.
			if err := w.EachFile(func(info WorkloadFile, rd io.Reader) error {
				want, err := io.ReadAll(rd)
				if err != nil {
					return err
				}
				var got bytes.Buffer
				if err := eng.Restore(info.Name, &got); err != nil {
					t.Fatalf("restore %s: %v", info.Name, err)
				}
				if !bytes.Equal(got.Bytes(), want) {
					t.Fatalf("%s corrupted (restored %d bytes, want %d)", info.Name, got.Len(), len(want))
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			// And the persisted store passes fsck.
			dir := t.TempDir()
			if err := SaveStore(eng, dir); err != nil {
				t.Fatal(err)
			}
			st, err := OpenStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			if problems := st.Check(); len(problems) != 0 {
				t.Errorf("fsck found problems: %v", problems[:min(3, len(problems))])
			}
		})
	}
}
