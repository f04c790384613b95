package dedup

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"
)

// buildConcurrentStore ingests several near-duplicate files and returns
// the opened store plus the expected plaintexts.
func buildConcurrentStore(t *testing.T) (*Store, map[string][]byte) {
	t.Helper()
	eng, err := New(MHD, Options{ECS: 512, SD: 4, BloomBytes: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	base := randBytes(41, 150_000)
	want := make(map[string][]byte)
	for i := 0; i < 6; i++ {
		data := append([]byte(nil), base...)
		copy(data[i*20_000:], randBytes(int64(42+i), 4_000))
		name := fmt.Sprintf("img-%d", i)
		want[name] = data
		if err := eng.PutFile(name, bytes.NewReader(data)); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Finish(); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := SaveStore(eng, dir); err != nil {
		t.Fatal(err)
	}
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	return st, want
}

// TestStoreConcurrentRestoreVsDeleteSweep pins the Store locking
// contract: Restore/VerifyRestore/Files racing against Delete and Sweep
// on one shared Store must be race-clean, and every restore must either
// produce exactly the original bytes or fail cleanly (the file was
// deleted) — never a torn or corrupt stream.
func TestStoreConcurrentRestoreVsDeleteSweep(t *testing.T) {
	st, want := buildConcurrentStore(t)

	// img-4 and img-5 get deleted mid-flight; the rest must survive
	// every interleaving.
	var wg sync.WaitGroup
	start := make(chan struct{})

	restoreLoop := func(name string, verify bool) {
		defer wg.Done()
		<-start
		for i := 0; i < 8; i++ {
			var got bytes.Buffer
			var err error
			if verify {
				err = st.VerifyRestore(name, &got)
			} else {
				err = st.Restore(name, &got)
			}
			deletable := name == "img-4" || name == "img-5"
			switch {
			case err == nil:
				if !bytes.Equal(got.Bytes(), want[name]) {
					t.Errorf("%s: restored bytes differ (iteration %d)", name, i)
					return
				}
			case deletable:
				// Deleted while we raced: a clean error is the correct
				// outcome; a partial success is not checked here because
				// got may hold a prefix — the contract is that err != nil
				// was reported.
			default:
				t.Errorf("%s: restore failed: %v", name, err)
				return
			}
		}
	}
	for _, name := range []string{"img-0", "img-1", "img-2", "img-3", "img-4", "img-5"} {
		wg.Add(2)
		go restoreLoop(name, false)
		go restoreLoop(name, true)
	}
	wg.Add(1)
	go func() { // listing races along
		defer wg.Done()
		<-start
		for i := 0; i < 20; i++ {
			if n := len(st.Files()); n < 4 {
				t.Errorf("Files() = %d entries, want >= 4", n)
				return
			}
		}
	}()
	wg.Add(1)
	go func() { // the mutator: delete two files, then sweep
		defer wg.Done()
		<-start
		for _, name := range []string{"img-4", "img-5"} {
			if err := st.Delete(name); err != nil {
				t.Errorf("delete %s: %v", name, err)
				return
			}
		}
		if _, err := st.Sweep(); err != nil {
			t.Errorf("sweep: %v", err)
		}
	}()
	close(start)
	wg.Wait()

	// Post-race invariants: survivors restore perfectly (verified), the
	// deleted files are gone, and the store checks consistent.
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("img-%d", i)
		var got bytes.Buffer
		if err := st.VerifyRestore(name, &got); err != nil {
			t.Fatalf("post-race verify restore %s: %v", name, err)
		}
		if !bytes.Equal(got.Bytes(), want[name]) {
			t.Fatalf("post-race %s differs", name)
		}
	}
	for _, name := range st.Files() {
		if name == "img-4" || name == "img-5" {
			t.Fatalf("%s still listed after delete", name)
		}
	}
	if problems := st.Check(); len(problems) != 0 {
		t.Fatalf("store inconsistent after concurrent delete/sweep: %v", problems)
	}
}

// TestStoreConcurrentVerifyRestores exercises the shared Verifier from
// many goroutines at once.
func TestStoreConcurrentVerifyRestores(t *testing.T) {
	st, want := buildConcurrentStore(t)
	var wg sync.WaitGroup
	for name, data := range want {
		wg.Add(1)
		go func(name string, data []byte) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				var got bytes.Buffer
				if err := st.VerifyRestore(name, &got); err != nil {
					t.Errorf("%s: %v", name, err)
					return
				}
				if !bytes.Equal(got.Bytes(), data) {
					t.Errorf("%s: bytes differ", name)
					return
				}
			}
		}(name, data)
	}
	wg.Wait()
}

// parkedWriter stalls a restore mid-flight: its first Write signals parked
// and blocks until release is closed.
type parkedWriter struct {
	bytes.Buffer
	once            sync.Once
	parked, release chan struct{}
}

func (w *parkedWriter) Write(p []byte) (int, error) {
	w.once.Do(func() {
		close(w.parked)
		<-w.release
	})
	return w.Buffer.Write(p)
}

// TestVerifiedRestoresRunConcurrently pins the Store locking contract for
// the verified path: verified restores are reads like any other, so while
// one is parked mid-file eight more — whole-file and ranged, of other
// files, over the same shared Verifier — run to completion bit-identical
// (no verifier-wide lock may be held across a restore), and a Delete
// issued meanwhile still waits for the parked one.
func TestVerifiedRestoresRunConcurrently(t *testing.T) {
	st, want := buildConcurrentStore(t)
	slow := &parkedWriter{parked: make(chan struct{}), release: make(chan struct{})}
	slowDone := make(chan error, 1)
	go func() { slowDone <- st.VerifyRestore("img-0", slow) }()
	<-slow.parked

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := fmt.Sprintf("img-%d", 1+i%5)
			data := want[name]
			var got bytes.Buffer
			off, err := int64(0), error(nil)
			if i%2 == 0 {
				err = st.VerifyRestore(name, &got)
			} else {
				off = int64(10_000 * i)
				_, err = st.VerifyRestoreRange(name, off, -1, &got)
			}
			if err != nil {
				t.Errorf("%s @%d: %v", name, off, err)
			} else if !bytes.Equal(got.Bytes(), data[off:]) {
				t.Errorf("%s @%d: bytes differ", name, off)
			}
		}(i)
	}
	others := make(chan struct{})
	go func() { wg.Wait(); close(others) }()
	select {
	case <-others:
	case <-time.After(30 * time.Second):
		t.Fatal("verified restores serialize behind one that is still in flight")
	}

	deleted := make(chan error, 1)
	go func() { deleted <- st.Delete("img-0") }()
	select {
	case err := <-deleted:
		t.Fatalf("Delete returned (%v) while a verified restore of the file was in flight", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(slow.release)
	if err := <-slowDone; err != nil || !bytes.Equal(slow.Bytes(), want["img-0"]) {
		t.Fatalf("parked verified restore: err %v, %d of %d bytes", err, slow.Len(), len(want["img-0"]))
	}
	if err := <-deleted; err != nil {
		t.Fatal(err)
	}
	if err := st.VerifyRestore("img-0", &bytes.Buffer{}); err == nil {
		t.Fatal("deleted file still restores")
	}
}

// TestStoreConcurrentSaveVsRestore races Save (a mutation-class
// operation: it walks the whole object set) against restores.
func TestStoreConcurrentSaveVsRestore(t *testing.T) {
	st, want := buildConcurrentStore(t)
	dir := t.TempDir()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 3; i++ {
			if err := st.Save(dir); err != nil {
				t.Errorf("save: %v", err)
				return
			}
		}
	}()
	for name, data := range want {
		wg.Add(1)
		go func(name string, data []byte) {
			defer wg.Done()
			var got bytes.Buffer
			if err := st.Restore(name, &got); err != nil {
				t.Errorf("%s: %v", name, err)
				return
			}
			if !bytes.Equal(got.Bytes(), data) {
				t.Errorf("%s: bytes differ", name)
			}
		}(name, data)
	}
	wg.Wait()
	// The saved copy must itself be a consistent, restorable store.
	reopened, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := reopened.VerifyRestore("img-0", &got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want["img-0"]) {
		t.Fatal("saved-copy restore differs")
	}
}
