package dedup

import (
	"bytes"
	"io"
	"sync"
	"testing"

	"mhdedup/internal/store"
)

// restoreAt is RestoreRange, or VerifyRestoreRange when verify is set, with
// workers planned reads in flight instead of the Store's default, under the
// same read lock.
func (s *Store) restoreAt(workers int, verify bool, name string, off, length int64, w io.Writer) (RangeStats, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	opts := store.RestoreOptions{Workers: workers}
	if verify {
		return s.verifier().RestoreRange(name, off, length, w, opts)
	}
	return s.st.RestoreRange(name, off, length, w, opts)
}

// TestParallelRestoreRacesMutators extends the Store locking contract to
// the batched pipeline: many concurrent parallel restores (plain and
// verifying, each internally running 4 reader goroutines) race against
// Delete, Sweep and Scrub on one shared Store. Under -race this doubles as
// the pipeline's data-race gate; at the byte level every restore must
// either reproduce the original exactly or fail cleanly — never hand back a
// torn stream.
func TestParallelRestoreRacesMutators(t *testing.T) {
	st, want := buildConcurrentStore(t)

	var wg sync.WaitGroup
	start := make(chan struct{})

	restoreLoop := func(name string, verify bool) {
		defer wg.Done()
		<-start
		for i := 0; i < 6; i++ {
			var got bytes.Buffer
			_, err := st.restoreAt(4, verify, name, 0, -1, &got)
			deletable := name == "img-4" || name == "img-5"
			switch {
			case err == nil:
				if !bytes.Equal(got.Bytes(), want[name]) {
					t.Errorf("%s: pipelined restore returned wrong bytes (iteration %d)", name, i)
					return
				}
			case deletable:
				// Deleted while racing: a clean error is correct.
			default:
				t.Errorf("%s: pipelined restore failed: %v", name, err)
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
	go func() { // mutators race along: delete two files, sweep, scrub
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
			return
		}
		if rep, err := st.Scrub(VerifyOpts{}); err != nil {
			t.Errorf("scrub: %v", err)
		} else if !rep.OK() {
			t.Errorf("scrub of an undamaged store found problems: %+v", rep)
		}
	}()
	close(start)
	wg.Wait()

	// Post-race: survivors restore perfectly through the pipeline.
	for _, name := range []string{"img-0", "img-1", "img-2", "img-3"} {
		var got bytes.Buffer
		if err := st.VerifyRestore(name, &got); err != nil {
			t.Fatalf("%s after race: %v", name, err)
		}
		if !bytes.Equal(got.Bytes(), want[name]) {
			t.Fatalf("%s after race: bytes differ", name)
		}
	}
	for _, name := range []string{"img-4", "img-5"} {
		if err := st.Restore(name, &bytes.Buffer{}); err == nil {
			t.Fatalf("%s restored after deletion", name)
		}
	}
}
