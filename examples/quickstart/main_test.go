package main

import (
	"bytes"
	"path/filepath"
	"regexp"
	"testing"
)

// TestQuickstart runs the example and checks the lines a reader is told to
// expect: day 2 deduplicates almost wholly against day 1 across the
// save/resume boundary, and both days restore verified.
func TestQuickstart(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, filepath.Join(t.TempDir(), "store")); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`session 1: +stored 1048576 bytes, saved the store`,
		`session 2: +10\d{5} of 1048576 bytes were duplicates of day 1`,
		`data-only DER: +4\d\.\d\d `,
		`archive holds: +\[backup-day1 backup-day2\]`,
		`restore: +both days rebuilt byte-identically, verified`,
	} {
		if !regexp.MustCompile(want).Match(out.Bytes()) {
			t.Errorf("output lacks %q:\n%s", want, out.Bytes())
		}
	}
}
