package baseline_test

import (
	"bytes"
	"errors"
	"testing"

	"mhdedup/internal/simdisk"
)

// TestDiskFailuresPropagate injects failures per disk-operation class and
// asserts every baseline surfaces the error from PutFile/Finish instead of
// silently corrupting state. (Manifest rewrite failures are MHD-specific —
// baseline manifests are immutable — and are covered in internal/core.)
func TestDiskFailuresPropagate(t *testing.T) {
	boom := errors.New("injected media error")
	content := randBytes(91, 120_000)
	// failOn arms disk to fail every failOp on a failCat object and reports
	// whether it ever did: an engine must return the failure exactly when
	// its algorithm touched such an object.
	failOn := func(disk *simdisk.Disk, failOp simdisk.Op, failCat simdisk.Category) *bool {
		injected := new(bool)
		disk.SetFailureHook(func(op simdisk.Op, cat simdisk.Category, _ string) error {
			if op == failOp && cat == failCat {
				*injected = true
				return boom
			}
			return nil
		})
		return injected
	}
	cats := []simdisk.Category{simdisk.Data, simdisk.Manifest, simdisk.FileManifest, simdisk.Hook}
	for name, build := range builders(t) {
		for _, failCat := range cats {
			eng := build()
			injected := failOn(eng.Disk(), simdisk.OpCreate, failCat)
			err := eng.PutFile("x", bytes.NewReader(content))
			if err == nil {
				err = eng.Finish()
			}
			// Fingerdiff and ExtremeBinning index in RAM and create no hooks;
			// every engine creates the other three.
			if !*injected && failCat != simdisk.Hook {
				t.Errorf("%s never created a %v object", name, failCat)
			}
			if *injected != errors.Is(err, boom) {
				t.Errorf("%s with create/%v failure (injected = %v): error = %v, want injected failure",
					name, failCat, *injected, err)
			}
		}

		// A read fault while a second, duplicate file is ingested: whichever
		// detection object the engine goes back to disk for (a hook, a
		// manifest, or neither) must fail the ingest, never be answered "not
		// a duplicate" — that stores the data again and under-reports DER.
		for _, failCat := range []simdisk.Category{simdisk.Hook, simdisk.Manifest} {
			eng := build()
			if err := eng.PutFile("x", bytes.NewReader(content)); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			injected := failOn(eng.Disk(), simdisk.OpRead, failCat)
			err := eng.PutFile("y", bytes.NewReader(content))
			if *injected != errors.Is(err, boom) {
				t.Errorf("%s with read/%v failure on a duplicate file (injected = %v): error = %v, want injected failure",
					name, failCat, *injected, err)
			}
		}
	}
}
