// Quickstart: the lifecycle a backup tool needs, on two nearly identical
// byte streams — deduplicate the first with MHD and save the store, resume
// it (a new process, conceptually) to append the second against everything
// already stored, then reopen the archive read-only and restore both through
// the verifying path, which re-hashes every byte it serves against its
// content address.
//
//	go run ./examples/quickstart
package main

import (
	"bytes"
	"fmt"
	"io"
	"log"
	"math/rand"
	"os"
	"path/filepath"

	"mhdedup/dedup"
)

func main() {
	dir, err := os.MkdirTemp("", "mhdedup-quickstart-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	if err := run(os.Stdout, filepath.Join(dir, "store")); err != nil {
		log.Fatal(err)
	}
}

func run(out io.Writer, storeDir string) error {
	// Two 1 MiB "backups": the second is the first with a 20 KiB edit in
	// the middle — the bread-and-butter case for deduplication.
	gen1 := make([]byte, 1<<20)
	rand.New(rand.NewSource(42)).Read(gen1)
	gen2 := append([]byte(nil), gen1...)
	rand.New(rand.NewSource(43)).Read(gen2[500_000 : 500_000+20_000])
	opts := dedup.Options{
		ECS: 4096, // expected chunk size
		SD:  16,   // sample distance: 1 hook per 16 chunks, rest merged
	}

	// Session 1: ingest day 1, save the store, exit.
	eng, err := dedup.New(dedup.MHD, opts)
	if err != nil {
		return err
	}
	if err := put(eng, "backup-day1", gen1, storeDir); err != nil {
		return err
	}
	fmt.Fprintf(out, "session 1:      stored %d bytes, saved the store\n", eng.Report().StoredDataBytes)

	// Session 2: resume the saved store and append day 2.
	eng, err = dedup.Resume(dedup.MHD, opts, storeDir)
	if err != nil {
		return err
	}
	if err := put(eng, "backup-day2", gen2, storeDir); err != nil {
		return err
	}
	rep := eng.Report()
	fmt.Fprintf(out, "session 2:      %d of %d bytes were duplicates of day 1, in %d slices; stored %d\n",
		rep.DupBytes, rep.InputBytes, rep.DupSlices, rep.StoredDataBytes)
	fmt.Fprintf(out, "data-only DER:  %.2f (day 2's bytes over the data they added)\n", rep.DataOnlyDER())
	fmt.Fprintf(out, "real DER:       %.2f (metadata counted against the savings)\n", rep.RealDER())

	// Session 3: restore-only access, every byte verified.
	st, err := dedup.OpenStore(storeDir)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "archive holds:  %v\n", st.Files())
	for name, want := range map[string][]byte{"backup-day1": gen1, "backup-day2": gen2} {
		var got bytes.Buffer
		if err := st.VerifyRestore(name, &got); err != nil {
			return err
		}
		if !bytes.Equal(got.Bytes(), want) {
			return fmt.Errorf("%s restored differently", name)
		}
	}
	fmt.Fprintln(out, "restore:        both days rebuilt byte-identically, verified")
	return nil
}

// put ingests one file and saves the store to dir.
func put(eng dedup.Engine, name string, data []byte, dir string) error {
	if err := eng.PutFile(name, bytes.NewReader(data)); err != nil {
		return err
	}
	if err := eng.Finish(); err != nil {
		return err
	}
	return dedup.SaveStore(eng, dir)
}
