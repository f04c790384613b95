// Command restore rebuilds files from a deduplicated store previously
// saved with `dedup -save <dir>` (or dedup.SaveStore).
//
// Examples:
//
//	restore -store /tmp/store -list
//	restore -store /tmp/store -file m00/d01 -out /tmp/m00-d01.img
//	restore -store /tmp/store -all -out /tmp/restored/
//	restore -store /tmp/store -all -out /tmp/restored/ -verify
//	restore -store /tmp/store -scrub
//	restore -store /tmp/store -file m00/d01 -offset 1048576 -length 4096 -out /tmp/slice.bin
//	restore -remote localhost:7444 -list
//	restore -remote localhost:7444 -file m00/d01 -out /tmp/m00-d01.img -verify
//
// -remote host:port restores from a running dedupd server instead of a
// local store directory: -list, -file and -all work the same; with
// -verify the server rebuilds through its verifying path and the client
// additionally checks the received stream against the server's declared
// whole-file hash. Maintenance operations (-check, -scrub, -delete, -gc)
// are local-only.
//
// Opening a store runs crash recovery first: if a previous save was
// interrupted, its partial generation is rolled back and the last
// consistent one is mounted. With -verify every chunk is re-hashed against
// the content address its manifest vouches for before a byte is written,
// so corrupt stores fail loudly instead of producing corrupt output. Output
// files are written atomically (to <name>.tmp, renamed into place on
// success), so an interrupted or failed restore never leaves a truncated
// file that looks complete. -all writes each file at its stored name under
// -out; a name that would land outside -out ("../x") is reported FAILED and
// not written. -scrub verifies the whole store, quarantines
// objects with persistent damage under <store>/quarantine/, saves the
// cleaned store back, and then exits non-zero if it quarantined anything,
// after any -list, -file or -all of the same run.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"mhdedup/dedup"
	"mhdedup/internal/client"
	"mhdedup/internal/events"
)

func main() {
	var o restoreOptions
	flag.StringVar(&o.storeDir, "store", "", "directory written by dedup -save (required)")
	flag.BoolVar(&o.list, "list", false, "list restorable files")
	flag.StringVar(&o.file, "file", "", "file to restore")
	flag.BoolVar(&o.all, "all", false, "restore every file")
	flag.StringVar(&o.out, "out", "", "output file (-file) or directory (-all)")
	flag.BoolVar(&o.check, "check", false, "run a consistency check of the store (fsck)")
	flag.BoolVar(&o.verify, "verify", false, "re-hash every chunk against its content address while restoring")
	flag.BoolVar(&o.scrub, "scrub", false, "verify the whole store and quarantine corrupt objects")
	flag.StringVar(&o.del, "delete", "", "delete a file's recipe from the store")
	flag.BoolVar(&o.gc, "gc", false, "reclaim unreferenced containers after deletions")
	flag.Int64Var(&o.offset, "offset", 0, "with -file: restore starting at this byte offset")
	flag.Int64Var(&o.length, "length", -1, "with -file: restore this many bytes (<= 0 means to end of file; ranges past EOF are clamped)")
	flag.StringVar(&o.remote, "remote", "", "restore from a dedupd server at host:port instead of -store")
	flag.StringVar(&o.tenant, "tenant", "", "tenant name for a multi-tenant server or gateway")
	flag.StringVar(&o.secret, "secret", "", "tenant secret (with -tenant)")
	flag.StringVar(&o.logLevel, "log-level", "warn", "structured event log level on stderr: debug, info, warn or error")
	flag.Parse()
	if err := run(o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "restore:", err)
		os.Exit(1)
	}
}

// restoreOptions carries every flag; one struct so tests can name the
// fields they care about.
type restoreOptions struct {
	storeDir string
	list     bool
	file     string
	all      bool
	out      string
	check    bool
	verify   bool
	scrub    bool
	del      string
	gc       bool
	offset   int64
	length   int64
	remote   string
	tenant   string
	secret   string
	logLevel string
}

// ranged reports whether the user asked for a byte range. Offset 0 with a
// non-positive length — the zero value and the flag defaults — means the
// whole file and takes the ordinary path; the library layer's "length 0 =
// zero bytes" precision is not reachable from this CLI.
func (o restoreOptions) ranged() bool { return o.offset != 0 || o.length > 0 }

func run(o restoreOptions, w io.Writer) (err error) {
	if o.remote != "" {
		return runRemote(o, w)
	}
	if o.storeDir == "" {
		return fmt.Errorf("-store or -remote is required")
	}
	st, err := dedup.OpenStore(o.storeDir)
	if err != nil {
		return err
	}

	if o.scrub {
		damage, scrubErr := runScrub(st, o.storeDir, w)
		if scrubErr != nil {
			return scrubErr
		}
		if !o.list && o.file == "" && !o.all {
			return damage
		}
		// What the scrub quarantined fails the run once the rest has run.
		defer func() { err = errors.Join(err, damage) }()
	}
	if o.del != "" || o.gc {
		if o.del != "" {
			if err := st.Delete(o.del); err != nil {
				return err
			}
			fmt.Fprintf(w, "deleted %s\n", o.del)
		}
		if o.gc {
			stats, err := st.Sweep()
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "gc: reclaimed %d containers (%d bytes), %d manifests, %d hooks\n",
				stats.ContainersDeleted, stats.BytesReclaimed, stats.ManifestsDeleted, stats.HooksDeleted)
		}
		// Persist the post-GC store: SaveDir commits a new generation
		// atomically, so a crash here loses nothing.
		return st.Save(o.storeDir)
	}
	if o.check {
		problems := st.Check()
		if len(problems) == 0 {
			fmt.Fprintln(w, "store is consistent")
		} else {
			for _, p := range problems {
				fmt.Fprintln(w, "PROBLEM:", p)
			}
			return fmt.Errorf("%d problems found", len(problems))
		}
		if !o.list && o.file == "" && !o.all {
			return nil
		}
	}

	restore := st.Restore
	if o.verify {
		restore = st.VerifyRestore
	}
	if o.ranged() {
		restore = func(name string, dst io.Writer) error {
			rr := st.RestoreRange
			if o.verify {
				rr = st.VerifyRestoreRange
			}
			stats, err := rr(name, o.offset, o.length, dst)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "range [%d, %d): %d bytes, %d recipe reads\n",
				stats.Offset, stats.Offset+stats.Length, stats.Length, stats.RecipeReads)
			return nil
		}
	}
	return serve(o, w, func() ([]string, error) { return st.Files(), nil }, restore,
		"one of -list, -file, -all, -check, -scrub, -delete or -gc is required")
}

// runRemote serves -list, -file and -all from a dedupd server over the
// wire protocol. The received stream is always checked against the
// server's declared size and whole-file hash; -verify additionally makes
// the server rebuild through its verifying store path.
func runRemote(o restoreOptions, w io.Writer) error {
	if o.check || o.scrub || o.del != "" || o.gc {
		return fmt.Errorf("-check, -scrub, -delete and -gc operate on a local -store, not -remote")
	}
	level, err := events.ParseLevel(o.logLevel)
	if err != nil {
		return err
	}
	cfg := client.Config{
		Addr:   o.remote,
		Tenant: o.tenant,
		Secret: o.secret,
		Events: events.New(events.Options{Level: level, Out: os.Stderr}),
	}
	restore := func(name string, dst io.Writer) error {
		_, err := client.Restore(cfg, name, o.verify, dst)
		return err
	}
	if o.ranged() {
		restore = func(name string, dst io.Writer) error {
			res, err := client.RestoreRange(cfg, name, o.verify, o.offset, o.length, dst)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "range from %d: %d bytes\n", o.offset, res.Bytes)
			return nil
		}
	}
	// The server happens to sort its List response, but a third-party
	// dedupd need not: sort client-side too, so -list output and the
	// -all iteration order (and therefore its summary and any
	// differential comparison over it) are deterministic regardless of
	// what the wire delivered.
	listSorted := func() ([]string, error) {
		names, err := client.List(cfg)
		if err != nil {
			return nil, err
		}
		sort.Strings(names)
		return names, nil
	}
	return serve(o, w, listSorted, restore, "one of -list, -file or -all is required with -remote")
}

// serve runs -list, -all or -file over a store's listing and restore
// function, local or remote alike; usage is the error for none of them.
func serve(o restoreOptions, w io.Writer, list func() ([]string, error), restore func(string, io.Writer) error, usage string) error {
	if o.ranged() && o.file == "" {
		return fmt.Errorf("-offset/-length require -file")
	}
	switch {
	case o.list:
		names, err := list()
		if err != nil {
			return err
		}
		for _, name := range names {
			fmt.Fprintln(w, name)
		}
		return nil
	case o.all:
		return restoreAll(w, o.out, list, restore)
	case o.file != "":
		if o.out == "" {
			return fmt.Errorf("-file requires -out path")
		}
		if err := restoreTo(restore, o.file, o.out); err != nil {
			return err
		}
		fmt.Fprintf(w, "restored %s to %s\n", o.file, o.out)
		return nil
	}
	return errors.New(usage)
}

// restoreAll restores every listed file under dir, continuing past per-file
// failures: one bad container must not hold the rest of the archive
// hostage. Each outcome is reported; any failure makes the run exit
// non-zero. A name is the store's — or, with -remote, the server's — so one
// whose output path would not lie strictly under dir ("../../x", "a/..")
// fails without a byte written.
func restoreAll(w io.Writer, dir string, list func() ([]string, error), restore func(string, io.Writer) error) error {
	if dir == "" {
		return fmt.Errorf("-all requires -out directory")
	}
	names, err := list()
	if err != nil {
		return err
	}
	var ok, failed int
	for _, name := range names {
		path := filepath.Join(dir, filepath.FromSlash(strings.ReplaceAll(name, ":", "_")))
		rel, err := filepath.Rel(dir, path)
		if err != nil || rel == "." || !filepath.IsLocal(rel) {
			err = fmt.Errorf("output path %s does not lie under %s", path, dir)
		} else {
			err = restoreTo(restore, name, path)
		}
		if err != nil {
			fmt.Fprintf(w, "FAILED   %s: %v\n", name, err)
			failed++
			continue
		}
		fmt.Fprintf(w, "restored %s\n", name)
		ok++
	}
	fmt.Fprintf(w, "%d restored, %d failed\n", ok, failed)
	if failed > 0 {
		return fmt.Errorf("%d of %d files failed to restore", failed, ok+failed)
	}
	return nil
}

// runScrub verifies every container of the store, quarantines persistently
// damaged objects, reports, and persists the scrubbed store. damage is
// non-nil when anything was quarantined, so the run exits non-zero and
// scripted backups notice; err is a scrub or save that failed.
func runScrub(st *dedup.Store, dir string, w io.Writer) (damage, err error) {
	rep, err := st.Scrub(dedup.VerifyOpts{})
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "scrub: %d containers checked, %d entries verified\n",
		rep.ContainersChecked, rep.EntriesVerified)
	for _, m := range rep.Corrupt {
		fmt.Fprintln(w, "CORRUPT:", m.String())
	}
	for _, name := range rep.Unreadable {
		fmt.Fprintf(w, "UNREADABLE: container %s\n", name)
	}
	for _, name := range rep.BadManifests {
		fmt.Fprintf(w, "BAD MANIFEST: %s\n", name)
	}
	for _, q := range rep.Quarantined {
		fmt.Fprintf(w, "quarantined %s\n", q)
	}
	for _, f := range rep.AffectedFiles {
		fmt.Fprintf(w, "file lost data: %s\n", f)
	}
	if rep.OK() {
		fmt.Fprintln(w, "scrub: store is clean")
		return nil, nil
	}
	if err := st.Save(dir); err != nil {
		return nil, err
	}
	return fmt.Errorf("scrub quarantined %d objects into %s; %d files lost data",
		len(rep.Quarantined), filepath.Join(dir, "quarantine"), len(rep.AffectedFiles)), nil
}

// restoreTo writes one restored file atomically: the bytes go to
// <path>.tmp, which is fsynced and renamed into place only after the
// restore completed. On any error the temp file is removed, so a failed or
// interrupted restore never leaves a truncated file under the final name.
func restoreTo(restore func(string, io.Writer) error, name, path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	cleanup := func() {
		f.Close()
		os.Remove(tmp)
	}
	if err := restore(name, f); err != nil {
		cleanup()
		return err
	}
	if err := f.Sync(); err != nil {
		cleanup()
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}
