// Command dedup runs one deduplication engine over an input — either a
// directory of real files or a synthetic disk-image backup workload — and
// prints the paper's metrics for the run.
//
// Examples:
//
//	dedup -algo mhd -ecs 4096 -sd 64 -dir /path/to/files
//	dedup -algo subchunk -workload -machines 4 -days 5 -snapshot 4194304
//	dedup -algo mhd -workload -verify
//	dedup -algo mhd -workload -machines 8 -parallel 4
//
// -parallel N (MHD and SI-MHD only) ingests up to N backup streams
// concurrently: in workload mode each machine's day-ordered snapshots form
// one stream, in directory mode each file is its own stream. -parallel 1
// (the default) is fully sequential and bit-identical to the serial engine.
//
// -remote host:port backs up over the network to a dedupd server instead
// of a local engine: files are chunked locally, chunk hashes are offered
// to the server, and only the chunk bytes the server has not seen cross
// the wire. -algo/-ecs/-sd must match the server's engine (the handshake
// refuses mismatches). -verify then restores every file back from the
// server and compares byte-for-byte.
//
//	dedup -remote localhost:7444 -dir /path/to/files -verify
package main

import (
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"

	"mhdedup/dedup"
	"mhdedup/internal/client"
	"mhdedup/internal/events"
	"mhdedup/internal/wire"
)

func main() {
	var o runOptions
	flag.StringVar(&o.algo, "algo", "mhd", "algorithm: mhd, si-mhd, cdc, bimodal, subchunk, sparse, fbc, fingerdiff, extremebinning")
	flag.IntVar(&o.ecs, "ecs", 4096, "expected chunk size in bytes")
	flag.IntVar(&o.sd, "sd", 64, "sample distance (hashes)")
	flag.IntVar(&o.cache, "cache", 64, "manifest cache capacity")
	flag.BoolVar(&o.noBloom, "no-bloom", false, "disable the bloom filter")
	flag.IntVar(&o.parallel, "parallel", 1, "ingest up to N backup streams concurrently (mhd/si-mhd only; 1 = serial)")
	flag.StringVar(&o.dir, "dir", "", "deduplicate the files under this directory")
	flag.BoolVar(&o.workload, "workload", false, "deduplicate a synthetic backup workload instead of -dir")
	flag.IntVar(&o.machines, "machines", 4, "workload: number of machines")
	flag.IntVar(&o.days, "days", 5, "workload: days of backups")
	flag.Int64Var(&o.snapshot, "snapshot", 4<<20, "workload: snapshot size in bytes")
	flag.IntVar(&o.edits, "edits", 20, "workload: edits per day")
	flag.Int64Var(&o.editSize, "edit-bytes", 24<<10, "workload: mean edit size")
	flag.Int64Var(&o.seed, "seed", 1, "workload: RNG seed")
	flag.BoolVar(&o.verify, "verify", false, "restore every file and verify it matches the input")
	flag.StringVar(&o.save, "save", "", "persist the deduplicated store to this directory after Finish")
	flag.StringVar(&o.resume, "resume", "", "resume from a store directory previously written with -save")
	flag.StringVar(&o.scrub, "scrub", "", "verify a saved store, quarantine corrupt objects, and exit (no ingest)")
	flag.StringVar(&o.remote, "remote", "", "back up to a dedupd server at host:port instead of a local engine")
	flag.StringVar(&o.tenant, "tenant", "", "tenant name for a multi-tenant server or gateway")
	flag.StringVar(&o.secret, "secret", "", "tenant secret (with -tenant)")
	flag.StringVar(&o.logLevel, "log-level", "warn", "structured event log level on stderr: debug, info, warn or error")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "dedup:", err)
		os.Exit(1)
	}
}

// runOptions carries every flag; one struct so tests can name the fields
// they care about instead of threading fifteen positional arguments.
type runOptions struct {
	algo     string
	ecs      int
	sd       int
	cache    int
	noBloom  bool
	parallel int
	dir      string
	workload bool
	machines int
	days     int
	snapshot int64
	edits    int
	editSize int64
	seed     int64
	verify   bool
	save     string
	resume   string
	scrub    string
	remote   string
	tenant   string
	secret   string
	logLevel string
}

// runScrub is the maintenance path: run crash recovery on a saved store,
// verify every container against the content addresses its manifests vouch
// for, quarantine persistently damaged objects under <dir>/quarantine/, and
// persist the cleaned store. Exits non-zero when corruption was found, so
// scripted backups notice.
func runScrub(dir string) error {
	rec, err := dedup.RecoverStore(dir)
	if err != nil {
		return err
	}
	if len(rec.RolledBack) > 0 || rec.RepairedMarker {
		fmt.Printf("recovery       rolled back %v (marker repaired: %v), mounted generation %d\n",
			rec.RolledBack, rec.RepairedMarker, rec.Generation)
	}
	st, err := dedup.OpenStore(dir)
	if err != nil {
		return err
	}
	rep, err := st.Scrub(dedup.VerifyOpts{})
	if err != nil {
		return err
	}
	fmt.Printf("scrub          %d containers checked, %d entries verified\n",
		rep.ContainersChecked, rep.EntriesVerified)
	for _, m := range rep.Corrupt {
		fmt.Println("CORRUPT:", m.String())
	}
	for _, name := range rep.Unreadable {
		fmt.Println("UNREADABLE: container", name)
	}
	for _, name := range rep.BadManifests {
		fmt.Println("BAD MANIFEST:", name)
	}
	for _, f := range rep.AffectedFiles {
		fmt.Println("file lost data:", f)
	}
	if rep.OK() {
		fmt.Println("scrub          store is clean")
		return nil
	}
	if err := st.Save(dir); err != nil {
		return err
	}
	return fmt.Errorf("scrub quarantined %d objects into %s; %d files lost data",
		len(rep.Quarantined), filepath.Join(dir, "quarantine"), len(rep.AffectedFiles))
}

func run(o runOptions) error {
	if o.scrub != "" {
		return runScrub(o.scrub)
	}
	if o.remote != "" {
		return runRemote(o)
	}
	if o.parallel < 1 {
		return fmt.Errorf("-parallel must be at least 1, got %d", o.parallel)
	}
	opts := dedup.Options{
		ECS:            o.ecs,
		SD:             o.sd,
		CacheManifests: o.cache,
		DisableBloom:   o.noBloom,
	}
	var eng dedup.Engine
	var err error
	if o.resume != "" {
		eng, err = dedup.Resume(dedup.Algorithm(o.algo), opts, o.resume)
	} else {
		eng, err = dedup.New(dedup.Algorithm(o.algo), opts)
	}
	if err != nil {
		return err
	}

	streams, verifySource, err := buildStreams(o)
	if err != nil {
		return err
	}

	if err := dedup.IngestParallel(eng, o.parallel, streams); err != nil {
		return err
	}
	if err := eng.Finish(); err != nil {
		return err
	}

	rep := eng.Report()
	fmt.Printf("algorithm      %s (ECS=%d SD=%d parallel=%d)\n", o.algo, o.ecs, o.sd, o.parallel)
	fmt.Printf("files          %d (%d stored)\n", rep.FilesTotal, rep.Files)
	fmt.Printf("input          %d bytes\n", rep.InputBytes)
	fmt.Printf("stored data    %d bytes\n", rep.StoredDataBytes)
	fmt.Printf("metadata       %d bytes (hooks %d, manifests %d, file manifests %d, inodes %d x 256)\n",
		rep.MetadataBytes, rep.HookBytes, rep.ManifestBytes, rep.FileManifestBytes, rep.InodeCount())
	fmt.Printf("data-only DER  %.4f\n", rep.DataOnlyDER())
	fmt.Printf("real DER       %.4f\n", rep.RealDER())
	fmt.Printf("MetaDataRatio  %.4f%%\n", rep.MetaDataRatio()*100)
	fmt.Printf("DAD            %.0f bytes (L=%d slices)\n", rep.DAD(), rep.DupSlices)
	fmt.Printf("disk accesses  %d (manifest loads %d, HHR %d)\n",
		rep.Disk.Accesses(), rep.ManifestLoads, rep.HHRDiskAccesses)
	fmt.Printf("throughput     %.3f (copy-time / dedup-time, modeled)\n",
		rep.ThroughputRatio(dedup.DefaultCostModel()))
	fmt.Printf("peak RAM       %d bytes\n", rep.RAMBytes)

	if o.verify {
		var n int
		for _, st := range streams {
			for _, it := range st.Items {
				src, err := verifySource(it.Name)
				if err != nil {
					return err
				}
				want, err := io.ReadAll(src)
				if c, ok := src.(io.Closer); ok {
					c.Close()
				}
				if err != nil {
					return err
				}
				var got countingVerifier
				got.want = want
				if err := eng.Restore(it.Name, &got); err != nil {
					return fmt.Errorf("restore %s: %w", it.Name, err)
				}
				if got.failed || got.n != len(want) {
					return fmt.Errorf("verify %s: restored bytes differ from input", it.Name)
				}
				n++
			}
		}
		fmt.Printf("verify         OK (%d files restored byte-identically)\n", n)
	}
	if o.save != "" {
		if err := dedup.SaveStore(eng, o.save); err != nil {
			return err
		}
		fmt.Printf("store          saved to %s\n", o.save)
	}
	return nil
}

// runRemote is the network backup path: chunk locally, negotiate by
// hash, ship only unseen chunk bytes to the dedupd server at o.remote.
func runRemote(o runOptions) error {
	streams, verifySource, err := buildStreams(o)
	if err != nil {
		return err
	}
	level, err := events.ParseLevel(o.logLevel)
	if err != nil {
		return err
	}
	cfg := client.Config{
		Addr:   o.remote,
		Tenant: o.tenant,
		Secret: o.secret,
		Options: wire.EngineOptions{
			Algorithm: o.algo,
			ECS:       uint32(o.ecs),
			SD:        uint32(o.sd),
		},
		Events: events.New(events.Options{Level: level, Out: os.Stderr}),
	}
	ing, err := client.Connect(cfg)
	if err != nil {
		return err
	}
	for _, st := range streams {
		for _, it := range st.Items {
			r, err := it.Open()
			if err != nil {
				ing.Close()
				return err
			}
			putErr := ing.PutFile(it.Name, r)
			r.Close()
			if putErr != nil {
				ing.Close()
				return fmt.Errorf("put %s: %w", it.Name, putErr)
			}
		}
	}
	if err := ing.Close(); err != nil {
		return err
	}
	stats := ing.Stats()
	fmt.Printf("remote         %s (%s ECS=%d SD=%d)\n", o.remote, o.algo, o.ecs, o.sd)
	fmt.Printf("files sent     %d\n", stats.FilesSent)
	fmt.Printf("input          %d bytes\n", stats.InputBytes)
	fmt.Printf("chunks         %d offered, %d sent (%d bytes)\n",
		stats.ChunksOffered, stats.ChunksSent, stats.ChunkBytesSent)
	fmt.Printf("wire           %d bytes out, %d bytes in\n", stats.WireBytesOut, stats.WireBytesIn)
	if stats.InputBytes > 0 {
		fmt.Printf("wire ratio     %.2f%% of raw input crossed the wire\n",
			float64(stats.WireBytesOut)*100/float64(stats.InputBytes))
	}
	if stats.Reconnects > 0 {
		fmt.Printf("reconnects     %d (session resumed)\n", stats.Reconnects)
	}

	if o.verify {
		var n int
		for _, st := range streams {
			for _, it := range st.Items {
				src, err := verifySource(it.Name)
				if err != nil {
					return err
				}
				want, err := io.ReadAll(src)
				if c, ok := src.(io.Closer); ok {
					c.Close()
				}
				if err != nil {
					return err
				}
				var got countingVerifier
				got.want = want
				if _, err := client.Restore(cfg, it.Name, true, &got); err != nil {
					return fmt.Errorf("remote restore %s: %w", it.Name, err)
				}
				if got.failed || got.n != len(want) {
					return fmt.Errorf("verify %s: restored bytes differ from input", it.Name)
				}
				n++
			}
		}
		fmt.Printf("verify         OK (%d files restored byte-identically from the server)\n", n)
	}
	return nil
}

// buildStreams maps the input source onto ingest streams. Workload mode
// groups each machine's day-ordered snapshots into one stream (the natural
// backup-stream boundary: order matters within a machine's history, not
// across machines). Directory mode makes each file its own stream, sorted
// by name — independent files have no cross-file ordering requirement.
func buildStreams(o runOptions) ([]dedup.IngestStream, func(string) (io.Reader, error), error) {
	switch {
	case o.workload:
		cfg := dedup.DefaultWorkloadConfig()
		cfg.Machines = o.machines
		cfg.Days = o.days
		cfg.SnapshotBytes = o.snapshot
		cfg.EditsPerDay = o.edits
		cfg.EditBytes = o.editSize
		cfg.Seed = o.seed
		w, err := dedup.NewWorkload(cfg)
		if err != nil {
			return nil, nil, err
		}
		byMachine := make(map[int]*dedup.IngestStream)
		var order []int
		for _, f := range w.Files() {
			name := f.Name
			st, ok := byMachine[f.Machine]
			if !ok {
				st = &dedup.IngestStream{Name: fmt.Sprintf("machine-%d", f.Machine)}
				byMachine[f.Machine] = st
				order = append(order, f.Machine)
			}
			st.Items = append(st.Items, dedup.IngestItem{
				Name: name,
				Open: func() (io.ReadCloser, error) {
					r, err := w.Open(name)
					if err != nil {
						return nil, err
					}
					return io.NopCloser(r), nil
				},
			})
		}
		streams := make([]dedup.IngestStream, 0, len(order))
		for _, m := range order {
			streams = append(streams, *byMachine[m])
		}
		return streams, w.Open, nil
	case o.dir != "":
		var streams []dedup.IngestStream
		err := filepath.WalkDir(o.dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			rel, err := filepath.Rel(o.dir, path)
			if err != nil {
				return err
			}
			streams = append(streams, dedup.IngestStream{
				Name: rel,
				Items: []dedup.IngestItem{{
					Name: rel,
					Open: func() (io.ReadCloser, error) { return os.Open(path) },
				}},
			})
			return nil
		})
		if err != nil {
			return nil, nil, err
		}
		sort.Slice(streams, func(i, j int) bool { return streams[i].Name < streams[j].Name })
		verifySource := func(name string) (io.Reader, error) {
			return os.Open(filepath.Join(o.dir, name))
		}
		return streams, verifySource, nil
	default:
		return nil, nil, fmt.Errorf("either -dir or -workload is required")
	}
}

// countingVerifier compares written bytes against want without buffering a
// second copy.
type countingVerifier struct {
	want   []byte
	n      int
	failed bool
}

func (v *countingVerifier) Write(p []byte) (int, error) {
	if v.n+len(p) > len(v.want) {
		v.failed = true
	} else {
		for i, b := range p {
			if v.want[v.n+i] != b {
				v.failed = true
				break
			}
		}
	}
	v.n += len(p)
	return len(p), nil
}
