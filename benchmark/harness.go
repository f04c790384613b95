package main

import (
	"bytes"
	"crypto/sha1"
	"fmt"
	"math"
	"runtime"
	rtmetrics "runtime/metrics"
	"syscall"
	"time"

	"mhdedup/dedup"
	"mhdedup/internal/metrics"
	"mhdedup/internal/simdisk"
)

// harness is the state one invocation shares between its repetitions.
type harness struct {
	cfg config
	wl  workload
	// tmp is the scratch directory (under cfg.outDir) for durable stores
	// and the WAL replay.
	tmp string
}

// engineOptions are the engine settings every workload uses.
func engineOptions(in *input) dedup.Options {
	return dedup.Options{ECS: 4096, SD: 64, RecipeTrees: true,
		ExpectedInputBytes: in.bytes, BloomBytes: bloomBytes(in.bytes)}
}

// span is one benchmark→layer call of the traced repetition.
type span struct {
	ID      int    `json:"id"`
	Name    string `json:"name"`
	Parent  int    `json:"parent"` // 0 for a root span
	Op      string `json:"op,omitempty"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps the spans of one repetition in memory. A nil tracer is
// tracing switched off: every method is a no-op, so measured and traced
// repetitions run the same code.
type tracer struct {
	t0    time.Time
	spans []span
}

// open starts a span whose end is not known yet and returns its id.
func (t *tracer) open(name string, parent int, op string) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Name: name, Parent: parent, Op: op,
		StartNS: time.Since(t.t0).Nanoseconds()})
	return len(t.spans)
}

func (t *tracer) close(id int) {
	if t != nil {
		t.spans[id-1].EndNS = time.Since(t.t0).Nanoseconds()
	}
}

// add records a finished call the caller timed itself.
func (t *tracer) add(name string, parent int, op string, start time.Time, d time.Duration) {
	if t == nil {
		return
	}
	s := start.Sub(t.t0).Nanoseconds()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Name: name, Parent: parent, Op: op,
		StartNS: s, EndNS: s + d.Nanoseconds()})
}

// The calibration kernel: stdlib SHA-1 and copy over fixed buffers, so no
// change to this repository can move it. calRefSHA1 and calRefCopy are the
// rates (MiB/s) of the reference machine the end-to-end timings are
// reported for; they are about what the sandbox this benchmark was written
// on does in a quiet minute, so reported and raw numbers stay close there.
const (
	calBufBytes  = 8 << 20
	calSHA1Bytes = 3 * calBufBytes
	calCopyBytes = 64 * calBufBytes
	calRefSHA1   = 800.0
	calRefCopy   = 22000.0
)

var calSrc, calDst = make([]byte, calBufBytes), make([]byte, calBufBytes)

// machineSpeed runs the calibration kernel (≈50 ms at work 1; the smoke
// test runs a fraction of it) and returns how fast this machine is right
// now relative to the reference machine: the geometric mean of its SHA-1
// and copy rates over the reference rates.
//
// Why it exists: on a shared 2-vCPU sandbox the same binary on the same
// input runs up to 25 % faster or slower for minutes at a time (every
// metric of a run moves together, and so does this kernel). Wall-clock
// durations of the end-to-end metrics are therefore multiplied by the
// speed measured around them (scaleToReference), which turns "seconds on
// this machine this minute" into "seconds on the reference machine". Raw
// values are kept beside them (raw.* in the result file) and the factor
// is reported as bench.machine_speed.
func machineSpeed(work float64) float64 {
	pass := func(total float64, f func(n int)) float64 {
		todo := int(total * work)
		t0 := time.Now()
		for done := 0; done < todo; done += calBufBytes {
			f(min(calBufBytes, todo-done))
		}
		return mbPerS(int64(todo), time.Since(t0).Seconds())
	}
	shaRate := pass(calSHA1Bytes, func(n int) { sha1.Sum(calSrc[:n]) })
	copyRate := pass(calCopyBytes, func(n int) { copy(calDst[:n], calSrc) })
	return math.Sqrt(shaRate / calRefSHA1 * copyRate / calRefCopy)
}

// rep is what one repetition measured.
type rep struct {
	// v holds per-repetition scalars under their metric names (plus a few
	// invariant-only values such as cluster.files).
	v map[string]float64
	// samples holds the latency of each put and seek in milliseconds, in
	// the order the repetition ran them.
	samples map[string][]float64
	// attempted and failed count puts, full restores and ranged restores.
	attempted, failed int
	// problems describes each failed operation.
	problems []string
	// speeds are the machine speeds measured at the repetition's phase
	// boundaries; calWork sizes the kernel that measures them.
	speeds  []float64
	calWork float64
	// keep is what the leaf replays of a traced run need.
	keep *kept
}

// kept is what the leaf replays need from a finished repetition.
type kept struct {
	dataSizes []int64 // sizes of the store's Data objects
	walSizes  []int64 // sizes of all the store's objects, shuffled: the WAL replay's records
	walSyncs  int     // group commits the run made
	hooks     int64   // hook objects the store holds
}

func (h *harness) newRep() *rep {
	r := &rep{v: map[string]float64{}, samples: map[string][]float64{}, calWork: h.work()}
	r.calibrate()
	return r
}

// calibrate measures the machine speed at a phase boundary.
func (r *rep) calibrate() { r.speeds = append(r.speeds, machineSpeed(r.calWork)) }

// work is the share of the full-size calibration kernel and of the ranged
// restores that a run at this scale does.
func (h *harness) work() float64 { return min(h.cfg.scale, 1) }

// ranges is the number of measured ranged restores of a repetition.
func (h *harness) ranges() int { return max(int(float64(h.wl.ranges)*h.work()), 20) }

// throughput records a phase's raw MiB/s under raw.name; scaleToReference
// derives the reported value from it.
func (r *rep) throughput(name string, bytes int64, secs float64) {
	r.v["raw."+name] = mbPerS(bytes, secs)
}

// scaleToReference turns the repetition's wall-clock timings into timings
// on the reference machine: durations are multiplied by the mean of the
// machine speeds measured at the repetition's phase boundaries (a
// repetition lasts a few seconds; the machine changes pace over tens).
func (r *rep) scaleToReference() {
	var speed float64
	for _, s := range r.speeds {
		speed += s / float64(len(r.speeds))
	}
	r.v["bench.machine_speed"] = speed
	for _, name := range []string{"ingest_mb_s", "restore_mb_s", "restore_verified_mb_s"} {
		r.v[name] = r.v["raw."+name] / speed
	}
	for _, name := range []string{"put", "range"} {
		r.v["raw."+name+"_p50_ms"] = quantile(r.samples[name], 0.5)
		for i := range r.samples[name] {
			r.samples[name][i] *= speed
		}
	}
}

// fail records one failed or mismatching operation.
func (r *rep) fail(format string, args ...any) {
	r.failed++
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// capture is the writer every restore goes into: a preallocated, already
// touched buffer, so a restore's timer never pays for growing it.
type capture struct{ buf []byte }

func newCapture(n int) *capture {
	c := &capture{buf: make([]byte, n)}
	for i := 0; i < n; i += 4096 {
		c.buf[i] = 1
	}
	c.buf = c.buf[:0]
	return c
}

func (c *capture) Write(p []byte) (int, error) {
	c.buf = append(c.buf, p...)
	return len(p), nil
}

func (c *capture) reset() { c.buf = c.buf[:0] }

// check compares what a restore wrote with the input it should equal,
// after the clock has stopped.
func (r *rep) check(c *capture, want []byte, what string, err error) {
	r.attempted++
	switch {
	case err != nil:
		r.fail("%s: %v", what, err)
	case !bytes.Equal(c.buf, want):
		r.fail("%s: restored %d bytes that differ from the %d put", what, len(c.buf), len(want))
	}
}

// procStats is the process accounting the harness reads around a phase.
type procStats struct {
	wall            time.Time
	user, sys       float64
	minflt          int64
	maxRSSKiB       int64
	allocBytes      uint64
	mallocs         uint64
	gcCPU, totalCPU float64
}

func readProc() procStats {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	samples := []rtmetrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	rtmetrics.Read(samples)
	p := procStats{
		wall:       time.Now(),
		user:       time.Duration(ru.Utime.Nano()).Seconds(),
		sys:        time.Duration(ru.Stime.Nano()).Seconds(),
		minflt:     ru.Minflt,
		maxRSSKiB:  ru.Maxrss,
		allocBytes: ms.TotalAlloc,
		mallocs:    ms.Mallocs,
	}
	if samples[0].Value.Kind() == rtmetrics.KindFloat64 {
		p.gcCPU = samples[0].Value.Float64()
	}
	if samples[1].Value.Kind() == rtmetrics.KindFloat64 {
		p.totalCPU = samples[1].Value.Float64()
	}
	return p
}

// benchMetrics fills the harness's own accounting of the phase between
// two readings (the ingest phase of a repetition).
func (r *rep) benchMetrics(a, b procStats, userBytes int64) {
	wall := b.wall.Sub(a.wall).Seconds()
	r.v["bench.user_cpu_s_per_gib"] = ratio(b.user-a.user, float64(userBytes)/(1<<30))
	r.v["bench.sys_cpu_s"] = b.sys - a.sys
	r.v["bench.minor_faults"] = float64(b.minflt - a.minflt)
	r.v["bench.alloc_bytes_per_user_byte"] = ratio(float64(b.allocBytes-a.allocBytes), float64(userBytes))
	r.v["bench.mallocs_per_user_mib"] = ratio(float64(b.mallocs-a.mallocs), float64(userBytes)/mib)
	r.v["bench.gc_cpu_frac"] = ratio(b.gcCPU-a.gcCPU, b.totalCPU-a.totalCPU)
	r.v["bench.peak_rss_mb"] = float64(b.maxRSSKiB) / 1024
	r.v["cluster.idle_frac"] = 1 - ratio((b.user-a.user)+(b.sys-a.sys), wall*float64(runtime.GOMAXPROCS(0)))
}

// histMark remembers the sums of the Default registry's latency
// histograms, which every engine in the process records into.
type histMark map[string]int64

var defaultHists = map[string]string{
	"core.chunk_hash_s":       "core.chunk_ns",
	"core.lookup_s":           "core.lookup_ns",
	"core.hook_probe_s":       "core.hook_probe_ns",
	"core.manifest_load_s":    "core.manifest_load_ns",
	"store.container_write_s": "store.container_write_ns",
	"store.container_read_s":  "store.container_read_ns",
}

func markHists() histMark {
	m := histMark{}
	for _, h := range defaultHists {
		m[h] = metrics.GetHistogram(h).Snapshot().Sum
	}
	return m
}

// since writes the seconds each histogram gained since the mark.
func (m histMark) since(r *rep, names ...string) {
	for _, name := range names {
		h := defaultHists[name]
		r.v[name] = float64(metrics.GetHistogram(h).Snapshot().Sum-m[h]) / 1e9
	}
}

// engineCounts turns the reports of the engines that ingested userBytes
// (one locally, one per shard in the cluster), taken right after ingest,
// into the count metrics of core, hashutil, store and simdisk.
func (r *rep) engineCounts(userBytes int64, engines ...dedup.Engine) {
	var rp dedup.Report
	var recipeBytes, inodes int64
	for _, e := range engines {
		p := e.Report()
		rp.StoredDataBytes += p.StoredDataBytes
		rp.MetadataBytes += p.MetadataBytes
		rp.InputBytes += p.InputBytes
		rp.HashedBytes += p.HashedBytes
		rp.ChunksIn += p.ChunksIn
		rp.DupChunks += p.DupChunks
		rp.DupBytes += p.DupBytes
		rp.DupSlices += p.DupSlices
		rp.HHROps += p.HHROps
		rp.HHRDiskAccesses += p.HHRDiskAccesses
		rp.ManifestLoads += p.ManifestLoads
		rp.HookBytes += p.HookBytes
		rp.ManifestBytes += p.ManifestBytes
		rp.FileManifestBytes += p.FileManifestBytes
		for c := range p.Disk.Creates {
			rp.Disk.Creates[c] += p.Disk.Creates[c]
			rp.Disk.Reads[c] += p.Disk.Reads[c]
			rp.Disk.Writes[c] += p.Disk.Writes[c]
			rp.Disk.ExistsQueries[c] += p.Disk.ExistsQueries[c]
			rp.Disk.Deletes[c] += p.Disk.Deletes[c]
			rp.Disk.BytesRead[c] += p.Disk.BytesRead[c]
			rp.Disk.BytesWritten[c] += p.Disk.BytesWritten[c]
		}
		recipeBytes += e.Disk().BytesStored(simdisk.Recipe)
		inodes += e.Disk().TotalObjects()
	}
	user := float64(userBytes)
	userMiB := user / mib
	// engIn is what the engines were fed: the user bytes once locally,
	// once per replica in the cluster.
	engIn := float64(rp.InputBytes)
	r.v["stored_per_user_byte"] = ratio(float64(rp.StoredDataBytes+rp.MetadataBytes), user)
	r.v["metadata_per_user_byte"] = ratio(float64(rp.MetadataBytes), user)
	r.v["hashutil.hashed_per_input_byte"] = ratio(float64(rp.HashedBytes), engIn)
	r.v["core.chunks_in"] = float64(rp.ChunksIn)
	r.v["core.dup_chunk_frac"] = ratio(float64(rp.DupChunks), float64(rp.ChunksIn))
	r.v["core.dup_byte_frac"] = ratio(float64(rp.DupBytes), engIn)
	r.v["core.dup_slices"] = float64(rp.DupSlices)
	r.v["core.hhr_ops"] = float64(rp.HHROps)
	r.v["core.hhr_disk_accesses"] = float64(rp.HHRDiskAccesses)
	r.v["core.manifest_loads"] = float64(rp.ManifestLoads)
	r.v["store.hook_bytes_per_user_mib"] = ratio(float64(rp.HookBytes), userMiB)
	r.v["store.manifest_bytes_per_user_mib"] = ratio(float64(rp.ManifestBytes), userMiB)
	r.v["store.file_manifest_bytes_per_user_mib"] = ratio(float64(rp.FileManifestBytes), userMiB)
	r.v["store.recipe_bytes_per_user_mib"] = ratio(float64(recipeBytes), userMiB)
	d := rp.Disk
	r.v["simdisk.accesses_per_user_mib"] = ratio(float64(d.Accesses()), userMiB)
	r.v["simdisk.creates"] = float64(d.Creates.Total())
	r.v["simdisk.reads"] = float64(d.Reads.Total())
	r.v["simdisk.bytes_written_per_user_byte"] = ratio(float64(d.BytesWritten.Total()), user)
	r.v["simdisk.bytes_read_per_user_byte"] = ratio(float64(d.BytesRead.Total()), user)
	r.v["simdisk.inodes_per_user_mib"] = ratio(float64(inodes), userMiB)
}
