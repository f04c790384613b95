// Command benchmark is the repo benchmark: it runs one named backup
// workload per invocation, closed loop, one client, and prints every
// metric BENCHMARK.json declares by name with its unit.
//
//	go run ./benchmark -workload gen-local -seed 1
//	go run ./benchmark -workload gen-local -seed 1 -trace 1
//
// Inputs are generated into memory during set-up, so the program under
// test only ever sees readers over bytes; every restored byte is compared
// with what was put. Layers are measured from outside: spans around the
// benchmark's own calls, isolated replays of the leaf layers over the same
// bytes, and the counters and histograms the program already exports. See
// README.md in this directory for the workloads, metrics and how they are
// predicted to interact.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	outDir   string
	scale    float64
}

func main() {
	var cfg config
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: "+strings.Join(names, ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed; the only thing that changes the input")
	flag.Float64Var(&cfg.seconds, "seconds", 15, "keep adding measured repetitions while they fit in this many seconds (never fewer than 3)")
	trace := flag.Int("trace", 0, "1 adds a traced repetition and the leaf replays, writes the span file and reports the per-layer metrics")
	flag.StringVar(&cfg.outDir, "out", "benchmark/out", "directory for result files, span files and scratch stores")
	flag.Float64Var(&cfg.scale, "scale", 1, "input size relative to the benchmark's own; workload invariants are only asserted at 1")
	flag.Parse()
	cfg.trace = *trace != 0

	pinMemoryPolicy()
	res, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

// pinMemoryPolicy re-executes the process with GODEBUG=madvdontneed=0
// unless the caller already chose a policy. With the default policy the
// scavenger hands freed heap back to the kernel between repetitions and
// the next repetition pays a minor fault per page to get it back, which
// on a small sandbox swings wall-clock by tens of percent between
// identical repetitions while user CPU stays put.
func pinMemoryPolicy() {
	old := os.Getenv("GODEBUG")
	if strings.Contains(old, "madvdontneed=") {
		return
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: cannot pin the memory-return policy:", err)
		return
	}
	v := "madvdontneed=0"
	if old != "" {
		v = old + "," + v
	}
	os.Setenv("GODEBUG", v)
	// Exec replaces this process, so there is no child to wait for.
	err = syscall.Exec(exe, os.Args, os.Environ())
	fmt.Fprintln(os.Stderr, "benchmark: cannot pin the memory-return policy:", err)
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract's last line of standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// document is the result file: the contract line plus what identifies
// and explains the run.
type document struct {
	Workload    string               `json:"workload"`
	Seed        int64                `json:"seed"`
	Scale       float64              `json:"scale"`
	InputSHA1   string               `json:"input_sha1"`
	InputFiles  int                  `json:"input_files"`
	InputBytes  int64                `json:"input_bytes"`
	GOMAXPROCS  int                  `json:"gomaxprocs"`
	GODEBUG     string               `json:"godebug"`
	Repetitions int                  `json:"repetitions"`
	Operations  map[string]int       `json:"operations"`
	Result      result               `json:"result"`
	EndToEnd    map[string]value     `json:"end_to_end"`
	PerLayer    map[string]value     `json:"per_layer,omitempty"`
	PerRep      map[string][]float64 `json:"per_repetition"`
	Problems    []string             `json:"problems,omitempty"`
	// Claim stays null: the benchmark measures, it claims no gain.
	Claim any `json:"claim"`
}

// maxReps bounds the repetitions of one invocation however many seconds
// it is given.
const maxReps = 12

// run executes one invocation and writes the metric lines and the
// contract line to stdout.
func run(cfg config, stdout io.Writer) (*result, error) {
	wl, ok := findWorkload(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.scale <= 0 {
		return nil, fmt.Errorf("scale must be positive")
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(cfg.outDir, "tmp-"+wl.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	h := &harness{cfg: cfg, wl: wl, tmp: tmp}

	in, setupSecs, err := setUp(wl.traceConfig(cfg.scale, cfg.seed), h.work())
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "benchmark: %s seed %d: %d files, %.1f MiB, input sha1 %s, set-up %.2fs\n",
		wl.name, cfg.seed, len(in.files), float64(in.bytes)/mib, in.sha1, median(setupSecs))

	// Warm-up: one discarded repetition. It is full size because the heap
	// must reach the size a repetition needs before the first measured one:
	// after a quarter-size warm-up the first repetition still paid thousands
	// of first-touch page faults and ingested 3–6 % slower than the rest.
	if _, err := wl.run(h, in, nil); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}

	var reps []*rep
	start := time.Now()
	for len(reps) < maxReps {
		if n := len(reps); n >= 3 {
			perRep := time.Since(start).Seconds() / float64(n)
			if time.Since(start).Seconds()+perRep > cfg.seconds {
				break
			}
		}
		runtime.GC()
		r, err := wl.run(h, in, nil)
		if err != nil {
			return nil, fmt.Errorf("repetition %d: %w", len(reps)+1, err)
		}
		r.scaleToReference()
		reps = append(reps, r)
	}

	doc := &document{
		Workload: wl.name, Seed: cfg.seed, Scale: cfg.scale,
		InputSHA1: in.sha1, InputFiles: len(in.files), InputBytes: in.bytes,
		GOMAXPROCS: runtime.GOMAXPROCS(0), GODEBUG: os.Getenv("GODEBUG"),
		Repetitions: len(reps), Operations: map[string]int{}, PerRep: map[string][]float64{},
	}
	res := &doc.Result
	for _, r := range reps {
		res.Attempted += r.attempted
		res.Failed += r.failed
		doc.Problems = append(doc.Problems, r.problems...)
	}
	doc.Problems = append(doc.Problems, exactMismatches(reps)...)
	if cfg.scale == 1 {
		doc.Problems = append(doc.Problems, brokenInvariants(wl, reps)...)
	}

	e2e := endToEndValues(reps, setupSecs, res)
	doc.EndToEnd = e2e
	for name, s := range reps[0].samples {
		doc.Operations[name] = len(s)
	}
	for name := range reps[0].v {
		for _, r := range reps {
			doc.PerRep[name] = append(doc.PerRep[name], r.v[name])
		}
	}

	if cfg.trace {
		runtime.GC()
		tr := &tracer{t0: time.Now()}
		traced, err := wl.run(h, in, tr)
		if err != nil {
			return nil, fmt.Errorf("traced repetition: %w", err)
		}
		traced.scaleToReference()
		res.Attempted += traced.attempted
		res.Failed += traced.failed
		doc.Problems = append(doc.Problems, traced.problems...)
		if err := h.replayLeaves(traced, tr, in); err != nil {
			return nil, fmt.Errorf("leaf replays: %w", err)
		}
		traced.v["trace.gen_mb_s"] = mbPerS(in.bytes, median(setupSecs))
		traced.v["bench.rep_spread_frac"] = spreadFrac(doc.PerRep["ingest_mb_s"])
		traced.v["bench.trace_overhead_frac"] = 1 - ratio(traced.v["ingest_mb_s"], e2e["ingest_mb_s"].Value)
		doc.PerLayer = map[string]value{}
		for _, m := range perLayer {
			doc.PerLayer[m.name] = value{traced.v[m.name], m.unit}
		}
		if err := writeJSON(filepath.Join(cfg.outDir, "trace-"+wl.name+".json"), tr.spans); err != nil {
			return nil, err
		}
	}

	res.Correct = res.Failed == 0 && len(doc.Problems) == 0
	res.Metrics = doc.EndToEnd
	if cfg.trace {
		res.Metrics = doc.PerLayer
	}
	for _, v := range res.Metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return nil, fmt.Errorf("a metric is not finite: %v", res.Metrics)
		}
	}
	if err := writeJSON(filepath.Join(cfg.outDir, "result-"+wl.name+".json"), doc); err != nil {
		return nil, err
	}

	for _, p := range doc.Problems {
		fmt.Fprintln(os.Stderr, "benchmark: FAILED:", p)
	}
	printTable(stdout, doc)
	line, err := json.Marshal(res)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return res, nil
}

// opLatencies is each operation's latency as the fastest of its
// repetitions (every repetition runs the same operations in the same
// order): what the operation costs when nothing interferes. A cluster seek
// is a dozen goroutine hand-offs and a fresh TCP connection; on the shared
// sandbox its per-repetition p50 moved ±25 % between identical
// repetitions, and so did fsync-bound commits, while the fastest of 3–5
// tries held within a few percent. A change that makes the operation
// slower makes every try slower and shows; jitter does not, and this
// sandbox could not tell it from its own.
func opLatencies(reps []*rep, name string) []float64 {
	out := append([]float64(nil), reps[0].samples[name]...)
	for _, r := range reps[1:] {
		for i, v := range r.samples[name] {
			out[i] = math.Min(out[i], v)
		}
	}
	return out
}

// endToEndValues folds the repetitions into the end-to-end metrics:
// phase timings are the median over repetitions, percentiles are taken
// over the operations' latencies, counts are the (identical) first.
func endToEndValues(reps []*rep, setupSecs []float64, res *result) map[string]value {
	puts, ranges := opLatencies(reps, "put"), opLatencies(reps, "range")
	med := func(name string) float64 {
		var v []float64
		for _, r := range reps {
			v = append(v, r.v[name])
		}
		return median(v)
	}
	vals := map[string]float64{
		"setup_s":                median(setupSecs),
		"ingest_mb_s":            med("ingest_mb_s"),
		"restore_mb_s":           med("restore_mb_s"),
		"restore_verified_mb_s":  med("restore_verified_mb_s"),
		"range_p50_ms":           quantile(ranges, 0.5),
		"put_p50_ms":             quantile(puts, 0.5),
		"put_p90_ms":             quantile(puts, 0.9),
		"stored_per_user_byte":   reps[0].v["stored_per_user_byte"],
		"metadata_per_user_byte": reps[0].v["metadata_per_user_byte"],
		"ok_frac":                1 - ratio(float64(res.Failed), float64(res.Attempted)),
	}
	out := map[string]value{}
	for _, m := range endToEnd {
		out[m.name] = value{vals[m.name], m.unit}
	}
	return out
}

// exactMismatches reports every count that differs between repetitions.
func exactMismatches(reps []*rep) []string {
	var out []string
	for _, name := range exactAcrossReps {
		for i, r := range reps[1:] {
			if r.v[name] != reps[0].v[name] {
				out = append(out, fmt.Sprintf("%s is %v in repetition 1 and %v in repetition %d",
					name, reps[0].v[name], r.v[name], i+2))
				break
			}
		}
	}
	return out
}

// brokenInvariants reports every workload invariant a repetition misses.
func brokenInvariants(wl workload, reps []*rep) []string {
	var out []string
	for _, inv := range wl.invariants {
		for i, r := range reps {
			if v, ok := r.v[inv.metric]; !ok || v < inv.lo || v > inv.hi {
				out = append(out, fmt.Sprintf("invariant of %s: %s = %v in repetition %d, want within [%v, %v]",
					wl.name, inv.metric, v, i+1, inv.lo, inv.hi))
				break
			}
		}
	}
	return out
}

// printTable prints every metric of the run by name with its unit.
func printTable(w io.Writer, doc *document) {
	fmt.Fprintf(w, "workload %s seed %d input_sha1 %s files %d bytes %d repetitions %d\n",
		doc.Workload, doc.Seed, doc.InputSHA1, doc.InputFiles, doc.InputBytes, doc.Repetitions)
	for _, name := range []string{"put", "commit", "range"} {
		if n := doc.Operations[name]; n > 0 {
			fmt.Fprintf(w, "operations %s %d (each the fastest of %d repetitions)\n", name, n, doc.Repetitions)
		}
	}
	for _, m := range endToEnd {
		fmt.Fprintf(w, "%-40s %14.6g %s\n", m.name, doc.EndToEnd[m.name].Value, m.unit)
	}
	if doc.PerLayer != nil {
		for _, m := range perLayer {
			fmt.Fprintf(w, "%-40s %14.6g %s\n", m.name, doc.PerLayer[m.name].Value, m.unit)
		}
		return
	}
	// An untraced run still shows how noisy it was, and what it measured
	// before scaling to the reference machine.
	fmt.Fprintf(w, "%-40s %14.6g %s\n", "bench.rep_spread_frac", spreadFrac(doc.PerRep["ingest_mb_s"]), "ratio")
	for _, name := range []string{"bench.machine_speed", "raw.ingest_mb_s", "raw.restore_mb_s",
		"raw.restore_verified_mb_s", "bench.user_cpu_s_per_gib", "bench.sys_cpu_s", "bench.minor_faults"} {
		fmt.Fprintf(w, "%-40s %14.6g (median of repetitions)\n", name, median(doc.PerRep[name]))
	}
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
