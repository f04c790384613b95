package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// smokeScale makes the inputs about 1/40 of the ISSUE's sizes (sizeFactor
// is 3/8 of them already; the ISSUE asks for 1/32, but the generator's
// extents do not shrink, so the inputs stay 15–30 MB either way and the
// smaller scale keeps all four workloads, untraced and traced, under 20 s
// inside `go test ./...`).
const smokeScale = 1.0 / 16

// TestSmoke runs every workload untraced and traced at smoke scale and
// checks the contract line: exactly the declared metric names with their
// units, every value finite, nothing failed; and that the span file of a
// traced run parses with every span's parent present.
func TestSmoke(t *testing.T) {
	for _, wl := range workloads {
		for _, traced := range []bool{false, true} {
			name := wl.name + "/untraced"
			if traced {
				name = wl.name + "/traced"
			}
			t.Run(name, func(t *testing.T) {
				out := t.TempDir()
				var stdout bytes.Buffer
				res, err := run(config{workload: wl.name, seed: 2, seconds: 0, trace: traced,
					outDir: out, scale: smokeScale}, &stdout)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
				var last result
				if err := json.Unmarshal(lines[len(lines)-1], &last); err != nil {
					t.Fatalf("last line of stdout is not the contract object: %v", err)
				}
				want := endToEnd
				if traced {
					want = perLayer
				}
				if len(last.Metrics) != len(want) {
					t.Errorf("%d metrics reported, %d declared", len(last.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := last.Metrics[m.name]
					switch {
					case !ok:
						t.Errorf("metric %s is declared but not reported", m.name)
					case got.Unit != m.unit:
						t.Errorf("metric %s has unit %q, declared %q", m.name, got.Unit, m.unit)
					case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
						t.Errorf("metric %s is %v", m.name, got.Value)
					case !traced && got.Value <= 0:
						t.Errorf("end-to-end metric %s is %v, want above 0", m.name, got.Value)
					}
				}
				if _, err := os.Stat(filepath.Join(out, "result-"+wl.name+".json")); err != nil {
					t.Error(err)
				}
				if traced {
					checkSpans(t, filepath.Join(out, "trace-"+wl.name+".json"))
				}
			})
		}
	}
}

func checkSpans(t *testing.T, path string) {
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(data, &spans); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if len(spans) == 0 {
		t.Fatalf("%s holds no spans", path)
	}
	ids := map[int]bool{}
	for _, s := range spans {
		ids[s.ID] = true
	}
	for _, s := range spans {
		if s.Parent != 0 && !ids[s.Parent] {
			t.Errorf("span %d (%s) has parent %d, which is not in the file", s.ID, s.Name, s.Parent)
		}
		if s.EndNS < s.StartNS {
			t.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
	}
}

// TestSeedChangesOnlyTheInput pins that the seed reaches the generator and
// nothing else decides the bytes.
func TestSeedChangesOnlyTheInput(t *testing.T) {
	wl := workloads[0]
	a, err := materialise(wl.traceConfig(smokeScale, 1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := materialise(wl.traceConfig(smokeScale, 1))
	if err != nil {
		t.Fatal(err)
	}
	c, err := materialise(wl.traceConfig(smokeScale, 2))
	if err != nil {
		t.Fatal(err)
	}
	if a.sha1 != b.sha1 {
		t.Error("the same seed gave two inputs")
	}
	if a.sha1 == c.sha1 {
		t.Error("two seeds gave the same input")
	}
}

// TestManifestMatches checks that BENCHMARK.json declares exactly the
// workloads and metrics this package reports.
func TestManifestMatches(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var m struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if len(m.Paths) != 1 || m.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", m.Paths)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d implemented", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.name || m.Workloads[i].Why != w.why {
			t.Errorf("workload %d is declared as %q (%q), implemented as %q (%q)",
				i, m.Workloads[i].Name, m.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("the why of %s has %d characters, the contract allows 200", w.name, len(w.why))
		}
	}
	better := func(d metricDef) string {
		if d.higher {
			return "higher"
		}
		return "lower"
	}
	compare := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%d %s metrics declared, %d implemented", len(got), kind, len(want))
			return
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != better(d) {
				t.Errorf("%s metric %d is declared as %s [%s] better %s, implemented as %s [%s] better %s",
					kind, i, g.Name, g.Unit, g.Better, d.name, d.unit, better(d))
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != d.bound) {
				t.Errorf("%s metric %s: bound declared %v, implemented %v", kind, d.name, g.Bound, d.bound)
			}
		}
	}
	compare("end-to-end", m.EndToEnd, endToEnd, true)
	compare("per-layer", m.PerLayer, perLayer, false)
}
