package metrics

import (
	"encoding/json"
	"sync"
	"sync/atomic"
)

// Registry is a named-instrument registry for operational (service-side)
// metrics: counters (sessions, frames, bytes on the wire, cache hits),
// histograms (per-stage latencies), and gauges (instantaneous occupancy
// read through a callback). Instruments are created on first use, updated
// with lock-free atomic operations, and exported as one consistent-enough
// JSON snapshot (each instrument individually exact). The deduplication
// statistics proper stay in Stats/Atomic — the registry is for the
// serving layer around the engine.
type Registry struct {
	mu         sync.RWMutex
	counters   map[string]*atomic.Int64
	histograms map[string]*Histogram
	gauges     map[string]func() int64
}

// NewRegistry returns an empty registry (tests use private ones; servers
// usually share Default).
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*atomic.Int64),
		histograms: make(map[string]*Histogram),
		gauges:     make(map[string]func() int64),
	}
}

// Default is the process-wide registry Snapshot() exports.
var Default = NewRegistry()

// Counter returns the named counter, creating it at zero on first use.
// The returned pointer is stable: hot paths should hold it instead of
// re-resolving the name.
func (r *Registry) Counter(name string) *atomic.Int64 {
	r.mu.RLock()
	c, ok := r.counters[name]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	c = new(atomic.Int64)
	r.counters[name] = c
	return c
}

// Histogram returns the named histogram, creating it on first use. The
// returned pointer is stable: hot paths should hold it instead of
// re-resolving the name. By convention latency histograms carry a `_ns`
// suffix and record nanoseconds.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.RLock()
	h, ok := r.histograms[name]
	r.mu.RUnlock()
	if ok {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.histograms[name]; ok {
		return h
	}
	h = new(Histogram)
	r.histograms[name] = h
	return h
}

// SetGauge registers (or replaces) a gauge: a callback sampled at
// snapshot time for instantaneous values that are owned elsewhere —
// cache occupancy, live session counts, store object totals. The
// callback must be safe to call from any goroutine.
func (r *Registry) SetGauge(name string, fn func() int64) {
	r.mu.Lock()
	r.gauges[name] = fn
	r.mu.Unlock()
}

// Histograms snapshots every registered histogram.
func (r *Registry) Histograms() map[string]HistogramSnapshot {
	r.mu.RLock()
	hs := make(map[string]*Histogram, len(r.histograms))
	for name, h := range r.histograms {
		hs[name] = h
	}
	r.mu.RUnlock()
	out := make(map[string]HistogramSnapshot, len(hs))
	for name, h := range hs {
		out[name] = h.Snapshot()
	}
	return out
}

// Gauges samples every registered gauge.
func (r *Registry) Gauges() map[string]int64 {
	r.mu.RLock()
	fns := make(map[string]func() int64, len(r.gauges))
	for name, fn := range r.gauges {
		fns[name] = fn
	}
	r.mu.RUnlock()
	out := make(map[string]int64, len(fns))
	for name, fn := range fns {
		out[name] = fn()
	}
	return out
}

// Export is the full JSON-ready metrics document: counters, gauge
// samples, and histogram snapshots — what dedupd serves at
// /metrics.json.
type Export struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// ExportAll snapshots every instrument of the registry.
func (r *Registry) ExportAll() Export {
	return Export{
		Counters:   r.Snapshot(),
		Gauges:     r.Gauges(),
		Histograms: r.Histograms(),
	}
}

// Snapshot returns the current value of every counter.
func (r *Registry) Snapshot() map[string]int64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[string]int64, len(r.counters))
	for name, c := range r.counters {
		out[name] = c.Load()
	}
	return out
}

// MarshalJSON renders the registry as a flat JSON object of counter
// values, so a *Registry can be embedded directly in a metrics document.
func (r *Registry) MarshalJSON() ([]byte, error) {
	return json.Marshal(r.Snapshot())
}

// GetHistogram returns a histogram of the Default registry — the
// package-level hot-path instrumentation hook used by core, store and
// client (servers with private registries use Registry.Histogram).
func GetHistogram(name string) *Histogram { return Default.Histogram(name) }
