package metrics

import (
	"encoding/json"
	"sync"
	"testing"
)

func TestRegistryCounterAndSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("a").Add(3)
	r.Counter("b").Add(7)
	r.Counter("a").Add(1)
	snap := r.Snapshot()
	if snap["a"] != 4 || snap["b"] != 7 {
		t.Fatalf("snapshot = %v", snap)
	}
}

func TestRegistryCounterPointerStable(t *testing.T) {
	r := NewRegistry()
	if r.Counter("x") != r.Counter("x") {
		t.Fatal("Counter not stable across calls")
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("hot").Add(1)
				r.Snapshot()
			}
		}()
	}
	wg.Wait()
	if got := r.Snapshot()["hot"]; got != 8000 {
		t.Fatalf("hot = %d, want 8000", got)
	}
}

func TestRegistryJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("wire.bytes_in").Add(123)
	raw, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]int64
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if got["wire.bytes_in"] != 123 {
		t.Fatalf("json = %s", raw)
	}
}

func TestDefaultRegistryHelpers(t *testing.T) {
	Default.Counter("test.default.counter").Add(5)
	if Default.Snapshot()["test.default.counter"] < 5 {
		t.Fatalf("default snapshot = %v", Default.Snapshot())
	}
}

func TestStatsJSONRoundTrip(t *testing.T) {
	// Stats must stay JSON-serializable: /metrics.json embeds a snapshot.
	s := Stats{InputBytes: 10, DupChunks: 3}
	raw, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var got Stats
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if got != s {
		t.Fatalf("round trip: %+v != %+v", got, s)
	}
}
