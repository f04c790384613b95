package algo

import (
	"strings"
	"testing"
)

func TestBloomAutoSizing(t *testing.T) {
	resolve := func(o Options) int {
		t.Helper()
		r, err := o.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		return r.BloomBytes
	}
	if got := resolve(Options{ExpectedInputBytes: 1 << 30}); got < (1<<30)/4096 {
		t.Errorf("auto bloom %d bytes too small for 1 GiB input", got)
	}
	if got := resolve(Options{ECS: 512, ExpectedInputBytes: 1 << 30}); got != (1<<30)/512*12/8+1024 {
		t.Errorf("auto bloom for 1 GiB at ECS 512 is %d bytes, want 12 bits per chunk plus 1 KiB", got)
	}
	if got := resolve(Options{ExpectedInputBytes: 1 << 20}); got != 1<<16 {
		t.Errorf("auto bloom for 1 MiB is %d bytes, want the 64 KiB floor", got)
	}
	if resolve(Options{BloomBytes: 12345, ExpectedInputBytes: 1 << 30}) != 12345 {
		t.Error("explicit BloomBytes ignored")
	}
	if got := resolve(Options{}); got != 1<<20 {
		t.Errorf("bloom without an expected input is %d bytes, want 1 MiB", got)
	}
}

func TestResolveDefaultsAndRefusals(t *testing.T) {
	got, err := Options{}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	want := Options{ECS: 4096, SD: 64, BloomBytes: 1 << 20, CacheManifests: 64}
	if got != want {
		t.Errorf("zero Options resolved to %+v, want %+v", got, want)
	}
	if again, _ := got.Resolve(); again != got {
		t.Errorf("Resolve is not idempotent: %+v, then %+v", got, again)
	}
	for field, o := range map[string]Options{
		"ECS":                {ECS: -1},
		"SD":                 {SD: -1},
		"BloomBytes":         {BloomBytes: -1},
		"ExpectedInputBytes": {ExpectedInputBytes: -1},
		"CacheManifests":     {CacheManifests: -1},
		"FastCDC":            {TTTD: true, FastCDC: true},
	} {
		if _, err := o.Resolve(); err == nil || !strings.Contains(err.Error(), field) {
			t.Errorf("%+v: err = %v, want one naming %s", o, err, field)
		}
	}
}
