package sketch

import (
	"encoding/binary"
	"testing"
	"testing/quick"

	"mhdedup/internal/hashutil"
)

func keyOf(i uint64) hashutil.Sum {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], i)
	return hashutil.SumBytes(b[:])
}

func TestNeverUnderestimates(t *testing.T) {
	c, err := New(4, 1024)
	if err != nil {
		t.Fatal(err)
	}
	truth := map[uint64]uint32{}
	for i := uint64(0); i < 5000; i++ {
		k := i % 200 // 200 keys, 25 adds each
		c.Add(keyOf(k))
		truth[k]++
	}
	for k, want := range truth {
		if got := c.Estimate(keyOf(k)); got < want {
			t.Fatalf("key %d: estimate %d < true count %d", k, got, want)
		}
	}
}

func TestEstimateAccuracyAtLowLoad(t *testing.T) {
	c, _ := New(4, 1<<14)
	for i := uint64(0); i < 1000; i++ {
		c.Add(keyOf(i))
	}
	// With load far below width, estimates should be nearly exact.
	exact := 0
	for i := uint64(0); i < 1000; i++ {
		if c.Estimate(keyOf(i)) == 1 {
			exact++
		}
	}
	if exact < 950 {
		t.Errorf("only %d/1000 exact estimates at trivial load", exact)
	}
	if got := c.Estimate(keyOf(99999)); got > 2 {
		t.Errorf("absent key estimated at %d", got)
	}
}

func TestFrequentKeysStandOut(t *testing.T) {
	c, _ := New(4, 4096)
	hot := keyOf(7)
	for i := 0; i < 500; i++ {
		c.Add(hot)
	}
	for i := uint64(100); i < 1100; i++ {
		c.Add(keyOf(i))
	}
	if got := c.Estimate(hot); got < 500 {
		t.Errorf("hot key estimate %d < 500", got)
	}
	cold := 0
	for i := uint64(100); i < 200; i++ {
		if c.Estimate(keyOf(i)) < 10 {
			cold++
		}
	}
	if cold < 90 {
		t.Errorf("only %d/100 cold keys estimated cold", cold)
	}
}

func TestMonotoneProperty(t *testing.T) {
	c, _ := New(3, 512)
	f := func(data []byte) bool {
		k := hashutil.SumBytes(data)
		before := c.Estimate(k)
		c.Add(k)
		return c.Estimate(k) >= before+1 || c.Estimate(k) == ^uint32(0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestResetAndAccounting(t *testing.T) {
	c, _ := New(2, 64)
	c.Add(keyOf(1))
	c.Add(keyOf(1))
	if c.SizeBytes() != 2*64*4 {
		t.Errorf("SizeBytes = %d", c.SizeBytes())
	}
	if got := c.Estimate(keyOf(1)); got != 2 {
		t.Errorf("Estimate after two Adds into an empty sketch = %d, want 2", got)
	}
}

func TestValidation(t *testing.T) {
	for _, bad := range [][2]int{{0, 10}, {17, 10}, {4, 0}, {-1, 5}, {4, -2}} {
		if _, err := New(bad[0], bad[1]); err == nil {
			t.Errorf("New(%d,%d) accepted", bad[0], bad[1])
		}
	}
}
