package lru

import (
	"sync"
	"testing"
	"testing/quick"
)

func TestBasicPutGet(t *testing.T) {
	c, err := New[string, int](3, nil)
	if err != nil {
		t.Fatal(err)
	}
	c.Put("a", 1)
	c.Put("b", 2)
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Errorf("Get(a) = %d,%v", v, ok)
	}
	if _, ok := c.Get("zzz"); ok {
		t.Error("Get of absent key succeeded")
	}
}

func TestEvictionOrder(t *testing.T) {
	var evicted []string
	c, _ := New[string, int](2, func(k string, _ int) { evicted = append(evicted, k) })
	c.Put("a", 1)
	c.Put("b", 2)
	c.Get("a")    // a is now MRU
	c.Put("c", 3) // evicts b
	if len(evicted) != 1 || evicted[0] != "b" {
		t.Fatalf("evicted %v, want [b]", evicted)
	}
	if _, ok := c.Get("b"); ok {
		t.Error("b should have been evicted")
	}
	if _, ok := c.Get("a"); !ok {
		t.Error("a should have survived (was MRU)")
	}
}

func TestUpdateDoesNotEvict(t *testing.T) {
	evictions := 0
	c, _ := New[string, int](2, func(string, int) { evictions++ })
	c.Put("a", 1)
	c.Put("b", 2)
	c.Put("a", 10) // update in place
	if evictions != 0 {
		t.Errorf("update caused %d evictions", evictions)
	}
	if v, _ := c.Get("a"); v != 10 {
		t.Errorf("updated value = %d, want 10", v)
	}
}

func TestRemove(t *testing.T) {
	var evicted []int
	c, _ := New[int, int](4, func(_ int, v int) { evicted = append(evicted, v) })
	c.Put(1, 100)
	if !c.Remove(1) {
		t.Error("Remove of present key returned false")
	}
	if c.Remove(1) {
		t.Error("Remove of absent key returned true")
	}
	if len(evicted) != 1 || evicted[0] != 100 {
		t.Errorf("eviction callback on Remove: got %v", evicted)
	}
	if c.Len() != 0 {
		t.Errorf("Len = %d after Remove, want 0", c.Len())
	}
}

func TestFlushEvictsAllInLRUOrder(t *testing.T) {
	var order []string
	c, _ := New[string, int](10, func(k string, _ int) { order = append(order, k) })
	c.Put("a", 1)
	c.Put("b", 2)
	c.Put("c", 3)
	c.Get("a") // a most recent
	c.Flush()
	if c.Len() != 0 {
		t.Errorf("Len after Flush = %d", c.Len())
	}
	want := []string{"b", "c", "a"} // LRU first
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("flush order %v, want %v", order, want)
		}
	}
}

func TestPeekDoesNotTouchRecency(t *testing.T) {
	c, _ := New[string, int](2, nil)
	c.Put("a", 1)
	c.Put("b", 2)
	c.Peek("a")   // must NOT refresh a
	c.Put("c", 3) // evicts a (still LRU)
	if _, ok := c.Peek("a"); ok {
		t.Error("a survived eviction despite only being Peeked")
	}
	if _, ok := c.Peek("b"); !ok {
		t.Error("b should still be cached")
	}
}

func TestEach(t *testing.T) {
	c, _ := New[int, int](5, nil)
	for i := 1; i <= 3; i++ {
		c.Put(i, i*10)
	}
	var keys []int
	c.Each(func(k, v int) {
		if v != k*10 {
			t.Errorf("Each saw %d -> %d", k, v)
		}
		keys = append(keys, k)
	})
	// MRU first: 3, 2, 1.
	if len(keys) != 3 || keys[0] != 3 || keys[2] != 1 {
		t.Errorf("Each order = %v, want [3 2 1]", keys)
	}
}

func TestValidation(t *testing.T) {
	if _, err := New[int, int](0, nil); err == nil {
		t.Error("capacity 0 accepted")
	}
	if _, err := New[int, int](-1, nil); err == nil {
		t.Error("negative capacity accepted")
	}
}

func TestNeverExceedsCapacity(t *testing.T) {
	c, _ := New[uint16, uint16](7, nil)
	f := func(keys []uint16) bool {
		for _, k := range keys {
			c.Put(k, k)
			if c.Len() > 7 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLastWriterWins(t *testing.T) {
	c, _ := New[uint8, int](256, nil)
	f := func(key uint8, a, b int) bool {
		c.Put(key, a)
		c.Put(key, b)
		v, ok := c.Get(key)
		return ok && v == b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentAccess hammers one cache from 8 goroutines mixing Put, Get,
// Peek, Remove, Each and Len (run under -race). Each goroutine also
// owns a private key range whose writes it must never lose; the capacity
// invariant must hold throughout.
func TestConcurrentAccess(t *testing.T) {
	const (
		goroutines = 8
		perG       = 500
		capacity   = 64
	)
	c, err := New[int, int](capacity, nil)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			base := g * 1_000_000
			for i := 0; i < perG; i++ {
				k := base + i
				c.Put(k, k*2)
				// Immediately readable (eviction may strike between ops for
				// OTHER keys, but a just-Put key is MRU — it can only be
				// evicted by concurrent Puts filling the whole cache, so
				// tolerate a miss but never a wrong value).
				if v, ok := c.Get(k); ok && v != k*2 {
					t.Errorf("g%d: Get(%d) = %d, want %d", g, k, v, k*2)
					return
				}
				if v, ok := c.Peek(k); ok && v != k*2 {
					t.Errorf("g%d: Peek(%d) = %d, want %d", g, k, v, k*2)
					return
				}
				if n := c.Len(); n > capacity {
					t.Errorf("g%d: Len %d exceeds capacity %d", g, n, capacity)
					return
				}
				switch i % 8 {
				case 3:
					c.Remove(k)
				case 5:
					c.Each(func(k, v int) {
						if v != k*2 {
							t.Errorf("Each saw %d -> %d", k, v)
						}
					})
				}
			}
		}(g)
	}
	wg.Wait()
	if n := c.Len(); n > capacity {
		t.Errorf("final Len %d exceeds capacity %d", n, capacity)
	}
}

// TestConcurrentEvictionCallback: the onEvict callback runs under the cache
// lock; concurrent Puts far beyond capacity must fire it exactly
// (inserts − capacity) times with no double- or dropped evictions, and the
// callback must see each evicted key once.
func TestConcurrentEvictionCallback(t *testing.T) {
	const (
		goroutines = 8
		perG       = 300
		capacity   = 16
	)
	seen := make(map[int]int)
	var mu sync.Mutex
	c, err := New[int, int](capacity, func(k, _ int) {
		// Called with the cache lock held — do NOT touch the cache here,
		// only private state (mirrors how the dedup engine's write-back
		// callback touches the store, never the cache).
		mu.Lock()
		seen[k]++
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				c.Put(g*1_000_000+i, i)
			}
		}(g)
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	var evictions int
	for k, n := range seen {
		if n != 1 {
			t.Errorf("key %d evicted %d times", k, n)
		}
		evictions += n
	}
	if want := goroutines*perG - capacity; evictions != want {
		t.Errorf("evictions = %d, want %d (every insert beyond capacity)", evictions, want)
	}
}
