package cluster

import (
	"fmt"
	"testing"

	"mhdedup/internal/hashutil"
)

func testShards(n int) []Shard {
	out := make([]Shard, n)
	for i := range out {
		out[i] = Shard{ID: fmt.Sprintf("shard-%02d", i), Addr: fmt.Sprintf("127.0.0.1:%d", 9000+i)}
	}
	return out
}

func testKeys(n int) []hashutil.Sum {
	out := make([]hashutil.Sum, n)
	for i := range out {
		out[i] = hashutil.SumString(fmt.Sprintf("key-%d", i))
	}
	return out
}

// TestRingDeterminism: the ring is a pure function of its shards — two
// independently built rings (a restart, in effect) route every key
// identically.
func TestRingDeterminism(t *testing.T) {
	shards := testShards(5)
	r1, err := NewRing(shards)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := NewRing(shards)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range testKeys(10000) {
		if a, b := r1.Owner(k).ID, r2.Owner(k).ID; a != b {
			t.Fatalf("key routed to %s on one ring, %s on its twin", a, b)
		}
	}
	// Shard order must not matter either: identity is the ID, not the
	// slice index.
	rev := append([]Shard(nil), shards...)
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	r3, err := NewRing(rev)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range testKeys(10000) {
		if a, b := r1.Owner(k).ID, r3.Owner(k).ID; a != b {
			t.Fatalf("shard order changed routing: %s vs %s", a, b)
		}
	}
}

// TestRingBalance: with VNodes every shard's share of a large key
// population stays within a generous band around the fair share.
func TestRingBalance(t *testing.T) {
	const nShards, nKeys = 8, 200000
	r, err := NewRing(testShards(nShards))
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[string]int)
	for _, k := range testKeys(nKeys) {
		counts[r.Owner(k).ID]++
	}
	fair := float64(nKeys) / nShards
	for id, c := range counts {
		if share := float64(c) / fair; share < 0.5 || share > 1.5 {
			t.Errorf("shard %s owns %.2fx its fair share (%d keys)", id, share, c)
		}
	}
	if len(counts) != nShards {
		t.Fatalf("only %d of %d shards own any keys", len(counts), nShards)
	}
}

// TestRingAddMovesMinimally: growing the cluster by one shard moves keys
// only TO the new shard, and roughly 1/N of them.
func TestRingAddMovesMinimally(t *testing.T) {
	const nKeys = 100000
	shards := testShards(6)
	small, err := NewRing(shards[:5])
	if err != nil {
		t.Fatal(err)
	}
	big, err := NewRing(shards)
	if err != nil {
		t.Fatal(err)
	}
	newID := shards[5].ID
	moved := 0
	for _, k := range testKeys(nKeys) {
		before, after := small.Owner(k).ID, big.Owner(k).ID
		if before == after {
			continue
		}
		if after != newID {
			t.Fatalf("key moved %s→%s, not to the new shard", before, after)
		}
		moved++
	}
	frac := float64(moved) / nKeys
	// Expect ~1/6 ≈ 0.167; allow vnode noise either way.
	if frac < 0.08 || frac > 0.30 {
		t.Fatalf("adding 1 of 6 shards moved %.1f%% of keys, expected ~16.7%%", 100*frac)
	}
}

// TestRingRemoveMovesMinimally: Without(id) moves only the removed
// shard's keys; survivors keep everything they had.
func TestRingRemoveMovesMinimally(t *testing.T) {
	const nKeys = 100000
	shards := testShards(5)
	r, err := NewRing(shards)
	if err != nil {
		t.Fatal(err)
	}
	gone := shards[2].ID
	smaller, err := r.Without(gone)
	if err != nil {
		t.Fatal(err)
	}
	moved := 0
	for _, k := range testKeys(nKeys) {
		before, after := r.Owner(k).ID, smaller.Owner(k).ID
		if after == gone {
			t.Fatalf("removed shard %s still owns a key", gone)
		}
		if before != after {
			if before != gone {
				t.Fatalf("key moved %s→%s though neither is the removed shard", before, after)
			}
			moved++
		}
	}
	frac := float64(moved) / nKeys
	if frac < 0.08 || frac > 0.35 {
		t.Fatalf("removing 1 of 5 shards moved %.1f%% of keys, expected ~20%%", 100*frac)
	}

	// Without() on an absent ID is the identity.
	same, err := r.Without("no-such-shard")
	if err != nil {
		t.Fatal(err)
	}
	if same != r {
		t.Fatal("Without(absent) rebuilt the ring")
	}
}

// TestRingRejectsBadConfig pins the constructor's validation.
func TestRingRejectsBadConfig(t *testing.T) {
	if _, err := NewRing(nil); err == nil {
		t.Fatal("empty ring accepted")
	}
	if _, err := NewRing([]Shard{{ID: ""}}); err == nil {
		t.Fatal("empty shard ID accepted")
	}
	if _, err := NewRing([]Shard{{ID: "a"}, {ID: "a"}}); err == nil {
		t.Fatal("duplicate shard ID accepted")
	}
	r, err := NewRing([]Shard{{ID: "solo"}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Without("solo"); err == nil {
		t.Fatal("Without() emptied the ring without complaint")
	}
}

// TestRingOwnersProperties pins the successor-owner policy replication
// is built on: for every key and every R, the R owners are distinct
// shards, the first owner is Owner(), and the list is stable under shard-
// order permutation (identity is the ID set, never slice order).
func TestRingOwnersProperties(t *testing.T) {
	shards := testShards(6)
	r, err := NewRing(shards)
	if err != nil {
		t.Fatal(err)
	}
	rev := append([]Shard(nil), shards...)
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	rp, err := NewRing(rev)
	if err != nil {
		t.Fatal(err)
	}
	keys := testKeys(20000)
	for _, n := range []int{1, 2, 3, 6, 9} {
		want := n
		if want > len(shards) {
			want = len(shards)
		}
		for _, k := range keys {
			owners := r.Owners(k, n)
			if len(owners) != want {
				t.Fatalf("R=%d: got %d owners, want %d", n, len(owners), want)
			}
			if owners[0].ID != r.Owner(k).ID {
				t.Fatalf("R=%d: first owner %s differs from Owner() %s", n, owners[0].ID, r.Owner(k).ID)
			}
			seen := make(map[string]bool, len(owners))
			for _, o := range owners {
				if seen[o.ID] {
					t.Fatalf("R=%d: duplicate owner %s in %v", n, o.ID, owners)
				}
				seen[o.ID] = true
			}
			perm := rp.Owners(k, n)
			for i := range owners {
				if owners[i].ID != perm[i].ID {
					t.Fatalf("R=%d: shard-order permutation changed owner %d: %s vs %s",
						n, i, owners[i].ID, perm[i].ID)
				}
			}
		}
	}
}

// TestRingOwnersMovementBounded: composing Without() with the successor
// policy, removing one shard moves only the replicas that lived ON the
// removed shard — every key keeps its surviving owners in order, and at
// most one new shard (the replacement) joins the list.
func TestRingOwnersMovementBounded(t *testing.T) {
	const R = 3
	shards := testShards(6)
	r, err := NewRing(shards)
	if err != nil {
		t.Fatal(err)
	}
	gone := shards[2].ID
	smaller, err := r.Without(gone)
	if err != nil {
		t.Fatal(err)
	}
	movedKeys := 0
	for _, k := range testKeys(50000) {
		before := r.Owners(k, R)
		after := smaller.Owners(k, R)
		// Surviving owners must keep their relative order in the new list.
		kept := make([]string, 0, R)
		hadGone := false
		for _, o := range before {
			if o.ID == gone {
				hadGone = true
				continue
			}
			kept = append(kept, o.ID)
		}
		afterIDs := make(map[string]int, len(after))
		for i, o := range after {
			if o.ID == gone {
				t.Fatalf("removed shard %s still an owner", gone)
			}
			afterIDs[o.ID] = i
		}
		prev := -1
		for _, id := range kept {
			i, ok := afterIDs[id]
			if !ok {
				t.Fatalf("surviving owner %s evicted by removing %s (before %v, after %v)",
					id, gone, before, after)
			}
			if i < prev {
				t.Fatalf("surviving owners reordered by removing %s (before %v, after %v)",
					gone, before, after)
			}
			prev = i
		}
		// At most one new shard joins, and only when the removed shard was
		// an owner.
		newcomers := len(after) - len(kept)
		if !hadGone && newcomers != 0 {
			t.Fatalf("key with no replica on %s gained %d new owners (before %v, after %v)",
				gone, newcomers, before, after)
		}
		if newcomers > 1 {
			t.Fatalf("removing one shard admitted %d new owners (before %v, after %v)",
				newcomers, before, after)
		}
		if hadGone {
			movedKeys++
		}
	}
	// Sanity: the removed shard held SOME replicas (~R/N of keys).
	if movedKeys == 0 {
		t.Fatal("removed shard owned no replicas at all — test proves nothing")
	}
}

// TestOwnerOfNameStable pins name routing (used for home-shard
// placement) to the same determinism as hash routing.
func TestOwnerOfNameStable(t *testing.T) {
	r, err := NewRing(testShards(4))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := NewRing(testShards(4))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		name := fmt.Sprintf("acme/disk-%d.img", i)
		if r.OwnersOfName(name, 1)[0].ID != r2.OwnersOfName(name, 1)[0].ID {
			t.Fatalf("name %q routed differently across identical rings", name)
		}
	}
}
