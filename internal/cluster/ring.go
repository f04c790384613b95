// Package cluster is the sharded multi-tenant layer over dedupd: a
// consistent-hash ring that partitions the chunk/hook hash space across
// shards, per-tenant namespace and quota accounting, and the dedup-gw
// gateway that speaks the internal/wire protocol to clients while fanning
// the work out to the shard that owns each slice of hash space.
//
// The MHD index is a pure hash→location map, which is what makes it
// partitionable at all: a chunk hash deterministically owns one point of
// the ring, so the gateway can answer "which shard should know this
// chunk?" with arithmetic instead of a directory service, and the
// offer→need negotiation needs no cross-shard chatter.
package cluster

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strconv"

	"mhdedup/internal/hashutil"
)

// VNodes is how many virtual nodes each shard projects onto the ring.
// More vnodes smooth the balance (stddev of a shard's share decays as
// 1/sqrt(vnodes)) at the cost of a larger sorted point table. A constant,
// not an option: every point moves with it, so a gateway restarted at
// another value would re-home files it had already placed.
const VNodes = 128

// Shard is one dedupd backend in the cluster.
type Shard struct {
	ID   string `json:"id"`   // stable identity — ring placement hashes this
	Addr string `json:"addr"` // host:port the gateway dials
}

// point is one virtual node: a position on the [0, 2^64) ring owned by a
// shard.
type point struct {
	pos   uint64
	shard int32 // index into Ring.shards
}

// Ring is an immutable consistent-hash ring. Keys (20-byte content
// hashes) map to the first virtual node at or clockwise-after the key's
// 64-bit prefix; exact position collisions — possible in principle, never
// in practice — are broken by rendezvous hashing so the winner is still
// a pure function of (key, shard IDs) rather than of sort order.
type Ring struct {
	shards []Shard
	points []point // sorted by pos
}

// NewRing builds the ring over shards. The ring is a pure function of the
// shard list: two processes (or two incarnations of one) given the same
// shards route every key identically, which is what makes routing
// restart-stable with no handoff protocol. Shard IDs must be unique and
// non-empty; at least one shard is required.
func NewRing(shards []Shard) (*Ring, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one shard")
	}
	seen := make(map[string]bool, len(shards))
	r := &Ring{
		shards: append([]Shard(nil), shards...),
		points: make([]point, 0, len(shards)*VNodes),
	}
	for i, s := range r.shards {
		if s.ID == "" {
			return nil, fmt.Errorf("cluster: shard %d has an empty ID", i)
		}
		if seen[s.ID] {
			return nil, fmt.Errorf("cluster: duplicate shard ID %q", s.ID)
		}
		seen[s.ID] = true
		for v := 0; v < VNodes; v++ {
			h := hashutil.SumString(s.ID + "#" + strconv.Itoa(v))
			r.points = append(r.points, point{
				pos:   binary.BigEndian.Uint64(h[:8]),
				shard: int32(i),
			})
		}
	}
	sort.Slice(r.points, func(a, b int) bool { return r.points[a].pos < r.points[b].pos })
	return r, nil
}

// Shards returns the ring's membership (shared slice; do not mutate).
func (r *Ring) Shards() []Shard { return r.shards }

// Shard looks a member up by ID; a miss returns the bare ID, unaddressed.
func (r *Ring) Shard(id string) (Shard, bool) {
	for _, s := range r.shards {
		if s.ID == id {
			return s, true
		}
	}
	return Shard{ID: id}, false
}

// Without derives the ring with the given shard IDs removed — the write
// ring while those shards drain. Keys owned by a surviving shard keep
// their owner (the removed shards' points simply vanish, so only keys
// that pointed at them move); that minimal-movement property is what the
// ring_test property tests pin.
func (r *Ring) Without(ids ...string) (*Ring, error) {
	drop := make(map[string]bool, len(ids))
	for _, id := range ids {
		drop[id] = true
	}
	keep := make([]Shard, 0, len(r.shards))
	for _, s := range r.shards {
		if !drop[s.ID] {
			keep = append(keep, s)
		}
	}
	if len(keep) == len(r.shards) {
		return r, nil // nothing removed; rings are immutable so sharing is safe
	}
	return NewRing(keep)
}

// Owner maps a content hash to its owning shard.
func (r *Ring) Owner(h hashutil.Sum) Shard {
	return r.shards[r.ownerOf(binary.BigEndian.Uint64(h[:8]))]
}

// Owners maps a content hash to its n distinct successor owners: the
// shards encountered walking clockwise from the hash's ring position,
// first occurrence of each shard in walk order. Owners(h, 1)[0] ==
// Owner(h) always; replication policies place copy k on Owners(h, R)[k].
// n above the shard count clamps to it, so the result length is
// min(n, len(Shards())). Like Owner, the result is a pure function of
// (key, shard IDs): removing a shard that is not among a key's owners
// never changes that key's owner list, and removing one that is only
// replaces it — the movement-bounded property ring_test pins.
func (r *Ring) Owners(h hashutil.Sum, n int) []Shard {
	idxs := r.ownersOf(binary.BigEndian.Uint64(h[:8]), n)
	out := make([]Shard, len(idxs))
	for i, s := range idxs {
		out[i] = r.shards[s]
	}
	return out
}

// OwnersOfName maps a (namespaced) file name to its n distinct successor
// owners — the shards that hold the file's replicas under an R-way
// replication policy, primary first.
func (r *Ring) OwnersOfName(name string, n int) []Shard {
	return r.Owners(hashutil.SumString(name), n)
}

// ownersOf resolves one 64-bit ring position to its first n distinct
// owning shard indices in clockwise walk order. Collision runs (several
// shards projecting a vnode onto the identical position) are ordered by
// rendezvous score within the run, which keeps ownersOf(key, 1)[0]
// identical to ownerOf(key).
func (r *Ring) ownersOf(key uint64, n int) []int32 {
	if n > len(r.shards) {
		n = len(r.shards)
	}
	if n < 1 {
		n = 1
	}
	np := len(r.points)
	start := sort.Search(np, func(j int) bool { return r.points[j].pos >= key })
	if start == np {
		start = 0
	}
	out := make([]int32, 0, n)
	seen := make(map[int32]bool, n)
	add := func(s int32) {
		if !seen[s] && len(out) < n {
			seen[s] = true
			out = append(out, s)
		}
	}
	for k := 0; k < np && len(out) < n; {
		i := (start + k) % np
		// Extend the collision run: consecutive array slots (runs never
		// span the wrap, pos is sorted) sharing one position.
		m := 1
		for i+m < np && k+m < np && r.points[i+m].pos == r.points[i].pos {
			m++
		}
		if m == 1 {
			add(r.points[i].shard)
		} else {
			members := make([]int32, 0, m)
			for t := 0; t < m; t++ {
				members = append(members, r.points[i+t].shard)
			}
			sort.Slice(members, func(a, b int) bool {
				return rendezvousScore(key, r.shards[members[a]].ID) >
					rendezvousScore(key, r.shards[members[b]].ID)
			})
			for _, s := range members {
				add(s)
			}
		}
		k += m
	}
	return out
}

// ownerOf resolves one 64-bit ring position to a shard index.
func (r *Ring) ownerOf(key uint64) int32 {
	n := len(r.points)
	i := sort.Search(n, func(j int) bool { return r.points[j].pos >= key })
	if i == n {
		i = 0 // wrap: the first point owns the arc past the last one
	}
	// Collision run: several shards project a vnode onto the identical
	// position. Settle it by rendezvous hashing — highest score(key,
	// shard) wins — so the answer depends only on the key and the shard
	// IDs, never on which point the binary search happened to land on.
	j := i
	for j+1 < n && r.points[j+1].pos == r.points[i].pos {
		j++
	}
	if j == i {
		return r.points[i].shard
	}
	best, bestScore := r.points[i].shard, rendezvousScore(key, r.shards[r.points[i].shard].ID)
	for k := i + 1; k <= j; k++ {
		if s := rendezvousScore(key, r.shards[r.points[k].shard].ID); s > bestScore {
			best, bestScore = r.points[k].shard, s
		}
	}
	return best
}

// rendezvousScore is the highest-random-weight score of (key, shard).
func rendezvousScore(key uint64, shardID string) uint64 {
	var kb [8]byte
	binary.BigEndian.PutUint64(kb[:], key)
	h := hashutil.SumBytes(append(kb[:], shardID...))
	return binary.BigEndian.Uint64(h[:8])
}
