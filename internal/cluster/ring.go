// Package cluster is the horizontal scale-out layer over internal/serve:
// a consistent-hash ring that routes content-addressed job keys across N
// stateless ccmserve workers, an admission-control stage (per-client token
// buckets + utilization load shedding) that rejects overload at the edge,
// and per-backend circuit breakers that re-route a sick shard's keyspace
// to the next ring owner.
//
// The design leans on the same property the whole repo does: a JobSpec
// fully determines its result bytes, and its SHA-256 content address is
// both job id and cache key. That makes the key a perfect shard key
// (submissions and reads for one job always land on the same worker, so
// the per-worker LRU cache and checkpoint store stay hot) and makes
// failover trivially safe: re-executing a job on a different worker
// produces byte-identical results by construction, so the router can
// re-route a tripped shard's keyspace without any state handoff — the
// serving-layer analogue of the paper's interchangeable state-free
// endpoints behind one collision-resistant reader.
package cluster

import (
	"fmt"
	"math"
	"sort"
	"strconv"
)

// DefaultReplicas is the virtual-node count per backend. 128 vnodes keeps
// the peak-to-mean keyspace imbalance under ~20% for small clusters while
// the ring stays a few KB.
const DefaultReplicas = 128

// maskBackends is the backend count up to which OwnerSeq runs
// allocation-free (a uint64 seen-mask). Larger rings still work; the
// distinct-owner walk just allocates its seen set.
const maskBackends = 64

// Ring is an immutable consistent-hash ring: each backend owns Replicas
// pseudo-random arcs of the 64-bit hash circle, and a key belongs to the
// first vnode clockwise of its hash. Placement is deterministic — it
// depends only on the membership set and replica count, never on
// insertion order or lookup history — so every router instance built from
// the same member list routes identically, and a rebuilt ring after a
// membership change moves only the keys the departed/arrived backend
// owns (~K/N of the keyspace).
//
// Membership changes return a new Ring (With/Without). The router builds
// one ring at startup and never replaces it, so its hot path reads the
// ring without locking.
type Ring struct {
	replicas int
	backends []string // sorted, unique
	vhash    []uint64 // sorted vnode positions
	vowner   []int32  // vhash[i] belongs to backends[vowner[i]]
}

// NewRing builds a ring over the backend set. Duplicates collapse;
// replicas <= 0 takes DefaultReplicas. An empty backend list yields a
// ring whose lookups return -1.
func NewRing(backends []string, replicas int) *Ring {
	if replicas <= 0 {
		replicas = DefaultReplicas
	}
	uniq := make([]string, 0, len(backends))
	seen := make(map[string]bool, len(backends))
	for _, b := range backends {
		if b == "" || seen[b] {
			continue
		}
		seen[b] = true
		uniq = append(uniq, b)
	}
	sort.Strings(uniq)

	r := &Ring{
		replicas: replicas,
		backends: uniq,
		vhash:    make([]uint64, 0, len(uniq)*replicas),
		vowner:   make([]int32, 0, len(uniq)*replicas),
	}
	type vnode struct {
		h     uint64
		owner int32
	}
	vns := make([]vnode, 0, len(uniq)*replicas)
	var buf []byte
	for i, b := range uniq {
		for v := 0; v < replicas; v++ {
			buf = buf[:0]
			buf = append(buf, b...)
			buf = append(buf, '#')
			buf = strconv.AppendInt(buf, int64(v), 10)
			vns = append(vns, vnode{h: hashBytes(buf), owner: int32(i)})
		}
	}
	// Ties (hash collisions between vnodes of different backends) break on
	// the sorted backend index, keeping placement a pure function of the
	// membership set.
	sort.Slice(vns, func(a, b int) bool {
		if vns[a].h != vns[b].h {
			return vns[a].h < vns[b].h
		}
		return vns[a].owner < vns[b].owner
	})
	for _, vn := range vns {
		r.vhash = append(r.vhash, vn.h)
		r.vowner = append(r.vowner, vn.owner)
	}
	return r
}

// Backends returns the sorted member list. Callers must not mutate it.
func (r *Ring) Backends() []string { return r.backends }

// Len returns the number of backends.
func (r *Ring) Len() int { return len(r.backends) }

// VNodes returns the total virtual-node count.
func (r *Ring) VNodes() int { return len(r.vhash) }

// Owner returns the index (into Backends) of the backend owning key, or
// -1 on an empty ring. Allocation-free.
func (r *Ring) Owner(key string) int {
	if len(r.vhash) == 0 {
		return -1
	}
	return int(r.vowner[r.slot(hashString(key))])
}

// OwnerSeq appends the distinct backends that own key, in ring
// (preference) order: the primary owner first, then each successive
// distinct owner clockwise — the failover sequence when earlier owners
// are tripped or overloaded. The result always contains every backend
// exactly once. seq is reused when its capacity suffices; with at most 64
// backends and adequate capacity the call is allocation-free.
func (r *Ring) OwnerSeq(key string, seq []int) []int {
	seq = seq[:0]
	n := len(r.backends)
	if n == 0 {
		return seq
	}
	start := r.slot(hashString(key))
	if n <= maskBackends {
		var seen uint64
		for i := 0; len(seq) < n; i++ {
			o := r.vowner[(start+i)%len(r.vhash)]
			if seen&(1<<uint(o)) == 0 {
				seen |= 1 << uint(o)
				seq = append(seq, int(o))
			}
		}
		return seq
	}
	seen := make([]bool, n)
	for i := 0; len(seq) < n; i++ {
		o := r.vowner[(start+i)%len(r.vhash)]
		if !seen[o] {
			seen[o] = true
			seq = append(seq, int(o))
		}
	}
	return seq
}

// slot returns the index of the first vnode clockwise of hash h
// (wrapping past the top of the circle back to vnode 0).
func (r *Ring) slot(h uint64) int {
	i := sort.Search(len(r.vhash), func(i int) bool { return r.vhash[i] >= h })
	if i == len(r.vhash) {
		return 0
	}
	return i
}

// Shares returns each backend's owned fraction of the hash circle, index-
// aligned with Backends. Fractions sum to 1 on a non-empty ring.
func (r *Ring) Shares() []float64 {
	out := make([]float64, len(r.backends))
	if len(r.vhash) == 0 {
		return out
	}
	prev := r.vhash[len(r.vhash)-1]
	for i, h := range r.vhash {
		// Arc (prev, h] belongs to vnode i; the wrap-around arc is the
		// complement of the distance walked forward.
		arc := h - prev // uint64 wrap-around arithmetic is exactly right here
		out[r.vowner[i]] += float64(arc) / math.MaxUint64
		prev = h
	}
	return out
}

// String describes the ring briefly (members and vnode count).
func (r *Ring) String() string {
	return fmt.Sprintf("ring(%d backends x %d vnodes)", len(r.backends), r.replicas)
}

// FNV-1a, inlined so hashing a key string never allocates (hash/fnv's
// New64a returns a heap object). The routing hot path calls this once per
// request.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func hashString(s string) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return h
}

func hashBytes(b []byte) uint64 {
	h := uint64(fnvOffset64)
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime64
	}
	return h
}
