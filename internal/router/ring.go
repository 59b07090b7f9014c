// Consistent-hash ring: the deterministic beacon→node map behind the
// multi-node router. Each in-ring node contributes ringVNodes points
// placed by an FNV-1a hash of "addr#v"; a beacon hashes onto the circle
// with the same hash and lands on the first point clockwise. Virtual
// nodes spread each node's key range into many small arcs, so removing
// one node (a drain) scatters only its own beacons — evenly — over the
// survivors, and every other beacon keeps its owner. The placement is a
// pure function of the node list, which is what lets independent
// gateways route consistently without talking to each other.
package router

import "sort"

// ringVNodes is the number of virtual ring points per node.
const ringVNodes = 64

// fnv64 constants (the same hash the fleet's shard index uses).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// ringHash is FNV-1a over key plus a vnode ordinal (vn < 0 skips the
// ordinal — the form beacon keys use), finished with a full-width bit
// mixer. Raw FNV-1a is fine for the fleet's modulo shard index but not
// for a ring: a trailing byte only passes through one multiply, so
// related keys ("beacon-001", "beacon-002") barely differ in the high
// bits that decide ring position and whole nodes can end up owning
// nothing. The finalizer (64-bit avalanche, murmur-style constants)
// spreads every input bit across the word.
func ringHash(key string, vn int) uint64 {
	h := uint64(fnvOffset64)
	// Every key starts with eight zero bytes (xor with zero is a no-op,
	// so only the multiplies remain). Dropping them would give every
	// beacon a new owner.
	for i := 0; i < 8; i++ {
		h *= fnvPrime64
	}
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= fnvPrime64
	}
	if vn >= 0 {
		h ^= '#'
		h *= fnvPrime64
		for s := 0; s < 32; s += 8 { // vnode ordinal as 4 fixed bytes
			h ^= uint64(vn>>s) & 0xff
			h *= fnvPrime64
		}
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// vpoint is one virtual node on the ring.
type vpoint struct {
	hash uint64
	node int // index into the router's node table
}

// ring is an immutable sorted vnode circle. Membership changes build a
// fresh ring (a snapshot PushBatch can hold without locking).
type ring struct {
	pts []vpoint
}

// buildRing places ringVNodes points per member node. members maps node
// index → address; order ties on equal hashes break by node index, so
// the ring is deterministic even under (astronomically unlikely) hash
// collisions.
func buildRing(members map[int]string) ring {
	pts := make([]vpoint, 0, len(members)*ringVNodes)
	for idx, addr := range members {
		for v := 0; v < ringVNodes; v++ {
			pts = append(pts, vpoint{hash: ringHash(addr, v), node: idx})
		}
	}
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].hash != pts[j].hash {
			return pts[i].hash < pts[j].hash
		}
		return pts[i].node < pts[j].node
	})
	return ring{pts: pts}
}

// successor returns the index into pts of the first point at or
// clockwise of h.
func (r ring) successor(h uint64) int {
	i := sort.Search(len(r.pts), func(i int) bool { return r.pts[i].hash >= h })
	if i == len(r.pts) {
		i = 0
	}
	return i
}

// owner returns the home node for a key hash: the first node clockwise.
// Returns -1 on an empty ring.
func (r ring) owner(h uint64) int {
	if len(r.pts) == 0 {
		return -1
	}
	return r.pts[r.successor(h)].node
}

// walk visits the distinct nodes clockwise from h (the home node first,
// then each failover candidate in ring order) until visit returns false
// or every in-ring node has been offered once.
func (r ring) walk(h uint64, visit func(node int) bool) {
	if len(r.pts) == 0 {
		return
	}
	seen := make(map[int]bool, 8)
	start := r.successor(h)
	for i := 0; i < len(r.pts); i++ {
		p := r.pts[(start+i)%len(r.pts)]
		if seen[p.node] {
			continue
		}
		seen[p.node] = true
		if !visit(p.node) {
			return
		}
	}
}
