package topo

import "math"

// Content fingerprints let routing tables be cached and shared across
// structurally identical graphs: two independent builds of the same
// topology produce byte-identical node/link numbering, so a cheap hash
// over that structure (plus a separate hash over the volatile link-Down
// state) addresses a table cache without holding graph references.

const (
	fnvOffset64 = 0xcbf29ce484222325
	fnvPrime64  = 0x100000001b3
)

type fnv64 uint64

func (h *fnv64) word(v uint64) {
	x := uint64(*h)
	for i := 0; i < 8; i++ {
		x = (x ^ (v & 0xff)) * fnvPrime64
		v >>= 8
	}
	*h = fnv64(x)
}

// Fingerprint hashes the graph's static structure: node kinds and counts,
// link endpoints and port numbers, bandwidths and latencies. The volatile
// Down flags are deliberately excluded — they are covered by DownHash, so
// a (Fingerprint, DownHash) pair fully addresses the routed state of a
// graph. O(nodes + links), no allocation.
func (g *Graph) Fingerprint() uint64 {
	h := fnv64(fnvOffset64)
	h.word(uint64(len(g.Nodes)))
	h.word(uint64(len(g.Links)))
	h.word(uint64(len(g.terminals)))
	for _, n := range g.Nodes {
		h.word(uint64(n.Kind))
	}
	for _, l := range g.Links {
		h.word(uint64(uint32(l.A))<<32 | uint64(uint32(l.B)))
		h.word(uint64(uint32(l.APort))<<32 | uint64(uint32(l.BPort)))
		h.word(math.Float64bits(l.Bandwidth))
		h.word(uint64(l.Latency))
	}
	return uint64(h)
}

// DownHash hashes the graph's current link-Down mask as a Zobrist XOR of
// per-link salts (see LinkDownSalt): a healthy graph hashes to 0, flipping
// one link flips exactly that link's salt, and two masks differing in a
// single link therefore never collide. Two calls on the same graph agree
// iff the same set of links is down; together with Fingerprint it keys
// caches of routed state (exp.TableCache).
func (g *Graph) DownHash() uint64 {
	var h uint64
	for _, l := range g.Links {
		if l.Down {
			h ^= LinkDownSalt(l.ID)
		}
	}
	return h
}

// LinkDownSalt returns the Zobrist value XORed into DownHash when the link
// is down. Salts are SplitMix64 outputs of the link ID and never zero, the
// property that makes single-link deltas collision-free.
func LinkDownSalt(id LinkID) uint64 {
	s := splitmix64(uint64(uint32(id)) + 1)
	if s == 0 {
		return 0x9e3779b97f4a7c15
	}
	return s
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
