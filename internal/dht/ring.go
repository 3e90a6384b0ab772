// Package dht implements Mendel's two-tiered, zero-hop distributed hash
// table topology (§IV-C): storage nodes are organized into groups; the
// first tier (the vp-prefix tree, package vphash) maps data to a group by
// similarity, and the second tier — this package — disperses data evenly
// among the group's nodes with a flat SHA-1 consistent-hash ring, the
// "tried-and-true flat hashing scheme" of §V-A2. The ring hashes a block's
// region (Topology.Place), not its content as the paper does.
//
// Every node holds the full topology (zero-hop routing, as in Dynamo), so
// requests go directly to their destination without overlay hops. The
// consistent ring with virtual nodes gives the incremental scalability the
// paper targets: adding or removing a node within a group remaps only the
// keys adjacent to its virtual points.
package dht

import (
	"cmp"
	"crypto/sha1"
	"encoding/binary"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Ring is a SHA-1 consistent-hash ring over node addresses. The zero value
// is unusable; use NewRing.
type Ring struct {
	vnodesPerNode int
	points        []point // sorted by hash
	nodes         map[string]bool
}

type point struct {
	hash uint64
	node string
}

// DefaultVnodes is the virtual-node count per physical node when the caller
// passes 0: enough for <5% load skew across typical group sizes.
const DefaultVnodes = 64

// NewRing creates a ring with the given virtual nodes per physical node (0
// selects DefaultVnodes) over nodes, placing all their points with one sort.
func NewRing(vnodesPerNode int, nodes ...string) *Ring {
	if vnodesPerNode <= 0 {
		vnodesPerNode = DefaultVnodes
	}
	r := &Ring{vnodesPerNode: vnodesPerNode, nodes: make(map[string]bool, len(nodes))}
	r.place(nodes...)
	return r
}

// Add places a node on the ring. Adding an existing node is a no-op.
func (r *Ring) Add(node string) { r.place(node) }

// place adds the virtual points of every node not yet on the ring and
// re-sorts the ring once. Points order by hash, then node, so the ring does
// not depend on the order nodes joined in.
func (r *Ring) place(nodes ...string) {
	var buf []byte
	before := len(r.points)
	for _, node := range nodes {
		if r.nodes[node] {
			continue
		}
		r.nodes[node] = true
		buf = append(append(slices.Grow(buf[:0], len(node)+21), node...), '#') // room for the vnode index
		for v := 0; v < r.vnodesPerNode; v++ {
			r.points = append(r.points, point{hash: vnodeHash(buf, v), node: node})
		}
	}
	if len(r.points) > before {
		slices.SortFunc(r.points, func(a, b point) int {
			return cmp.Or(cmp.Compare(a.hash, b.hash), strings.Compare(a.node, b.node))
		})
	}
}

// Remove takes a node off the ring. Removing an absent node is a no-op.
func (r *Ring) Remove(node string) {
	if !r.nodes[node] {
		return
	}
	delete(r.nodes, node)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.node != node {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// Nodes returns the ring members in sorted order.
func (r *Ring) Nodes() []string {
	out := make([]string, 0, len(r.nodes))
	for n := range r.nodes {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Len returns the number of physical nodes on the ring.
func (r *Ring) Len() int { return len(r.nodes) }

// Lookup returns the node owning key: the first virtual point clockwise
// from SHA-1(key). It panics on an empty ring — routing to nobody is a
// programming error, not a runtime condition.
func (r *Ring) Lookup(key []byte) string {
	owners := r.LookupN(key, 1)
	return owners[0]
}

// LookupN returns the first n distinct nodes clockwise from SHA-1(key),
// the replica set used when replication is enabled. n is clamped to the
// ring size.
func (r *Ring) LookupN(key []byte, n int) []string {
	return r.lookupN(keyHash(key), n)
}

// lookupN is LookupN for a key already hashed.
func (r *Ring) lookupN(h uint64, n int) []string {
	if len(r.points) == 0 {
		panic("dht: lookup on empty ring")
	}
	if n > len(r.nodes) {
		n = len(r.nodes)
	}
	if n <= 0 {
		return nil
	}
	idx := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]string, 0, n)
	for i := 0; len(out) < n; i++ {
		// n is at most the replica count, so scanning out beats a set.
		if p := r.points[(idx+i)%len(r.points)]; !slices.Contains(out, p.node) {
			out = append(out, p.node)
		}
	}
	return out
}

// vnodeHash hashes "node#v" given prefix = "node#"; it may append to prefix's
// spare capacity.
func vnodeHash(prefix []byte, v int) uint64 {
	h := sha1.Sum(strconv.AppendInt(prefix, int64(v), 10))
	return binary.BigEndian.Uint64(h[:8])
}

func keyHash(key []byte) uint64 {
	h := sha1.Sum(key)
	return binary.BigEndian.Uint64(h[:8])
}
