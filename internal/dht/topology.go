package dht

import (
	"encoding/binary"
	"fmt"
	"sort"

	"mendel/internal/seq"
)

// RegionShift sets the second tier's unit of placement: the blocks of one
// sequence whose starts agree above the low RegionShift bits form a region
// of 256 residues, and each group places a region as a whole.
const RegionShift = 8

// Topology is the cluster layout every Mendel node shares: an ordered list
// of groups, each backed by its own consistent-hash ring. Group membership
// is decided by the vp-prefix tree (first tier); this type answers "which
// node within the group" (second tier) and enumerates fan-out targets.
type Topology struct {
	groups []*Ring
	byNode map[string]int // node -> group index
}

// NewTopology builds a topology from per-group node address lists. Every
// group must have at least one node, and a node may belong to exactly one
// group.
func NewTopology(groups [][]string, vnodesPerNode int) (*Topology, error) {
	if len(groups) == 0 {
		return nil, fmt.Errorf("dht: no groups")
	}
	t := &Topology{byNode: make(map[string]int)}
	for gi, members := range groups {
		if len(members) == 0 {
			return nil, fmt.Errorf("dht: group %d is empty", gi)
		}
		for _, n := range members {
			if prev, dup := t.byNode[n]; dup {
				return nil, fmt.Errorf("dht: node %q in groups %d and %d", n, prev, gi)
			}
			t.byNode[n] = gi
		}
		t.groups = append(t.groups, NewRing(vnodesPerNode, members...))
	}
	return t, nil
}

// SplitNodes partitions a flat node list into numGroups groups round-robin,
// the layout used when the operator specifies only group count (§IV-C: size
// and quantity of groups are user-configurable).
func SplitNodes(nodes []string, numGroups int) ([][]string, error) {
	if numGroups <= 0 {
		return nil, fmt.Errorf("dht: numGroups = %d", numGroups)
	}
	if len(nodes) < numGroups {
		return nil, fmt.Errorf("dht: %d nodes cannot fill %d groups", len(nodes), numGroups)
	}
	groups := make([][]string, numGroups)
	for i, n := range nodes {
		groups[i%numGroups] = append(groups[i%numGroups], n)
	}
	return groups, nil
}

// Groups returns the number of groups.
func (t *Topology) Groups() int { return len(t.groups) }

// GroupNodes returns the members of group g in sorted order.
func (t *Topology) GroupNodes(g int) []string { return t.groups[g].Nodes() }

// GroupOf returns the group a node belongs to.
func (t *Topology) GroupOf(node string) (int, bool) {
	g, ok := t.byNode[node]
	return g, ok
}

// NodeFor returns the node within group g that owns key on the group's ring.
func (t *Topology) NodeFor(g int, key []byte) string { return t.groups[g].Lookup(key) }

// ReplicasFor returns the n-node replica set within group g for an arbitrary
// key. Blocks are placed by Place, not by this; the benchmark's replay still
// keys it on block content.
func (t *Topology) ReplicasFor(g int, key []byte, n int) []string {
	return t.groups[g].LookupN(key, n)
}

// Place returns the n-node replica set within group g that holds the block
// of sequence id starting at start: the second-tier placement that ingest
// and repair share. It hashes the block's region (id, start >> RegionShift)
// onto the group's ring, so every block of a region that the first tier
// sends to g lands on the same nodes, their contexts form one run there, and
// placement is a function of the block reference alone.
func (t *Topology) Place(g int, id seq.ID, start, n int) []string {
	var key [8]byte
	binary.BigEndian.PutUint32(key[:4], uint32(id))
	binary.BigEndian.PutUint32(key[4:], uint32(start>>RegionShift))
	return t.groups[g].lookupN(keyHash(key[:]), n)
}

// AllNodes returns every node address in the cluster, sorted.
func (t *Topology) AllNodes() []string {
	out := make([]string, 0, len(t.byNode))
	for n := range t.byNode {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// NumNodes returns the total node count.
func (t *Topology) NumNodes() int { return len(t.byNode) }

// AddNode joins a node to group g, remapping only adjacent ring keys.
func (t *Topology) AddNode(g int, node string) error {
	if g < 0 || g >= len(t.groups) {
		return fmt.Errorf("dht: group %d out of range", g)
	}
	if prev, dup := t.byNode[node]; dup {
		return fmt.Errorf("dht: node %q already in group %d", node, prev)
	}
	t.byNode[node] = g
	t.groups[g].Add(node)
	return nil
}

// RemoveNode removes a node from the cluster. The last node of a group
// cannot be removed: the group would become unroutable.
func (t *Topology) RemoveNode(node string) error {
	g, ok := t.byNode[node]
	if !ok {
		return fmt.Errorf("dht: unknown node %q", node)
	}
	if t.groups[g].Len() == 1 {
		return fmt.Errorf("dht: node %q is the last member of group %d", node, g)
	}
	delete(t.byNode, node)
	t.groups[g].Remove(node)
	return nil
}
