package dht

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"mendel/internal/seq"
)

func testGroups(groups, perGroup int) [][]string {
	out := make([][]string, groups)
	for g := range out {
		for i := 0; i < perGroup; i++ {
			out[g] = append(out[g], fmt.Sprintf("g%d-n%d", g, i))
		}
	}
	return out
}

func TestNewTopologyValidation(t *testing.T) {
	if _, err := NewTopology(nil, 0); err == nil {
		t.Error("no groups accepted")
	}
	if _, err := NewTopology([][]string{{}}, 0); err == nil {
		t.Error("empty group accepted")
	}
	if _, err := NewTopology([][]string{{"a"}, {"a"}}, 0); err == nil {
		t.Error("duplicate node accepted")
	}
}

func TestTopologyAccessors(t *testing.T) {
	top, err := NewTopology(testGroups(10, 5), 16)
	if err != nil {
		t.Fatal(err)
	}
	if top.Groups() != 10 || top.NumNodes() != 50 {
		t.Fatalf("groups=%d nodes=%d", top.Groups(), top.NumNodes())
	}
	if len(top.AllNodes()) != 50 {
		t.Fatal("AllNodes wrong")
	}
	if members := top.GroupNodes(3); len(members) != 5 {
		t.Fatalf("group 3 members = %v", members)
	}
	g, ok := top.GroupOf("g7-n2")
	if !ok || g != 7 {
		t.Fatalf("GroupOf = %d %v", g, ok)
	}
	if _, ok := top.GroupOf("nope"); ok {
		t.Fatal("unknown node resolved")
	}
}

func TestNodeForStaysInGroup(t *testing.T) {
	top, err := NewTopology(testGroups(6, 4), 16)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 500; i++ {
		g := rng.Intn(6)
		node := top.NodeFor(g, randKey(rng))
		if got, _ := top.GroupOf(node); got != g {
			t.Fatalf("NodeFor(%d) returned node of group %d", g, got)
		}
	}
}

func TestReplicasFor(t *testing.T) {
	top, _ := NewTopology(testGroups(2, 5), 16)
	reps := top.ReplicasFor(1, []byte("key"), 3)
	if len(reps) != 3 {
		t.Fatalf("replicas = %v", reps)
	}
	for _, n := range reps {
		if g, _ := top.GroupOf(n); g != 1 {
			t.Fatal("replica outside group")
		}
	}
}

// TestPlaceByRegion checks the second-tier placement: a replica set inside
// the group, one set for every block of a region, regions spread evenly over
// the group's nodes, and a pinned digest of the placement of a fixed
// 20-node topology, since stored blocks and snapshots depend on it.
func TestPlaceByRegion(t *testing.T) {
	top, _ := NewTopology(testGroups(2, 5), 0)
	load := make(map[string]int)
	for id := seq.ID(0); id < 500; id++ {
		for region := 0; region < 8; region++ {
			base := region << RegionShift
			reps := top.Place(1, id, base, 2)
			if len(reps) != 2 || reps[0] == reps[1] {
				t.Fatalf("replicas = %v", reps)
			}
			for _, n := range reps {
				if g, _ := top.GroupOf(n); g != 1 {
					t.Fatal("replica outside group")
				}
			}
			for _, off := range []int{1, 100, 1<<RegionShift - 1} {
				if got := top.Place(1, id, base+off, 2); !slices.Equal(got, reps) {
					t.Fatalf("seq %d: block %d on %v, block %d on %v", id, base+off, got, base, reps)
				}
			}
			load[reps[0]]++
		}
	}
	if len(load) != 5 {
		t.Fatalf("regions land on %d of 5 nodes", len(load))
	}
	for n, c := range load { // 4000 regions over 5 nodes: 800 each on average
		if c < 600 || c > 1000 {
			t.Errorf("node %s owns %d of 4000 regions", n, c)
		}
	}

	const want = "32463f10b113ee9a7b1d65b45b6f3e25da73b44b030bb5cdf075424e226d0cf0"
	var nodes []string
	for i := 0; i < 20; i++ {
		nodes = append(nodes, fmt.Sprintf("127.0.0.1:%d", 7001+i))
	}
	groups, _ := SplitNodes(nodes, 4)
	pinned, _ := NewTopology(groups, 0)
	h := sha256.New()
	for id := seq.ID(0); id < 50; id++ {
		for start := 0; start < 2000; start += 100 {
			for g := 0; g < pinned.Groups(); g++ {
				fmt.Fprintln(h, pinned.Place(g, id, start, 2))
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("placement digest %s, pinned %s", got, want)
	}
}

func TestSplitNodes(t *testing.T) {
	nodes := []string{"a", "b", "c", "d", "e", "f", "g"}
	groups, err := SplitNodes(nodes, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 3 {
		t.Fatalf("groups = %d", len(groups))
	}
	total := 0
	for _, g := range groups {
		total += len(g)
		if len(g) < 2 || len(g) > 3 {
			t.Fatalf("unbalanced group %v", g)
		}
	}
	if total != 7 {
		t.Fatalf("total = %d", total)
	}
	if _, err := SplitNodes(nodes, 0); err == nil {
		t.Error("zero groups accepted")
	}
	if _, err := SplitNodes([]string{"a"}, 2); err == nil {
		t.Error("fewer nodes than groups accepted")
	}
}

func TestAddRemoveNode(t *testing.T) {
	top, _ := NewTopology(testGroups(2, 2), 16)
	if err := top.AddNode(5, "x"); err == nil {
		t.Error("out-of-range group accepted")
	}
	if err := top.AddNode(1, "g0-n0"); err == nil {
		t.Error("duplicate add accepted")
	}
	if err := top.AddNode(1, "new-node"); err != nil {
		t.Fatal(err)
	}
	if g, _ := top.GroupOf("new-node"); g != 1 {
		t.Fatal("added node in wrong group")
	}
	if err := top.RemoveNode("ghost"); err == nil {
		t.Error("unknown remove accepted")
	}
	if err := top.RemoveNode("new-node"); err != nil {
		t.Fatal(err)
	}
	// Drain group 0 down to one node; the last removal must fail.
	if err := top.RemoveNode("g0-n1"); err != nil {
		t.Fatal(err)
	}
	if err := top.RemoveNode("g0-n0"); err == nil {
		t.Error("removed last node of a group")
	}
}

func TestJoinRemapsOnlyWithinGroup(t *testing.T) {
	top, _ := NewTopology(testGroups(3, 4), 32)
	rng := rand.New(rand.NewSource(5))
	keys := make([][]byte, 2000)
	before := make([]string, len(keys))
	for i := range keys {
		keys[i] = randKey(rng)
		before[i] = top.NodeFor(1, keys[i])
	}
	// Adding a node to group 2 must not disturb group 1 placement.
	if err := top.AddNode(2, "late-joiner"); err != nil {
		t.Fatal(err)
	}
	for i := range keys {
		if top.NodeFor(1, keys[i]) != before[i] {
			t.Fatal("join in group 2 remapped keys of group 1")
		}
	}
}
