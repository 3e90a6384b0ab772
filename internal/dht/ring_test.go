package dht

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func ringWith(n int) *Ring {
	r := NewRing(0)
	for i := 0; i < n; i++ {
		r.Add(fmt.Sprintf("node-%02d", i))
	}
	return r
}

func randKey(rng *rand.Rand) []byte {
	k := make([]byte, 16)
	rng.Read(k)
	return k
}

func TestLookupDeterministic(t *testing.T) {
	r := ringWith(10)
	f := func(key []byte) bool {
		return r.Lookup(key) == r.Lookup(key)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLookupEmptyRingPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewRing(0).Lookup([]byte("key"))
}

func TestAddRemoveIdempotent(t *testing.T) {
	r := NewRing(8)
	r.Add("a")
	r.Add("a")
	if r.Len() != 1 || len(r.points) != 8 {
		t.Fatalf("len=%d points=%d", r.Len(), len(r.points))
	}
	r.Remove("missing")
	r.Remove("a")
	r.Remove("a")
	if r.Len() != 0 || len(r.points) != 0 {
		t.Fatal("remove failed")
	}
}

func TestLoadBalanceIsEven(t *testing.T) {
	// The paper claims near-optimal balance within groups from the flat
	// SHA-1 scheme; with virtual nodes the skew should be modest.
	r := ringWith(10)
	rng := rand.New(rand.NewSource(1))
	counts := map[string]int{}
	const keys = 20000
	for i := 0; i < keys; i++ {
		counts[r.Lookup(randKey(rng))]++
	}
	fair := keys / 10
	for n, c := range counts {
		if c < fair/2 || c > fair*2 {
			t.Fatalf("node %s holds %d keys (fair %d)", n, c, fair)
		}
	}
}

func TestConsistencyUnderJoin(t *testing.T) {
	// Adding one node to a 10-node ring should move roughly 1/11 of keys
	// and certainly less than 30%.
	r := ringWith(10)
	rng := rand.New(rand.NewSource(2))
	keys := make([][]byte, 5000)
	before := make([]string, len(keys))
	for i := range keys {
		keys[i] = randKey(rng)
		before[i] = r.Lookup(keys[i])
	}
	r.Add("node-99")
	moved, movedElsewhere := 0, 0
	for i := range keys {
		after := r.Lookup(keys[i])
		if after != before[i] {
			moved++
			if after != "node-99" {
				movedElsewhere++
			}
		}
	}
	if moved > len(keys)*30/100 {
		t.Fatalf("join moved %d/%d keys", moved, len(keys))
	}
	if movedElsewhere != 0 {
		t.Fatalf("%d keys moved to a node other than the new one", movedElsewhere)
	}
}

func TestConsistencyUnderLeave(t *testing.T) {
	r := ringWith(10)
	rng := rand.New(rand.NewSource(3))
	keys := make([][]byte, 5000)
	before := make([]string, len(keys))
	for i := range keys {
		keys[i] = randKey(rng)
		before[i] = r.Lookup(keys[i])
	}
	r.Remove("node-04")
	for i := range keys {
		after := r.Lookup(keys[i])
		if before[i] != "node-04" && after != before[i] {
			t.Fatalf("key %d moved from %s to %s though its node stayed", i, before[i], after)
		}
		if after == "node-04" {
			t.Fatal("key routed to removed node")
		}
	}
}

func TestLookupN(t *testing.T) {
	r := ringWith(5)
	key := []byte("replicated-key")
	got := r.LookupN(key, 3)
	if len(got) != 3 {
		t.Fatalf("replicas = %d", len(got))
	}
	seen := map[string]bool{}
	for _, n := range got {
		if seen[n] {
			t.Fatal("duplicate replica")
		}
		seen[n] = true
	}
	if got[0] != r.Lookup(key) {
		t.Fatal("first replica must be the primary owner")
	}
	if all := r.LookupN(key, 99); len(all) != 5 {
		t.Fatalf("clamped replicas = %d", len(all))
	}
	if none := r.LookupN(key, 0); none != nil {
		t.Fatal("n=0 should return nil")
	}
}

func TestNodesSorted(t *testing.T) {
	r := NewRing(4)
	for _, n := range []string{"c", "a", "b"} {
		r.Add(n)
	}
	got := r.Nodes()
	if len(got) != 3 || got[0] != "a" || got[2] != "c" {
		t.Fatalf("nodes = %v", got)
	}
}

// pointsDigest hashes a ring's points, in ring order.
func pointsDigest(h hash.Hash, r *Ring) {
	for _, p := range r.points {
		h.Write(binary.BigEndian.AppendUint64(nil, p.hash))
		h.Write([]byte(p.node))
		h.Write([]byte{0})
	}
}

// TestRingPointsPinned pins the points of a fixed 20-node, 4-group topology
// and of the ring over all 20 nodes (the sequence-shard ring) to the values
// the incremental one-node-at-a-time construction produced before rings were
// built in one sort: that must not move a single key, and growing a ring by
// Add must still give the same points.
func TestRingPointsPinned(t *testing.T) {
	const want = "9827ea9afc3d7f2e0eea4a2c2ee895067be1b7ceb116d562f771fb65dfd9e43f"
	var nodes []string
	for i := 0; i < 20; i++ {
		nodes = append(nodes, fmt.Sprintf("127.0.0.1:%d", 7001+i))
	}
	groups, err := SplitNodes(nodes, 4)
	if err != nil {
		t.Fatal(err)
	}
	topo, err := NewTopology(groups, 0)
	if err != nil {
		t.Fatal(err)
	}
	all := NewRing(0, nodes...)
	grown := NewRing(0)
	for _, n := range nodes {
		grown.Add(n)
	}
	if !reflect.DeepEqual(all.points, grown.points) {
		t.Fatal("a ring built in one sort differs from the same ring grown by Add")
	}
	h := sha256.New()
	for g := 0; g < topo.Groups(); g++ {
		pointsDigest(h, topo.groups[g])
	}
	pointsDigest(h, all)
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("ring points digest %s, pinned %s", got, want)
	}
}
