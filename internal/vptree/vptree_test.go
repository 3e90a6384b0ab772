package vptree

import (
	"math/rand"
	"sort"
	"testing"

	"mendel/internal/metric"
)

func randDNA(rng *rand.Rand, n int) []byte {
	const letters = "ACGT"
	out := make([]byte, n)
	for i := range out {
		out[i] = letters[rng.Intn(4)]
	}
	return out
}

func randomItems(rng *rand.Rand, n, keyLen int) []Item {
	items := make([]Item, n)
	for i := range items {
		items[i] = Item{Key: randDNA(rng, keyLen), Ref: uint64(i)}
	}
	return items
}

// bruteKNN is the reference nearest-neighbour implementation.
func bruteKNN(m metric.Metric, items []Item, q []byte, k int) []Result {
	res := make([]Result, 0, len(items))
	for _, it := range items {
		res = append(res, Result{Item: it, Dist: m.Distance(q, it.Key)})
	}
	sort.SliceStable(res, func(a, b int) bool { return res[a].Dist < res[b].Dist })
	if k > len(res) {
		k = len(res)
	}
	return res[:k]
}

func TestBuildInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 5, 31, 32, 33, 100, 1000} {
		tr := Build(metric.Hamming{}, 8, 7, randomItems(rng, n, 16))
		if tr.Size() != n {
			t.Fatalf("n=%d: size = %d", n, tr.Size())
		}
		if err := tr.checkInvariants(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

func TestBuildIsBalanced(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	tr := Build(metric.Hamming{}, 8, 7, randomItems(rng, 4096, 16))
	// A balanced tree over 4096 items with bucket 8 has ~512 leaves and
	// height around 9-10; allow generous slack but reject linear chains.
	if h := tr.Height(); h > 16 {
		t.Fatalf("height = %d, tree is unbalanced", h)
	}
	if l := tr.Leaves(); l < 256 {
		t.Fatalf("leaves = %d", l)
	}
}

func TestNearestMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := metric.Hamming{}
	items := randomItems(rng, 500, 12)
	tr := Build(m, 8, 7, items)
	for trial := 0; trial < 50; trial++ {
		q := randDNA(rng, 12)
		k := rng.Intn(10) + 1
		got := tr.Nearest(q, k)
		want := bruteKNN(m, items, q, k)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d results, want %d", trial, len(got), len(want))
		}
		for i := range got {
			// Distances must match exactly; ties may order differently.
			if got[i].Dist != want[i].Dist {
				t.Fatalf("trial %d: dist[%d] = %d, want %d", trial, i, got[i].Dist, want[i].Dist)
			}
		}
	}
}

func TestNearestExactMatchFirst(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	items := randomItems(rng, 300, 10)
	tr := Build(metric.Hamming{}, 8, 7, items)
	target := items[137]
	got := tr.Nearest(target.Key, 1)
	if len(got) != 1 || got[0].Dist != 0 {
		t.Fatalf("exact match not found: %+v", got)
	}
}

func TestNearestKLargerThanTree(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	items := randomItems(rng, 7, 8)
	tr := Build(metric.Hamming{}, 4, 7, items)
	got := tr.Nearest(randDNA(rng, 8), 100)
	if len(got) != 7 {
		t.Fatalf("results = %d, want 7", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i].Dist < got[i-1].Dist {
			t.Fatal("results not sorted by distance")
		}
	}
}

func TestNearestDegenerate(t *testing.T) {
	tr := New(metric.Hamming{}, 4, 7)
	if got := tr.Nearest([]byte("ACGT"), 3); got != nil {
		t.Fatalf("empty tree returned %v", got)
	}
	tr.Insert(Item{Key: []byte("ACGT"), Ref: 1})
	if got := tr.Nearest([]byte("ACGT"), 0); got != nil {
		t.Fatal("k=0 should return nil")
	}
}

func TestAllIdenticalKeys(t *testing.T) {
	// Degenerate dataset: every key identical. Build must not recurse
	// forever; search must find them all.
	items := make([]Item, 100)
	for i := range items {
		items[i] = Item{Key: []byte("AAAA"), Ref: uint64(i)}
	}
	tr := Build(metric.Hamming{}, 8, 7, items)
	if tr.Size() != 100 {
		t.Fatalf("size = %d", tr.Size())
	}
	if got := tr.Nearest([]byte("AAAA"), 5); len(got) != 5 || got[0].Dist != 0 {
		t.Fatalf("degenerate search: %v", got)
	}
	if err := tr.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}
