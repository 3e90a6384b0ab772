package vptree

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"unsafe"

	"mendel/internal/metric"
	"mendel/internal/seq"
)

// TestNearestEqualsBruteForceProperty: for both metrics, for trees built in
// bulk and trees grown by insertion, an unlimited-budget Nearest returns
// exactly the distances a linear scan through Metric.Distance finds, and
// every hit carries its own key (the slab view) and its true distance.
func TestNearestEqualsBruteForceProperty(t *testing.T) {
	kinds := []struct {
		m       metric.Metric
		letters string
	}{
		{metric.ForKind(seq.Protein), "ARNDCQEGHILKMFPSTWYVXa"},
		{metric.ForKind(seq.DNA), "ACGTN"},
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		kind := kinds[rng.Intn(len(kinds))]
		keyLen := []int{1, 7, 16, 19, 32}[rng.Intn(5)]
		randKey := func() []byte {
			k := make([]byte, keyLen)
			for i := range k {
				k[i] = kind.letters[rng.Intn(len(kind.letters))]
			}
			return k
		}
		items := make([]Item, rng.Intn(600)+1)
		byRef := map[uint64][]byte{}
		for i := range items {
			items[i] = Item{Key: randKey(), Ref: uint64(i)}
			byRef[uint64(i)] = items[i].Key
		}
		bucketCap := []int{1, 4, 32}[rng.Intn(3)]
		tr := Build(kind.m, bucketCap, seed, items[:len(items)/2])
		for _, it := range items[len(items)/2:] {
			tr.Insert(it)
		}
		if err := tr.checkInvariants(); err != nil {
			t.Log(err)
			return false
		}
		for trial := 0; trial < 5; trial++ {
			q, k := randKey(), rng.Intn(15)+1
			want := make([]int, len(items))
			for i, it := range items {
				want[i] = kind.m.Distance(q, it.Key)
			}
			sort.Ints(want)
			got := tr.Nearest(q, k)
			if len(got) != min(k, len(items)) {
				return false
			}
			for i, r := range got {
				if r.Dist != want[i] || !bytes.Equal(r.Key, byRef[r.Ref]) || r.Dist != kind.m.Distance(q, r.Key) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestLookupAllocations pins the lookup's allocation budget: with its own
// Searcher a lookup allocates the result slice and nothing else, and the
// pooled path of Tree.NearestBudgetVisits stays within two. The pooled figure
// is the best of several runs because sync.Pool drops entries at random
// under the race detector.
func TestLookupAllocations(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	tr := Build(metric.ForKind(seq.Protein), 0, 7, randomProteinItems(t, rng, 5000, 16))
	q := randomProteinItems(t, rng, 1, 16)[0].Key
	var s Searcher
	for _, minMatch := range []int{0, 5} {
		if got := testing.AllocsPerRun(50, func() { s.NearestEligible(tr, q, 12, 4096, minMatch) }); got != 1 {
			t.Fatalf("Searcher.NearestEligible(minMatch %d) allocates %v times per lookup, want 1", minMatch, got)
		}
	}
	best := 1e9
	for i := 0; i < 20; i++ {
		best = min(best, testing.AllocsPerRun(1, func() { tr.NearestBudgetVisits(q, 12, 4096) }))
	}
	if best > 2 {
		t.Fatalf("Tree.NearestBudgetVisits allocates %v times per lookup, want <= 2", best)
	}
}

// TestSearcherReuseAcrossTrees: one Searcher serves trees of different key
// lengths and metrics back to back, and answers as a fresh one does.
func TestSearcherReuseAcrossTrees(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	protein := Build(metric.ForKind(seq.Protein), 8, 7, randomProteinItems(t, rng, 700, 24))
	dna := Build(metric.Hamming{}, 8, 7, randomItems(rng, 700, 9))
	var s Searcher
	for i := 0; i < 6; i++ {
		tr, q := protein, randomProteinItems(t, rng, 1, 24)[0].Key
		if i%2 == 1 {
			tr, q = dna, randDNA(rng, 9)
		}
		minMatch := i / 2 // 0 is unscreened
		got, gotVisits := s.NearestEligible(tr, q, 5, 200, minMatch)
		want, wantVisits := new(Searcher).NearestEligible(tr, q, 5, 200, minMatch)
		if gotVisits != wantVisits || len(got) != len(want) {
			t.Fatalf("lookup %d: reused searcher %d hits/%d visits, fresh %d/%d", i, len(got), gotVisits, len(want), wantVisits)
		}
		for j := range got {
			if got[j].Ref != want[j].Ref || got[j].Dist != want[j].Dist {
				t.Fatalf("lookup %d hit %d: reused %+v, fresh %+v", i, j, got[j], want[j])
			}
		}
	}
}

func TestKeyLengthMismatchPanics(t *testing.T) {
	tr := Build(metric.Hamming{}, 4, 7, randomItems(rand.New(rand.NewSource(63)), 50, 8))
	for name, f := range map[string]func(){
		"query":  func() { tr.Nearest([]byte("ACG"), 1) },
		"insert": func() { tr.Insert(Item{Key: []byte("ACGTACGTA"), Ref: 1}) },
		"batch":  func() { tr.InsertBatch([]Item{{Key: []byte("ACGTACGT")}, {Key: []byte("A")}}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s with a key of another length did not panic", name)
				}
			}()
			f()
		}()
	}
}

// TestVertexSize keeps a vertex in the 80-byte allocation class: at 81 bytes
// or more the allocator hands each one 96 or 112, and every vertex of every
// node's tree pays it.
func TestVertexSize(t *testing.T) {
	if size := unsafe.Sizeof(node{}); size > 80 {
		t.Fatalf("vertex is %d bytes, budget 80", size)
	}
}
