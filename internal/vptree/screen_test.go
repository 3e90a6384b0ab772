package vptree

import (
	"bytes"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"unsafe"

	"mendel/internal/metric"
	"mendel/internal/seq"
)

// screenKind is one molecule kind's test setup: keys draw from letters, a few
// salted with odd bytes; queries are half random, half point mutations of
// indexed keys, so every minMatch from 0 up has eligible keys somewhere.
type screenKind struct {
	name         string
	m            metric.Metric
	letters, odd string
}

var screenKinds = []screenKind{
	{"protein", metric.ForKind(seq.Protein), "ARNDCQEGHILKMFPSTWYV", "XBZ*a"},
	{"dna", metric.ForKind(seq.DNA), "ACGT", "Nn"},
}

// screenTrees returns, per kind, a bulk-built tree and one grown from empty
// through Insert and InsertBatch, with the items each holds.
func screenTrees(rng *rand.Rand, kind screenKind, n int) (trees []*Tree, items [][]Item) {
	all := goldenItems(goldenKeys(rng, n, kind.letters, kind.odd), 0)
	built := Build(kind.m, 0, 7, all)
	grown := New(kind.m, 8, 11)
	for _, it := range all[:n/3] {
		grown.Insert(it)
	}
	grown.InsertBatch(all[n/3 : n/2])
	for _, it := range all[n/2 : n-20] {
		grown.Insert(it)
	}
	grown.InsertBatch(all[n-20:])
	return []*Tree{built, grown}, [][]Item{all, all}
}

func screenQueries(rng *rand.Rand, kind screenKind, items []Item, n int) [][]byte {
	qs := goldenKeys(rng, n, kind.letters, kind.odd)
	for i := 0; i < n; i += 2 {
		q := append([]byte(nil), items[rng.Intn(len(items))].Key...)
		for m := rng.Intn(12); m > 0; m-- {
			q[rng.Intn(len(q))] = kind.letters[rng.Intn(len(kind.letters))]
		}
		qs[i] = q
	}
	return qs
}

// matches counts byte-equal positions through the Hamming metric's byte loop,
// not the kernel the lookup screens with.
func matches(a, b []byte) int { return len(a) - metric.Hamming{}.Distance(a, b) }

// TestEligibleEqualsFilterThenRank: with an unlimited budget the screened
// lookup returns what filtering every item by its match count and ranking the
// rest by Metric.Distance returns — the same distances in the same order,
// every eligible item closer than the k-th without exception, and at the k-th
// distance (where a tie may be broken either way) only true ties.
func TestEligibleEqualsFilterThenRank(t *testing.T) {
	for _, kind := range screenKinds {
		rng := rand.New(rand.NewSource(71))
		trees, items := screenTrees(rng, kind, 1500)
		for ti, tr := range trees {
			if err := tr.checkInvariants(); err != nil {
				t.Fatal(err)
			}
			byRef := map[uint64][]byte{}
			for _, it := range items[ti] {
				byRef[it.Ref] = it.Key
			}
			var s Searcher
			for _, q := range screenQueries(rng, kind, items[ti], 24) {
				for _, minMatch := range []int{0, 1, 3, 5, 9, 16, 17} {
					k := rng.Intn(14) + 1
					var want []Result
					for _, it := range items[ti] {
						if matches(q, it.Key) >= minMatch {
							want = append(want, Result{Item: it, Dist: kind.m.Distance(q, it.Key)})
						}
					}
					sort.SliceStable(want, func(i, j int) bool { return want[i].Dist < want[j].Dist })
					got, _ := s.NearestEligible(tr, q, k, 0, minMatch)
					if len(got) != min(k, len(want)) {
						t.Fatalf("%s tree %d minMatch %d k %d: %d results, %d eligible items", kind.name, ti, minMatch, k, len(got), len(want))
					}
					if len(got) == 0 {
						continue
					}
					kth, seen := got[len(got)-1].Dist, map[uint64]bool{}
					for i, r := range got {
						if r.Dist != want[i].Dist || seen[r.Ref] || !bytes.Equal(r.Key, byRef[r.Ref]) ||
							r.Dist != kind.m.Distance(q, r.Key) || matches(q, r.Key) < minMatch {
							t.Fatalf("%s tree %d minMatch %d k %d: result %d = %+v, filter-then-rank has distance %d there", kind.name, ti, minMatch, k, i, r, want[i].Dist)
						}
						seen[r.Ref] = true
					}
					for _, w := range want {
						if w.Dist < kth && !seen[w.Ref] {
							t.Fatalf("%s tree %d minMatch %d k %d: eligible ref %d at distance %d < %d is missing", kind.name, ti, minMatch, k, w.Ref, w.Dist, kth)
						}
					}
				}
			}
		}
	}
}

// TestEligibleKeepsWhatTheFilterKept: the lookup a storage node used to run
// — k nearest of all keys, then drop those below the match count — never
// keeps a key the screened lookup does not return, up to a tie at the
// screened lookup's k-th distance.
func TestEligibleKeepsWhatTheFilterKept(t *testing.T) {
	for _, kind := range screenKinds {
		rng := rand.New(rand.NewSource(72))
		trees, items := screenTrees(rng, kind, 1500)
		var s Searcher
		for ti, tr := range trees {
			kept := 0
			for _, q := range screenQueries(rng, kind, items[ti], 40) {
				for _, minMatch := range []int{2, 5, 8} {
					screened, _ := s.NearestEligible(tr, q, 12, 0, minMatch)
					in := map[uint64]bool{}
					for _, r := range screened {
						in[r.Ref] = true
					}
					for _, r := range tr.Nearest(q, 12) {
						if matches(q, r.Key) < minMatch {
							continue
						}
						kept++
						if !in[r.Ref] && r.Dist != screened[len(screened)-1].Dist {
							t.Fatalf("%s tree %d minMatch %d: top-12-then-filter keeps ref %d (distance %d), the screened lookup drops it", kind.name, ti, minMatch, r.Ref, r.Dist)
						}
					}
				}
			}
			if kept == 0 {
				t.Fatalf("%s tree %d: the filter kept nothing; the test compares nothing", kind.name, ti)
			}
		}
	}
}

// TestEligibleBudgetAccounting: a screened key costs one evaluation like any
// other, so a lookup no key is eligible for (nothing fills the heap, nothing
// is pruned) spends exactly its budget — which a leaf charging its full
// length when fewer evaluations remain would overshoot — and a screened
// lookup never spends more than an unscreened one is allowed.
func TestEligibleBudgetAccounting(t *testing.T) {
	for _, kind := range screenKinds {
		rng := rand.New(rand.NewSource(73))
		trees, items := screenTrees(rng, kind, 6000)
		var s Searcher
		for ti, tr := range trees {
			all := tr.Size() + tr.Leaves() - 1 // every key, and a vantage point per internal vertex
			for _, q := range screenQueries(rng, kind, items[ti], 12) {
				for _, budget := range []int{64, 4096, all - 1, all, all + 1, 0} {
					want := budget
					if budget == 0 || budget > all {
						want = all
					}
					if got, visits := s.NearestEligible(tr, q, 12, budget, goldenKeyLen+1); len(got) != 0 || visits != want {
						t.Fatalf("%s tree %d budget %d, nothing eligible: %d results, %d visits, want 0 and %d", kind.name, ti, budget, len(got), visits, want)
					}
					if budget == 0 {
						continue
					}
					for _, minMatch := range []int{0, 3, 5} {
						if _, visits := s.NearestEligible(tr, q, 12, budget, minMatch); visits > budget {
							t.Fatalf("%s tree %d budget %d minMatch %d: %d visits", kind.name, ti, budget, minMatch, visits)
						}
					}
				}
			}
		}
	}
}

// TestBuildLaysLeavesOutInOrder: after a bulk build the leaves tile one keys
// array and one refs array, left to right, each capped at its length.
func TestBuildLaysLeavesOutInOrder(t *testing.T) {
	for _, kind := range screenKinds {
		rng := rand.New(rand.NewSource(74))
		tr := Build(kind.m, 0, 7, goldenItems(goldenKeys(rng, 9000, kind.letters, kind.odd), 0))
		if tr.Leaves() < 100 {
			t.Fatalf("%d leaves: not a tree worth laying out", tr.Leaves())
		}
		var nextKey, nextRef uintptr
		eachLeaf(tr.root, func(leaf slab) {
			if cap(leaf.keys) != len(leaf.keys) || cap(leaf.refs) != len(leaf.refs) {
				t.Fatalf("%s: leaf with spare capacity (%d/%d key bytes, %d/%d refs): an append would overwrite its neighbour",
					kind.name, len(leaf.keys), cap(leaf.keys), len(leaf.refs), cap(leaf.refs))
			}
			keyAt, refAt := uintptr(unsafe.Pointer(&leaf.keys[0])), uintptr(unsafe.Pointer(&leaf.refs[0]))
			if nextKey != 0 && (keyAt != nextKey || refAt != nextRef) {
				t.Fatalf("%s: leaf keys at %#x refs at %#x, the leaf to its left ends at %#x and %#x", kind.name, keyAt, refAt, nextKey, nextRef)
			}
			nextKey, nextRef = keyAt+uintptr(len(leaf.keys)), refAt+8*uintptr(len(leaf.refs))
		})
	}
}

// TestInsertsLeaveArenaNeighboursIntact: 2,000 single and batched inserts
// into a bulk-built tree append to leaves that sit in the arena, rebuild
// subtrees and rebuild the whole tree; afterwards the invariants hold and
// every ref still carries exactly the key it was given, so no append wrote
// past its leaf.
func TestInsertsLeaveArenaNeighboursIntact(t *testing.T) {
	for _, kind := range screenKinds {
		rng := rand.New(rand.NewSource(75))
		keys := goldenKeys(rng, 5000, kind.letters, kind.odd)
		tr := Build(kind.m, 8, 7, goldenItems(keys[:3000], 0))
		for at, calls := 3000, 0; calls < 2000 && at < len(keys); calls++ {
			n := 1
			if calls%50 == 49 {
				n = min(rng.Intn(30)+2, len(keys)-at)
				tr.InsertBatch(goldenItems(keys[at:at+n], uint64(at)))
			} else {
				tr.Insert(Item{Key: keys[at], Ref: uint64(at)})
			}
			at += n
			if calls%100 == 0 || at == len(keys) {
				if err := tr.checkInvariants(); err != nil {
					t.Fatalf("%s after %d inserts: %v", kind.name, at-3000, err)
				}
			}
		}
		got := tr.Items()
		if len(got) != tr.Size() {
			t.Fatalf("%s: %d items, size %d", kind.name, len(got), tr.Size())
		}
		seen := map[uint64]bool{}
		for _, it := range got {
			if seen[it.Ref] || !bytes.Equal(it.Key, keys[it.Ref]) {
				t.Fatalf("%s: ref %d holds %q, was given %q (seen before: %v)", kind.name, it.Ref, it.Key, keys[it.Ref], seen[it.Ref])
			}
			seen[it.Ref] = true
		}
	}
}

// TestConcurrentScreenedLookups: lookups only read the tree, so any number
// may run at once, each on its own Searcher or through the pooled
// Tree.NearestBudgetVisits; run with -race.
func TestConcurrentScreenedLookups(t *testing.T) {
	kind := screenKinds[0]
	rng := rand.New(rand.NewSource(76))
	trees, items := screenTrees(rng, kind, 4000)
	tr := trees[1]
	queries := screenQueries(rng, kind, items[1], 32)
	type answer struct {
		res    []Result
		visits int
	}
	lookup := func(s *Searcher, i int) answer {
		var a answer
		if i%3 == 2 {
			a.res, a.visits = tr.NearestBudgetVisits(queries[i], 12, 512)
		} else {
			a.res, a.visits = s.NearestEligible(tr, queries[i], 12, 512, 5*(i%3))
		}
		return a
	}
	want := make([]answer, len(queries))
	for i := range queries {
		want[i] = lookup(new(Searcher), i)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var s Searcher
			for round := 0; round < 20; round++ {
				i := (g + round) % len(queries)
				got := lookup(&s, i)
				if got.visits != want[i].visits || len(got.res) != len(want[i].res) {
					t.Errorf("query %d: %d results in %d visits, serial run %d in %d", i, len(got.res), got.visits, len(want[i].res), want[i].visits)
					return
				}
				for j := range got.res {
					if got.res[j].Ref != want[i].res[j].Ref || got.res[j].Dist != want[i].res[j].Dist {
						t.Errorf("query %d result %d: %+v, serial run %+v", i, j, got.res[j], want[i].res[j])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
