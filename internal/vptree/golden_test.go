package vptree

import (
	"bytes"
	"encoding/json"
	"flag"
	"math/rand"
	"os"
	"reflect"
	"testing"

	"mendel/internal/metric"
	"mendel/internal/seq"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/knn_golden.json from the current implementation")

const goldenPath = "testdata/knn_golden.json"

// goldenCase is one recorded lookup. The file was generated at the commit
// before the slab/profile layout landed; the layout change must reproduce
// every ref, distance and visit count exactly (same tree shape, traversal
// order, tie handling and budget accounting).
type goldenCase struct {
	Tree   string   `json:"tree"`
	Query  string   `json:"query"`
	Budget int      `json:"budget"`
	Refs   []uint64 `json:"refs"`
	Dists  []int    `json:"dists"`
	Visits int      `json:"visits"`
}

const (
	goldenKeyLen  = 16
	goldenK       = 12
	goldenQueries = 16
)

var goldenBudgets = []int{0, 64, 4096}

// goldenKeys draws n keys over letters, salting a few with bytes outside the
// alphabet so the out-of-alphabet rows of the distance table are covered.
func goldenKeys(rng *rand.Rand, n int, letters, odd string) [][]byte {
	keys := make([][]byte, n)
	for i := range keys {
		k := make([]byte, goldenKeyLen)
		for j := range k {
			k[j] = letters[rng.Intn(len(letters))]
		}
		if i%97 == 0 {
			k[rng.Intn(len(k))] = odd[rng.Intn(len(odd))]
		}
		keys[i] = k
	}
	return keys
}

func goldenItems(keys [][]byte, base uint64) []Item {
	items := make([]Item, len(keys))
	for i, k := range keys {
		items[i] = Item{Key: k, Ref: base + uint64(i)}
	}
	return items
}

// nextInsertCase reports which of Insert's four cases adding it will take
// (0: the tree is empty).
func nextInsertCase(t *Tree, it Item) int {
	if t.root == nil {
		return 0
	}
	var path []*node
	n := t.root
	for n.refs == nil {
		path = append(path, n)
		if t.metric.Distance(n.keys, it.Key) <= int(n.mu) {
			n = n.left
		} else {
			n = n.right
		}
	}
	if len(n.refs) < t.bucketCap {
		return 1
	}
	for i := len(path) - 1; i >= 0; i-- {
		if int(path[i].count)+1 <= t.capacity(int(path[i].height)) {
			if i == len(path)-1 {
				return 2
			}
			return 3
		}
	}
	return 4
}

// goldenTrees builds the four trees the golden file covers: per molecule
// kind, one bulk-built and one grown from empty through single Inserts (all
// four rebalancing cases; cases tallies them per grown tree), a large
// InsertBatch (rebuild path), more Inserts and a small InsertBatch
// (incremental path). It also returns
// each tree's query set: half random, half point mutations of indexed keys
// so tau shrinks and pruning engages.
func goldenTrees() (trees map[string]*Tree, queries map[string][][]byte, names []string, cases map[string]*[5]int) {
	trees = map[string]*Tree{}
	queries = map[string][][]byte{}
	cases = map[string]*[5]int{}
	for _, kind := range []struct {
		name         string
		m            metric.Metric
		letters, odd string
		seed         int64
	}{
		{"protein", metric.ForKind(seq.Protein), "ARNDCQEGHILKMFPSTWYV", "XBZ*a", 101},
		{"dna", metric.ForKind(seq.DNA), "ACGT", "Nn", 202},
	} {
		rng := rand.New(rand.NewSource(kind.seed))
		keys := goldenKeys(rng, 9000, kind.letters, kind.odd)

		built := Build(kind.m, 0, 7, goldenItems(keys[:6000], 0))

		grown := New(kind.m, 8, 11)
		tally := new([5]int)
		cases[kind.name+"/grown"] = tally
		for _, it := range goldenItems(keys[6000:6300], 6000) {
			tally[nextInsertCase(grown, it)]++
			grown.Insert(it)
		}
		grown.InsertBatch(goldenItems(keys[6300:6700], 6300))
		for _, it := range goldenItems(keys[6700:8900], 6700) {
			tally[nextInsertCase(grown, it)]++
			grown.Insert(it)
		}
		grown.InsertBatch(goldenItems(keys[8900:9000], 8900))

		for _, tc := range []struct {
			suffix string
			tree   *Tree
			lo, hi int
		}{{"/built", built, 0, 6000}, {"/grown", grown, 6000, 9000}} {
			name := kind.name + tc.suffix
			names = append(names, name)
			trees[name] = tc.tree
			qs := goldenKeys(rng, goldenQueries, kind.letters, kind.odd)
			for i := 0; i < len(qs); i += 2 {
				q := append([]byte(nil), keys[tc.lo+rng.Intn(tc.hi-tc.lo)]...)
				for m := 0; m < 3; m++ {
					q[rng.Intn(len(q))] = kind.letters[rng.Intn(len(kind.letters))]
				}
				qs[i] = q
			}
			queries[name] = qs
		}
	}
	return trees, queries, names, cases
}

func TestGoldenKNN(t *testing.T) {
	trees, queries, names, cases := goldenTrees()
	for name, c := range cases {
		if c[1] == 0 || c[2] == 0 || c[3] == 0 || c[4] == 0 {
			t.Fatalf("%s: insert cases 1-4 fired %v times; the golden file must cover all four", name, c[1:])
		}
	}
	var got []goldenCase
	for _, name := range names {
		if err := trees[name].checkInvariants(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, q := range queries[name] {
			for _, budget := range goldenBudgets {
				res, visits := trees[name].NearestBudgetVisits(q, goldenK, budget)
				c := goldenCase{Tree: name, Query: string(q), Budget: budget, Visits: visits,
					Refs: make([]uint64, len(res)), Dists: make([]int, len(res))}
				for i, r := range res {
					c.Refs[i], c.Dists[i] = r.Ref, r.Dist
				}
				got = append(got, c)
			}
		}
	}
	if *updateGolden {
		var buf bytes.Buffer // one case per line keeps the file diffable
		for i, c := range got {
			line, err := json.Marshal(c)
			if err != nil {
				t.Fatal(err)
			}
			sep := ",\n"
			if i == 0 {
				sep = "[\n"
			}
			buf.WriteString(sep)
			buf.Write(line)
		}
		buf.WriteString("\n]\n")
		if err := os.WriteFile(goldenPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	buf, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want []goldenCase
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d cases, golden has %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("case %d (%s %q budget %d) diverged from the golden file:\n got  %+v\n want %+v",
				i, want[i].Tree, want[i].Query, want[i].Budget, got[i], want[i])
		}
	}
}
