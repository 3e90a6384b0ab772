package vptree

import (
	"math/rand"
	"testing"

	"mendel/internal/metric"
	"mendel/internal/seq"
)

// benchNearestBudget times the lookup a storage node runs per subquery
// window: one query_short node's share (~10.6k 16-mers), n = 12 neighbours,
// the default 4096-evaluation budget. ns/visit is the cost of one distance
// evaluation as the traversal reaches it. minMatch 0 is the unscreened lookup
// the benchmark harness replays; 5 is what a node derives from the default
// identity 0.30 over 16-residue windows.
func benchNearestBudget(b *testing.B, m metric.Metric, letters string, minMatch int) {
	rng := rand.New(rand.NewSource(55))
	keys := goldenKeys(rng, 10600, letters, letters)
	tr := Build(m, 0, 7, goldenItems(keys, 0))
	queries := goldenKeys(rng, 64, letters, letters)
	b.ReportAllocs()
	b.ResetTimer()
	visits := 0
	var s Searcher
	for i := 0; i < b.N; i++ {
		_, v := s.NearestEligible(tr, queries[i%len(queries)], 12, 4096, minMatch)
		visits += v
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(visits), "ns/visit")
}

func BenchmarkNearestBudget(b *testing.B) {
	benchNearestBudget(b, metric.ForKind(seq.Protein), "ARNDCQEGHILKMFPSTWYV", 0)
}

func BenchmarkNearestBudgetDNA(b *testing.B) {
	benchNearestBudget(b, metric.ForKind(seq.DNA), "ACGT", 0)
}

func BenchmarkNearestEligible(b *testing.B) {
	benchNearestBudget(b, metric.ForKind(seq.Protein), "ARNDCQEGHILKMFPSTWYV", 5)
}

func BenchmarkNearestEligibleDNA(b *testing.B) {
	benchNearestBudget(b, metric.ForKind(seq.DNA), "ACGT", 5)
}

// BenchmarkBuild times the bulk build a storage node runs at the end of an
// ingest: one ingest_bulk node's share (~9,650 protein 16-mers) into a
// default-bucket tree. Allocations per build are the throwaway work of
// vertex seeding and per-vertex scratch on top of the tree itself.
func BenchmarkBuild(b *testing.B) {
	rng := rand.New(rand.NewSource(56))
	items := goldenItems(goldenKeys(rng, 9650, "ARNDCQEGHILKMFPSTWYV", "ARNDCQEGHILKMFPSTWYV"), 0)
	m := metric.ForKind(seq.Protein)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchTree = Build(m, 0, int64(i), items)
	}
	b.ReportMetric(float64(len(items)*b.N)/b.Elapsed().Seconds(), "items/s")
}

// benchTree keeps BenchmarkBuild's result live.
var benchTree *Tree
