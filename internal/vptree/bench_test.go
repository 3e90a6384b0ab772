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
