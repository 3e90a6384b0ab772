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
// evaluation as the traversal reaches it.
func benchNearestBudget(b *testing.B, m metric.Metric, letters string) {
	rng := rand.New(rand.NewSource(55))
	keys := goldenKeys(rng, 10600, letters, letters)
	tr := Build(m, 0, 7, goldenItems(keys, 0))
	queries := goldenKeys(rng, 64, letters, letters)
	b.ReportAllocs()
	b.ResetTimer()
	visits := 0
	for i := 0; i < b.N; i++ {
		_, v := tr.NearestBudgetVisits(queries[i%len(queries)], 12, 4096)
		visits += v
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(visits), "ns/visit")
}

func BenchmarkNearestBudget(b *testing.B) {
	benchNearestBudget(b, metric.ForKind(seq.Protein), "ARNDCQEGHILKMFPSTWYV")
}

func BenchmarkNearestBudgetDNA(b *testing.B) {
	benchNearestBudget(b, metric.ForKind(seq.DNA), "ACGT")
}
