package mendel

// One testing.B benchmark per table and figure of the paper's evaluation
// (§VI), plus the ablations DESIGN.md calls out and micro-benchmarks of the
// hot paths. The full-size experiment runner with larger workloads is
// cmd/mendel-bench; these run the identical harness at benchmark-friendly
// scale so `go test -bench=.` regenerates every result quickly.

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"mendel/internal/align"
	"mendel/internal/bench"
	"mendel/internal/matrix"
	"mendel/internal/metric"
	"mendel/internal/node"
	"mendel/internal/seq"
	"mendel/internal/vptree"
)

// benchScale is the workload used by the figure benchmarks.
func benchScale() bench.Scale {
	s := bench.TestScale()
	s.Nodes = 8
	s.Groups = 4
	s.DBSequences = 60
	s.SeqLen = 400
	s.QueriesPerPoint = 2
	return s
}

// BenchmarkTable1Params covers Table I: the full parameter validation path
// exercised once per query.
func BenchmarkTable1Params(b *testing.B) {
	p := DefaultParams()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := p.Validate(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5LoadBalance regenerates Fig. 5 (flat vs two-tier placement).
func BenchmarkFig5LoadBalance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.RunFig5(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(bench.Spread(res.TwoTierPct), "two-tier-spread-%")
		b.ReportMetric(bench.Spread(res.FlatPct), "flat-spread-%")
	}
}

// BenchmarkFig6aQueryLength regenerates Fig. 6a (turnaround vs query
// length, Mendel vs BLAST).
func BenchmarkFig6aQueryLength(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.RunFig6a(benchScale(), []int{100, 200, 300})
		if err != nil {
			b.Fatal(err)
		}
		last := res.Points[len(res.Points)-1]
		b.ReportMetric(last.MendelMS, "mendel-ms@max-len")
		b.ReportMetric(last.BlastMS, "blast-ms@max-len")
	}
}

// BenchmarkFig6bDatabaseSize regenerates Fig. 6b (turnaround vs database
// size).
func BenchmarkFig6bDatabaseSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.RunFig6b(benchScale(), []int{20, 40, 80}, 150)
		if err != nil {
			b.Fatal(err)
		}
		first, last := res.Points[0], res.Points[len(res.Points)-1]
		if first.MendelMS > 0 {
			b.ReportMetric(last.MendelMS/first.MendelMS, "mendel-growth-x")
		}
		if first.BlastMS > 0 {
			b.ReportMetric(last.BlastMS/first.BlastMS, "blast-growth-x")
		}
	}
}

// BenchmarkFig6cClusterScaling regenerates Fig. 6c (turnaround vs cluster
// size).
func BenchmarkFig6cClusterScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.RunFig6c(benchScale(), []int{4, 8, 16}, 100)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Points[0].CriticalMS, "critical-ms@4nodes")
		b.ReportMetric(res.Points[len(res.Points)-1].CriticalMS, "critical-ms@16nodes")
	}
}

// BenchmarkFig6dSensitivity regenerates Fig. 6d (recall vs similarity).
func BenchmarkFig6dSensitivity(b *testing.B) {
	s := benchScale()
	s.DBSequences = 20
	for i := 0; i < b.N; i++ {
		res, err := bench.RunFig6d(s, []float64{0.9, 0.6, 0.4}, 6, 400)
		if err != nil {
			b.Fatal(err)
		}
		low := res.Points[len(res.Points)-1]
		b.ReportMetric(low.MendelRecall, "mendel-recall@low-sim")
		b.ReportMetric(low.BlastRecall, "blast-recall@low-sim")
	}
}

// BenchmarkAblationDepthThreshold regenerates the vp-prefix depth ablation.
func BenchmarkAblationDepthThreshold(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.RunAblateDepth(benchScale(), []int{2, 4, 6}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationSecondTier regenerates the intra-group placement
// ablation (flat SHA-1 vs second-tier vp-hash).
func BenchmarkAblationSecondTier(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.RunAblateTier2(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.FlatTouchedAvg, "flat-parallelism")
		b.ReportMetric(res.VPTouchedAvg, "vp-parallelism")
	}
}

// BenchmarkAblationBatchInsert regenerates the vp-tree population ablation.
func BenchmarkAblationBatchInsert(b *testing.B) {
	s := benchScale()
	s.DBSequences = 10
	for i := 0; i < b.N; i++ {
		if _, err := bench.RunAblateInsert(s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationBucketSize regenerates the leaf bucket ablation.
func BenchmarkAblationBucketSize(b *testing.B) {
	s := benchScale()
	s.DBSequences = 10
	for i := 0; i < b.N; i++ {
		if _, err := bench.RunAblateBucket(s, []int{8, 32, 128}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- micro-benchmarks of the hot paths ---

func randomProteinB(rng *rand.Rand, n int) []byte {
	const letters = "ARNDCQEGHILKMFPSTWYV"
	out := make([]byte, n)
	for i := range out {
		out[i] = letters[rng.Intn(len(letters))]
	}
	return out
}

// BenchmarkVPTreeNearest measures local 12-NN lookups over 50k segments,
// the per-node inner loop of every subquery.
func BenchmarkVPTreeNearest(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	m := metric.ForKind(seq.Protein)
	items := make([]vptree.Item, 50000)
	for i := range items {
		items[i] = vptree.Item{Key: randomProteinB(rng, 16), Ref: uint64(i)}
	}
	tree := vptree.Build(m, 0, 1, items)
	queries := make([][]byte, 64)
	for i := range queries {
		queries[i] = randomProteinB(rng, 16)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree.Nearest(queries[i%len(queries)], 12)
	}
}

// BenchmarkMendelDistance measures the protein segment metric.
func BenchmarkMendelDistance(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	m := metric.ForKind(seq.Protein)
	x := randomProteinB(rng, 16)
	y := randomProteinB(rng, 16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Distance(x, y)
	}
}

// BenchmarkSmithWaterman measures the ground-truth aligner on 200x400.
func BenchmarkSmithWaterman(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	q := randomProteinB(rng, 200)
	s := randomProteinB(rng, 400)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		align.SmithWaterman(q, s, matrix.BLOSUM62)
	}
}

// BenchmarkBandedSW measures the gapped extension kernel.
func BenchmarkBandedSW(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	q := randomProteinB(rng, 200)
	s := append(append([]byte{}, q...), randomProteinB(rng, 200)...)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		align.BandedSmithWaterman(q, s, -8, 8, matrix.BLOSUM62)
	}
}

// BenchmarkEndToEndSearch measures a whole distributed query on an indexed
// in-process cluster.
func BenchmarkEndToEndSearch(b *testing.B) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(5))
	cfg := DefaultConfig(Protein)
	cfg.Groups = 4
	cluster, err := NewInProcess(cfg, 8)
	if err != nil {
		b.Fatal(err)
	}
	db := NewSet(Protein)
	for i := 0; i < 100; i++ {
		if _, err := db.Add(fmt.Sprintf("ref%03d", i), randomProteinB(rng, 400)); err != nil {
			b.Fatal(err)
		}
	}
	if err := cluster.Index(ctx, db); err != nil {
		b.Fatal(err)
	}
	query := db.Seqs[37].Data[100:300]
	p := DefaultParams()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cluster.Search(ctx, query, p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPrefilterQuery measures the end-to-end cost of a short foreign
// query (the sketch prefilter's best case: its windows share no k-mer with
// the database, so every group is provably safe to skip) with the prefilter
// off vs in bloom mode. The data shape matches BenchmarkEndToEndSearch.
func BenchmarkPrefilterQuery(b *testing.B) {
	for _, mode := range []PrefilterMode{PrefilterOff, PrefilterBloom} {
		b.Run("prefilter="+mode.String(), func(b *testing.B) {
			ctx := context.Background()
			rng := rand.New(rand.NewSource(5))
			cfg := DefaultConfig(Protein)
			cfg.Groups = 4
			cluster, err := NewInProcess(cfg, 8)
			if err != nil {
				b.Fatal(err)
			}
			db := NewSet(Protein)
			for i := 0; i < 100; i++ {
				if _, err := db.Add(fmt.Sprintf("ref%03d", i), randomProteinB(rng, 400)); err != nil {
					b.Fatal(err)
				}
			}
			if err := cluster.Index(ctx, db); err != nil {
				b.Fatal(err)
			}
			cluster.SetPrefilterMode(mode)
			query := randomProteinB(rng, 24)
			p := DefaultParams()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := cluster.Search(ctx, query, p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTracingOverhead measures the end-to-end search cost with the
// observability stack attached, comparing the unsampled hot path
// (sampled=0: the head sampler rejects every query, so no node records or
// ships a span) against full tracing (sampled=1: every span recorded,
// shipped inline, and exemplar-labelled). The data shape matches
// BenchmarkEndToEndSearch; the unsampled variant shows tracing's cost for
// untraced queries.
func BenchmarkTracingOverhead(b *testing.B) {
	for _, rate := range []float64{-1, 1} {
		name := "sampled=0"
		if rate > 0 {
			name = "sampled=1"
		}
		b.Run(name, func(b *testing.B) {
			ctx := context.Background()
			rng := rand.New(rand.NewSource(5))
			cfg := DefaultConfig(Protein)
			cfg.Groups = 4
			cfg.TraceSampleRate = rate
			cluster, err := NewInProcess(cfg, 8)
			if err != nil {
				b.Fatal(err)
			}
			cluster.Observe(NewMetricsRegistry(), NewQueryTracer(0))
			db := NewSet(Protein)
			for i := 0; i < 100; i++ {
				if _, err := db.Add(fmt.Sprintf("ref%03d", i), randomProteinB(rng, 400)); err != nil {
					b.Fatal(err)
				}
			}
			if err := cluster.Index(ctx, db); err != nil {
				b.Fatal(err)
			}
			query := db.Seqs[37].Data[100:300]
			p := DefaultParams()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := cluster.Search(ctx, query, p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkIndexThroughput measures ingest residues/sec through the
// pipeline (one fragmentation worker per core).
func BenchmarkIndexThroughput(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	db := NewSet(Protein)
	for i := 0; i < 50; i++ {
		if _, err := db.Add(fmt.Sprintf("ref%03d", i), randomProteinB(rng, 400)); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := DefaultConfig(Protein)
		cfg.Groups = 2
		cluster, err := NewInProcess(cfg, 4)
		if err != nil {
			b.Fatal(err)
		}
		if err := cluster.Index(context.Background(), db); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(db.TotalResidues()*b.N)/b.Elapsed().Seconds(), "residues/s")
}

// BenchmarkRepairThroughput measures anti-entropy re-replication speed:
// every iteration wipes one storage node (a fresh empty node takes over its
// address and is re-bootstrapped) and a full Cluster.Repair restores its
// block inventory from the surviving replicas, reporting blocks/sec moved.
func BenchmarkRepairThroughput(b *testing.B) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(8))
	cfg := DefaultConfig(Protein)
	cfg.Groups = 2
	cfg.Replicas = 2
	cluster, err := NewInProcess(cfg, 4)
	if err != nil {
		b.Fatal(err)
	}
	db := NewSet(Protein)
	for i := 0; i < 50; i++ {
		if _, err := db.Add(fmt.Sprintf("ref%03d", i), randomProteinB(rng, 400)); err != nil {
			b.Fatal(err)
		}
	}
	if err := cluster.Index(ctx, db); err != nil {
		b.Fatal(err)
	}
	victim := cluster.Nodes[1].Addr()
	hm := NewHealthMonitor(cluster.Cluster, DefaultHealthConfig())
	moved := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cluster.Net.Register(victim, node.New(victim, cluster.Net.Bind(victim)))
		hm.ProbeOnce(ctx) // re-bootstrap the wiped node
		b.StartTimer()
		rep, err := cluster.Repair(ctx)
		if err != nil {
			b.Fatal(err)
		}
		if rep.BlocksMoved == 0 {
			b.Fatal("repair moved no blocks")
		}
		moved += rep.BlocksMoved
	}
	b.ReportMetric(float64(moved)/b.Elapsed().Seconds(), "blocks/s")
}

// BenchmarkBlastBaselineSearch measures the comparator on the same data
// shape as BenchmarkEndToEndSearch.
func BenchmarkBlastBaselineSearch(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	db := NewSet(Protein)
	for i := 0; i < 100; i++ {
		if _, err := db.Add(fmt.Sprintf("ref%03d", i), randomProteinB(rng, 400)); err != nil {
			b.Fatal(err)
		}
	}
	bdb, err := NewBlastDB(db)
	if err != nil {
		b.Fatal(err)
	}
	query := db.Seqs[37].Data[100:300]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bdb.Search(query, 10); err != nil {
			b.Fatal(err)
		}
	}
}
