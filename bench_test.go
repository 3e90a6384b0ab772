package mendel

// Micro-benchmarks of the hot paths and of whole in-process queries, ingest
// and repair. Performance claims are made with the benchmark ledger
// (bash benchmark/run.sh), not with these.

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"mendel/internal/align"
	"mendel/internal/matrix"
	"mendel/internal/metric"
	"mendel/internal/node"
	"mendel/internal/seq"
	"mendel/internal/vptree"
)

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
