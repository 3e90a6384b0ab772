package core

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"mendel/internal/seq"
)

func TestSearchTraceCounters(t *testing.T) {
	ip := newTestCluster(t, 6, 3)
	rng := rand.New(rand.NewSource(101))
	ctx := context.Background()
	db := buildTestDB(rng, 20, 400)
	if err := ip.Index(ctx, db); err != nil {
		t.Fatal(err)
	}
	query := db.Seqs[7].Data[100:260] // 160 residues
	hits, trace, err := ip.SearchTrace(ctx, query, defaultTestParams())
	if err != nil {
		t.Fatal(err)
	}
	if trace.QueryLen != 160 {
		t.Fatalf("query len = %d", trace.QueryLen)
	}
	if trace.Strands != 1 {
		t.Fatalf("strands = %d", trace.Strands)
	}
	// 160 residues, window 16, step 16 -> 10 windows exactly.
	if trace.SubQueries != 10 {
		t.Fatalf("subqueries = %d", trace.SubQueries)
	}
	if trace.GroupRequests < 1 || trace.GroupRequests > 3 {
		t.Fatalf("group requests = %d", trace.GroupRequests)
	}
	if trace.AnchorsReturned < trace.AnchorsMerged {
		t.Fatalf("returned %d < merged %d", trace.AnchorsReturned, trace.AnchorsMerged)
	}
	if trace.Hits != len(hits) {
		t.Fatalf("trace hits %d != %d", trace.Hits, len(hits))
	}
	if trace.Total <= 0 || trace.FanOut <= 0 {
		t.Fatalf("timings missing: %+v", trace)
	}
	if trace.Total < trace.FanOut {
		t.Fatal("total < fan-out stage")
	}
	s := trace.String()
	for _, want := range []string{"windows=10", "hits="} {
		if !strings.Contains(s, want) {
			t.Fatalf("trace string %q missing %q", s, want)
		}
	}
}

func TestSearchTraceTwoStrands(t *testing.T) {
	ip, set, _ := dnaCluster(t)
	p := dnaParams()
	p.BothStrands = true
	_, trace, err := ip.SearchTrace(context.Background(), set.Seqs[1].Data[50:200], p)
	if err != nil {
		t.Fatal(err)
	}
	if trace.Strands != 2 {
		t.Fatalf("strands = %d", trace.Strands)
	}
	// Windows counted for both orientations.
	if trace.SubQueries < 18 {
		t.Fatalf("subqueries = %d, want both strands' windows", trace.SubQueries)
	}
}

func TestSearchWithPAM250(t *testing.T) {
	ip := newTestCluster(t, 4, 2)
	rng := rand.New(rand.NewSource(102))
	ctx := context.Background()
	db := buildTestDB(rng, 12, 300)
	if err := ip.Index(ctx, db); err != nil {
		t.Fatal(err)
	}
	p := defaultTestParams()
	p.Matrix = "PAM250"
	hits, err := ip.Search(ctx, db.Seqs[5].Data[50:170], p)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) == 0 || hits[0].Seq != 5 {
		t.Fatalf("PAM250 hits = %+v", hits)
	}
}

func TestSearchWithFinerStep(t *testing.T) {
	ip := newTestCluster(t, 4, 2)
	rng := rand.New(rand.NewSource(103))
	ctx := context.Background()
	db := buildTestDB(rng, 12, 300)
	if err := ip.Index(ctx, db); err != nil {
		t.Fatal(err)
	}
	p := defaultTestParams()
	p.Step = 4 // stride < window: overlapping subqueries
	_, trace, err := ip.SearchTrace(ctx, db.Seqs[3].Data[60:180], p)
	if err != nil {
		t.Fatal(err)
	}
	// 120 residues, window 16, step 4 -> (120-16)/4+1 = 27 windows.
	if trace.SubQueries != 27 {
		t.Fatalf("subqueries = %d, want 27", trace.SubQueries)
	}
}

// TestExactSearchModeConfig searches a two-group protein cluster. It once
// configured exact (unbudgeted) node lookups; node lookups are exact in
// every configuration now, so it runs the defaults.
func TestExactSearchModeConfig(t *testing.T) {
	cfg := DefaultConfig(seq.Protein)
	cfg.Groups = 2
	cfg.SampleSize = 300
	ip, err := NewInProcess(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(104))
	ctx := context.Background()
	db := buildTestDB(rng, 10, 250)
	if err := ip.Index(ctx, db); err != nil {
		t.Fatal(err)
	}
	hits, err := ip.Search(ctx, db.Seqs[4].Data[30:150], defaultTestParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) == 0 || hits[0].Seq != 4 {
		t.Fatalf("exact mode hits = %+v", hits)
	}
}

func TestQueryEpsConfig(t *testing.T) {
	cfg := DefaultConfig(seq.Protein)
	cfg.QueryEps = 5
	c := &Cluster{cfg: cfg}
	if got := c.queryEps(); got != 5 {
		t.Fatalf("queryEps = %d", got)
	}
}
