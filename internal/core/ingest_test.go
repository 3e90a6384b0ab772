package core

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"mendel/internal/invindex"
	"mendel/internal/seq"
	"mendel/internal/transport"
)

// setProcs sets GOMAXPROCS to n until the test ends. Index runs one
// fragmentation worker per core, so this is how a test picks the ingest
// worker count; tests calling it must not run in parallel.
func setProcs(t *testing.T, n int) {
	t.Helper()
	old := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// newIngestCluster builds an 8-node/4-group protein cluster over a
// deterministic configuration.
func newIngestCluster(t *testing.T) *InProcess {
	t.Helper()
	cfg := DefaultConfig(seq.Protein)
	cfg.Groups = 4
	cfg.SampleSize = 500
	ip, err := NewInProcess(cfg, 8, transport.WithEncodeCheck())
	if err != nil {
		t.Fatal(err)
	}
	return ip
}

// TestIngestIndependentOfWorkerCount is the contract of the staged ingest
// protocol: a one-worker and an eight-worker ingest must place every block
// on the same node and build identical local vp-trees, so queries answer
// identically. Placement is content-hashed and trees are built from the
// sorted staged set, so neither may depend on ingest concurrency or RPC
// arrival order. Run under -race this also exercises the sender/worker
// synchronization.
func TestIngestIndependentOfWorkerCount(t *testing.T) {
	ctx := context.Background()
	index := func(procs int) (*InProcess, *seq.Set) {
		setProcs(t, procs)
		ip := newIngestCluster(t)
		// Identical databases, from identical seeds.
		db := buildTestDB(rand.New(rand.NewSource(42)), 40, 400)
		if err := ip.Index(ctx, db); err != nil {
			t.Fatal(err)
		}
		return ip, db
	}
	one, db := index(1)
	many, _ := index(8)

	// Block placement and tree construction must match node for node.
	st1, err := one.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	st8, err := many.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(st1) != len(st8) {
		t.Fatalf("stats length %d vs %d", len(st1), len(st8))
	}
	for i := range st1 {
		if st1[i].Node != st8[i].Node ||
			st1[i].Blocks != st8[i].Blocks ||
			st1[i].Residues != st8[i].Residues ||
			st1[i].Sequences != st8[i].Sequences ||
			st1[i].TreeSize != st8[i].TreeSize {
			t.Errorf("node %s diverged: 1 worker {blocks %d residues %d seqs %d tree %d} 8 workers {blocks %d residues %d seqs %d tree %d}",
				st1[i].Node, st1[i].Blocks, st1[i].Residues, st1[i].Sequences, st1[i].TreeSize,
				st8[i].Blocks, st8[i].Residues, st8[i].Sequences, st8[i].TreeSize)
		}
	}

	// Queries — exact fragments and mutated homologs — must answer
	// identically, hit for hit.
	rng := rand.New(rand.NewSource(99))
	params := defaultTestParams()
	for trial := 0; trial < 6; trial++ {
		src := db.Seqs[rng.Intn(len(db.Seqs))]
		start := rng.Intn(src.Len() - 120)
		query := append([]byte(nil), src.Data[start:start+120]...)
		if trial%2 == 1 {
			query = mutateSubs(rng, query, 0.1)
		}
		ho, err := one.Search(ctx, query, params)
		if err != nil {
			t.Fatal(err)
		}
		hm, err := many.Search(ctx, query, params)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ho, hm) {
			t.Fatalf("trial %d: 1-worker and 8-worker clusters returned different hits:\n%v\nvs\n%v", trial, ho, hm)
		}
	}
}

// TestIngestParallelGrowsDatabase re-indexes a second set into an existing
// cluster with four ingest workers — Index must be repeatable, and hits
// from both batches must be found.
func TestIngestParallelGrowsDatabase(t *testing.T) {
	ctx := context.Background()
	setProcs(t, 4)
	ip := newIngestCluster(t)

	first := buildTestDB(rand.New(rand.NewSource(7)), 20, 300)
	second := buildTestDB(rand.New(rand.NewSource(8)), 20, 300)
	if err := ip.Index(ctx, first); err != nil {
		t.Fatal(err)
	}
	if err := ip.Index(ctx, second); err != nil {
		t.Fatal(err)
	}
	if got, want := ip.TotalResidues(), 40*300; got != want {
		t.Fatalf("total residues = %d, want %d", got, want)
	}

	// Global IDs: the first batch occupies [0,20), the second [20,40).
	params := defaultTestParams()
	cases := []struct {
		src *seq.Sequence
		gid seq.ID
	}{
		{first.Seqs[3], 3},
		{second.Seqs[5], 25},
	}
	for _, tc := range cases {
		query := tc.src.Data[50:170]
		hits, err := ip.Search(ctx, query, params)
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, h := range hits {
			if h.Seq == tc.gid {
				found = true
			}
		}
		if !found {
			t.Fatalf("exact fragment of global sequence %d not found after growth (%d hits)", tc.gid, len(hits))
		}
	}
}

// TestShipBatchCapFollowsTheWrite pins the per-node batch capacity: a
// single-sequence write sizes its batches for its own few blocks, and a bulk
// write gets full batches, never more.
func TestShipBatchCapFollowsTheWrite(t *testing.T) {
	cfg := invindex.DefaultConfig
	one := seq.NewSet(seq.Protein)
	if _, err := one.Add("q", bytes.Repeat([]byte("A"), 300)); err != nil {
		t.Fatal(err)
	}
	blocks := 300 - cfg.BlockLen + 1
	if got, want := shipBatchCap(one, cfg, 1, 20), blocks/20+blocks/20/4+1; got != want {
		t.Fatalf("one 300-residue sequence over 20 nodes: cap %d, want %d", got, want)
	}
	if got := shipBatchCap(one, cfg, 2, 1); got != min(indexBatchBlocks, 2*blocks+2*blocks/4+1) {
		t.Fatalf("two replicas on one node: cap %d", got)
	}
	bulk := seq.NewSet(seq.Protein)
	for i := 0; i < 400; i++ {
		if _, err := bulk.Add(fmt.Sprint("s", i), bytes.Repeat([]byte("A"), 500)); err != nil {
			t.Fatal(err)
		}
	}
	if got := shipBatchCap(bulk, cfg, 1, 20); got != indexBatchBlocks {
		t.Fatalf("bulk write: cap %d, want a full batch %d", got, indexBatchBlocks)
	}
}
