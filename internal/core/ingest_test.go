package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"mendel/internal/datagen"
	"mendel/internal/invindex"
	"mendel/internal/seq"
	"mendel/internal/transport"
	"mendel/internal/wire"
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

// TestIngestStoresAreIdentical indexes benchmark/scenario.go's query_short
// database at seed 1 (400 protein sequences of 500±100 residues) into the
// default 20-node, 4-group cluster through the codec and pins what every node
// stores: a SHA-256 over each node's blocks in reference order — address,
// reference, context offset and context bytes — and the summed block-store
// bytes. One ingest worker makes the chunk layout, and so the bytes,
// independent of scheduling.
func TestIngestStoresAreIdentical(t *testing.T) {
	const (
		wantDigest = "563944107258c144b461d29021676c13e0266e13d6233fcb261b8e84af4d9244"
		wantBytes  = 4428544
	)
	if testing.Short() {
		t.Skip("indexes 194k blocks")
	}
	setProcs(t, 1)
	db, err := datagen.New(seq.Protein, 1*1000003+1).Database(400, 500, 100, "bg")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(seq.Protein)
	cfg.Groups = 4
	ip, err := NewInProcess(cfg, 20, transport.WithEncodeCheck())
	if err != nil {
		t.Fatal(err)
	}
	if err := ip.Index(context.Background(), db); err != nil {
		t.Fatal(err)
	}
	h, total := sha256.New(), 0
	for _, n := range ip.Nodes {
		var buf bytes.Buffer
		if err := n.SaveTo(&buf); err != nil {
			t.Fatal(err)
		}
		var snap struct{ Blocks []wire.Block } // the snapshot's blocks, ascending by reference
		if err := gob.NewDecoder(&buf).Decode(&snap); err != nil {
			t.Fatal(err)
		}
		for _, b := range snap.Blocks {
			fmt.Fprintf(h, "%s %#x %d %s\n", n.Addr(), invindex.PackRef(b.Seq, b.Start), b.CtxOff, b.Context)
		}
		total += n.Health().BlockBytes
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != wantDigest {
		t.Errorf("stores digest %s, want %s", got, wantDigest)
	}
	if total > wantBytes {
		t.Errorf("block stores hold %d bytes, want at most %d", total, wantBytes)
	}
	t.Logf("block stores hold %d bytes", total)
}
