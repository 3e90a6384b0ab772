package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"mendel/internal/node"
	"mendel/internal/obs"
	"mendel/internal/seq"
	"mendel/internal/transport"
	"mendel/internal/wire"
)

// The concurrency-correctness suite: a cluster serving many queries at once
// — their group subqueries coalescing in the fan-out batcher, during
// ingest, and under chaos faults — must answer every query bit-identically to a serial run on a
// twin cluster that never saw concurrency. Run with -race; the suite exists
// as much to drive the detector through the shared search state as to check
// the answers.

// twinClusters builds two independent, identically configured clusters over
// identically generated databases: one to load with concurrency, one to
// answer serially as ground truth.
func twinClusters(t *testing.T, nodes, groups, dbSeed int64) (live, twin *InProcess, liveDB, twinDB *seq.Set) {
	t.Helper()
	mk := func() (*InProcess, *seq.Set) {
		cfg := DefaultConfig(seq.Protein)
		cfg.Groups = int(groups)
		cfg.SampleSize = 500
		ip, err := NewInProcess(cfg, int(nodes))
		if err != nil {
			t.Fatal(err)
		}
		db := buildTestDB(rand.New(rand.NewSource(dbSeed)), 20, 300)
		if err := ip.Index(context.Background(), db); err != nil {
			t.Fatal(err)
		}
		return ip, db
	}
	live, liveDB = mk()
	twin, twinDB = mk()
	return live, twin, liveDB, twinDB
}

// testQueries derives q distinct queries from database windows, so most hit.
func testQueries(db *seq.Set, q int) [][]byte {
	rng := rand.New(rand.NewSource(99))
	out := make([][]byte, q)
	for i := range out {
		s := db.Seqs[rng.Intn(len(db.Seqs))]
		start := rng.Intn(s.Len() - 120)
		out[i] = s.Data[start : start+120]
	}
	return out
}

// assertSameHits compares two hit lists field by field.
func assertSameHits(t *testing.T, label string, got, want []Hit) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d hits, serial twin returned %d", label, len(got), len(want))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("%s: hit %d differs\n  concurrent: %+v\n  serial:     %+v", label, i, got[i], want[i])
		}
	}
}

// runConcurrent fires workers×rounds searches over the query set and
// returns the per-query results of the last round (all rounds must agree
// with the serial twin; any error fails the test via t).
func runConcurrent(t *testing.T, ip *InProcess, queries [][]byte, workers, rounds int, p wire.Params) [][]Hit {
	t.Helper()
	var wg sync.WaitGroup
	errCh := make(chan error, workers*rounds*len(queries))
	results := make([][]Hit, len(queries))
	var mu sync.Mutex
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for qi, q := range queries {
					hits, err := ip.Search(context.Background(), q, p)
					if err != nil {
						errCh <- err
						return
					}
					mu.Lock()
					results[qi] = hits
					mu.Unlock()
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatalf("concurrent search: %v", err)
	}
	return results
}

func TestConcurrentSearchMatchesSerialTwin(t *testing.T) {
	live, twin, liveDB, _ := twinClusters(t, 6, 2, 42)
	queries := testQueries(liveDB, 6)
	p := defaultTestParams()

	got := runConcurrent(t, live, queries, 8, 3, p)
	for qi, q := range queries {
		want, err := twin.Search(context.Background(), q, p)
		if err != nil {
			t.Fatal(err)
		}
		assertSameHits(t, "query", got[qi], want)
	}
}

// TestConcurrentSearchWithCoalescingMatchesSerialTwin checks, on a second
// data set, that concurrent answers stay bit-identical to the serial twin's
// and that the group subqueries really travelled in fan-out batches.
func TestConcurrentSearchWithCoalescingMatchesSerialTwin(t *testing.T) {
	live, twin, liveDB, _ := twinClusters(t, 6, 2, 43)
	reg := obs.NewRegistry()
	live.SetObservability(reg, nil)
	queries := testQueries(liveDB, 6)
	p := defaultTestParams()

	got := runConcurrent(t, live, queries, 8, 3, p)
	for qi, q := range queries {
		want, err := twin.Search(context.Background(), q, p)
		if err != nil {
			t.Fatal(err)
		}
		assertSameHits(t, "coalesced query", got[qi], want)
	}
	batches := reg.Counter("coalesce_batches").Value()
	batched := reg.Counter("coalesce_batched_queries").Value()
	if batches == 0 || batched < batches {
		t.Errorf("coalesce_batches = %d, coalesce_batched_queries = %d: want at least one batch, each carrying a query", batches, batched)
	}
}

// TestConcurrentSearchDuringIngest checks the membership/ingest/search race
// surface: queries run while a second data set is being ingested (they may
// see either index state, but must never error or corrupt), and once the
// ingest completes, answers must be bit-identical to a twin that indexed
// both sets with no concurrency at all.
func TestConcurrentSearchDuringIngest(t *testing.T) {
	live, twin, liveDB, _ := twinClusters(t, 6, 2, 44)
	queries := testQueries(liveDB, 4)
	p := defaultTestParams()
	ctx := context.Background()

	// Queries against the first data set keep running while the second
	// set is ingested concurrently.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	errCh := make(chan error, 16)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := live.Search(ctx, queries[(w+i)%len(queries)], p); err != nil {
					errCh <- err
					return
				}
			}
		}(w)
	}
	secondLive := buildTestDB(rand.New(rand.NewSource(45)), 10, 300)
	if err := live.Index(ctx, secondLive); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatalf("search during ingest: %v", err)
	}

	// Ground truth: the twin ingests the same second set serially.
	secondTwin := buildTestDB(rand.New(rand.NewSource(45)), 10, 300)
	if err := twin.Index(ctx, secondTwin); err != nil {
		t.Fatal(err)
	}
	got := runConcurrent(t, live, queries, 6, 2, p)
	for qi, q := range queries {
		want, err := twin.Search(ctx, q, p)
		if err != nil {
			t.Fatal(err)
		}
		assertSameHits(t, "post-ingest query", got[qi], want)
	}
}

// TestConcurrentSearchUnderChaos runs the concurrent suite with one node
// down in each group on an R=2 cluster: recall must not degrade (every
// block and shard has a surviving copy) and concurrent answers must still
// match the serial twin running under the same failures.
func TestConcurrentSearchUnderChaos(t *testing.T) {
	seed := chaosSeed(t)
	mk := func() (*InProcess, *seq.Set) {
		cfg := DefaultConfig(seq.Protein)
		cfg.Groups = 2
		cfg.SampleSize = 500
		cfg.Replicas = 2
		ip, err := NewInProcess(cfg, 6, transport.WithChaosSeed(seed))
		if err != nil {
			t.Fatal(err)
		}
		db := buildTestDB(rand.New(rand.NewSource(71)), 20, 300)
		if err := ip.Index(context.Background(), db); err != nil {
			t.Fatal(err)
		}
		return ip, db
	}
	live, liveDB := mk()
	twin, _ := mk()

	// Pick one victim per group whose loss keeps every sequence reachable.
	var victims []string
	for _, v0 := range live.Topology().GroupNodes(0) {
		for _, v1 := range live.Topology().GroupNodes(1) {
			if !victimsCoverSomeSequence(live, liveDB, v0, v1) {
				victims = []string{v0, v1}
				break
			}
		}
		if victims != nil {
			break
		}
	}
	if victims == nil {
		t.Fatal("no survivable victim pair")
	}
	for _, v := range victims {
		live.Net.Fail(v)
		twin.Net.Fail(v)
	}

	queries := testQueries(liveDB, 4)
	p := defaultTestParams()
	got := runConcurrent(t, live, queries, 6, 3, p)
	for qi, q := range queries {
		want, err := twin.Search(context.Background(), q, p)
		if err != nil {
			t.Fatal(err)
		}
		assertSameHits(t, "chaos query", got[qi], want)
	}
}

// TestConcurrentMembershipChangeDuringSearch drives the copy-on-write
// topology swap: AddNode/RemoveNode flips while searches are in flight. The
// race detector owns correctness here; the assertion is only that no search
// errors and the final topology is the expected one.
func TestConcurrentMembershipChangeDuringSearch(t *testing.T) {
	cfg := DefaultConfig(seq.Protein)
	cfg.Groups = 2
	cfg.SampleSize = 500
	ip, err := NewInProcess(cfg, 6)
	if err != nil {
		t.Fatal(err)
	}
	db := buildTestDB(rand.New(rand.NewSource(46)), 20, 300)
	ctx := context.Background()
	if err := ip.Index(ctx, db); err != nil {
		t.Fatal(err)
	}
	queries := testQueries(db, 4)
	p := defaultTestParams()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := ip.Search(ctx, queries[(w+i)%len(queries)], p); err != nil {
					errCh <- err
					return
				}
			}
		}(w)
	}
	// Join a fresh node, then remove it again, twice, while queries fly.
	for i := 0; i < 2; i++ {
		addr := fmt.Sprintf("node-join-%d", i)
		joiner := node.New(addr, ip.Net)
		ip.Net.Register(addr, joiner)
		if err := ip.AddNode(ctx, 0, addr); err != nil {
			t.Fatalf("AddNode: %v", err)
		}
		if err := ip.RemoveNode(ctx, addr); err != nil {
			t.Fatalf("RemoveNode: %v", err)
		}
	}
	close(stop)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatalf("search during membership change: %v", err)
	}
	if n := len(ip.Topology().AllNodes()); n != 6 {
		t.Fatalf("topology has %d nodes after join/leave cycles, want 6", n)
	}
}
