package core

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"mendel/internal/seq"
	"mendel/internal/transport"
	"mendel/internal/wire"
)

// tapCaller wraps the coordinator's caller, counting the SketchFetch calls
// and the cold frames (a request or reply the transports encode as a gob
// envelope) a write sends. hold, when set, runs after a SketchFetch has been
// answered and before its reply is handed back.
type tapCaller struct {
	inner       transport.Caller
	sketchFetch atomic.Int64
	coldFrames  atomic.Int64
	hold        func()
}

// isCold reports whether the transports put msg on the wire as a cold gob
// envelope, judged by the encoding function they call.
func isCold(msg any) bool {
	b, err := wire.AppendMessage(nil, msg)
	return err == nil && b[0] == wire.ColdTag
}

func (t *tapCaller) Call(ctx context.Context, addr string, req any) (any, error) {
	if isCold(req) {
		t.coldFrames.Add(1)
	}
	resp, err := t.inner.Call(ctx, addr, req)
	if err == nil && isCold(resp) {
		t.coldFrames.Add(1)
	}
	if _, ok := req.(wire.SketchFetch); ok {
		t.sketchFetch.Add(1)
		if t.hold != nil {
			t.hold()
		}
	}
	return resp, err
}

func (t *tapCaller) reset() {
	t.sketchFetch.Store(0)
	t.coldFrames.Store(0)
}

// tap installs a tapCaller in front of the cluster's coordinator caller.
func tap(ip *InProcess) *tapCaller {
	tc := &tapCaller{inner: ip.Cluster.caller}
	ip.Cluster.caller = tc
	return tc
}

func randDNA(rng *rand.Rand, n int) []byte {
	const letters = "ACGT"
	out := make([]byte, n)
	for i := range out {
		out[i] = letters[rng.Intn(len(letters))]
	}
	return out
}

func randSet(rng *rand.Rand, kind seq.Kind, n, length int) *seq.Set {
	set := seq.NewSet(kind)
	for i := 0; i < n; i++ {
		data := randProtein(rng, length)
		if kind == seq.DNA {
			data = randDNA(rng, length)
		}
		if _, err := set.Add(fmt.Sprintf("s%d", i), data); err != nil {
			panic(err)
		}
	}
	return set
}

func allSketchBytes(c *Cluster) [][]byte {
	out := make([][]byte, c.cfg.Groups)
	for g := range out {
		out[g] = c.GroupSketchBytes(g)
	}
	return out
}

// TestSketchFoldMatchesPull is the fold's exactness contract: after every
// incremental write the coordinator's group sketches marshal byte for byte
// like a fresh pull of every node's sketch, and the write pulled nothing.
func TestSketchFoldMatchesPull(t *testing.T) {
	for _, kind := range []seq.Kind{seq.Protein, seq.DNA} {
		for _, replicas := range []int{1, 2} {
			for _, workers := range []int{1, 4} {
				t.Run(fmt.Sprintf("%v/replicas=%d/workers=%d", kind, replicas, workers), func(t *testing.T) {
					cfg := DefaultConfig(kind)
					cfg.Groups = 3
					cfg.SampleSize = 300
					cfg.Replicas = replicas
					setProcs(t, workers)
					ip, err := NewInProcess(cfg, 9, transport.WithEncodeCheck())
					if err != nil {
						t.Fatal(err)
					}
					ctx := context.Background()
					rng := rand.New(rand.NewSource(int64(31 + replicas)))
					if err := ip.Index(ctx, randSet(rng, kind, 12, 300)); err != nil {
						t.Fatal(err)
					}
					tc := tap(ip)
					for i, n := range []int{1, 3, 1, 5, 1} {
						tc.reset()
						if err := ip.Index(ctx, randSet(rng, kind, n, 60+40*i)); err != nil {
							t.Fatal(err)
						}
						if got := tc.sketchFetch.Load(); got != 0 {
							t.Fatalf("write %d: %d SketchFetch calls, want a fold", i, got)
						}
						folded := allSketchBytes(ip.Cluster)
						ip.refreshSketches(ctx)
						for g, want := range allSketchBytes(ip.Cluster) {
							if want == nil || !bytes.Equal(folded[g], want) {
								t.Fatalf("write %d: group %d folded sketch differs from a pull", i, g)
							}
						}
					}
				})
			}
		}
	}
}

// TestSketchFoldFallsBackToPull covers the cases the coordinator cannot
// know node contents: a write that hinted a batch pulls (and the dead
// node's group stays incomplete exactly as a pull marks it), and so does
// the first write after that until every group is complete again.
func TestSketchFoldFallsBackToPull(t *testing.T) {
	ip := newTestCluster(t, 8, 4)
	ctx := context.Background()
	rng := rand.New(rand.NewSource(5))
	if err := ip.Index(ctx, buildTestDB(rng, 20, 300)); err != nil {
		t.Fatal(err)
	}
	tc := tap(ip)
	down := ip.Nodes[1].Addr()
	g, _ := ip.Topology().GroupOf(down)
	ip.Net.Fail(down)
	if err := ip.Index(ctx, buildTestDB(rng, 30, 200)); err != nil {
		t.Fatal(err)
	}
	if ip.HintsPending() == 0 {
		t.Fatal("write with a dead node parked no hints")
	}
	if tc.sketchFetch.Load() == 0 {
		t.Fatal("hinted write folded instead of pulling")
	}
	if ip.GroupSketchComplete(g) {
		t.Fatalf("group %d complete with member %s down", g, down)
	}

	// An incomplete group keeps the next write on the pull path too.
	ip.Net.Heal(down)
	tc.reset()
	if err := ip.Index(ctx, buildTestDB(rng, 1, 200)); err != nil {
		t.Fatal(err)
	}
	if tc.sketchFetch.Load() == 0 {
		t.Fatal("write over an incomplete view folded instead of pulling")
	}
}

func TestSketchFoldDisabledSketching(t *testing.T) {
	cfg := DefaultConfig(seq.Protein)
	cfg.Groups = 3
	cfg.SampleSize = 300
	cfg.SketchK = -1
	ip, err := NewInProcess(cfg, 6)
	if err != nil {
		t.Fatal(err)
	}
	tc := tap(ip)
	ctx := context.Background()
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 3; i++ {
		if err := ip.Index(ctx, buildTestDB(rng, 4, 200)); err != nil {
			t.Fatal(err)
		}
	}
	if got := tc.sketchFetch.Load(); got != 0 {
		t.Fatalf("sketching disabled, yet %d SketchFetch calls", got)
	}
	for g := 0; g < cfg.Groups; g++ {
		if b := ip.GroupSketchBytes(g); b != nil {
			t.Fatalf("group %d has a sketch with sketching disabled", g)
		}
	}
}

// TestWriteTraffic pins which RPCs a steady-state single-sequence write
// costs: no sketch pull and no cold (gob) frame in either direction.
func TestWriteTraffic(t *testing.T) {
	ip := newTestCluster(t, 9, 3)
	ctx := context.Background()
	rng := rand.New(rand.NewSource(9))
	if err := ip.Index(ctx, buildTestDB(rng, 20, 300)); err != nil {
		t.Fatal(err)
	}
	tc := tap(ip)
	if err := ip.Index(ctx, buildTestDB(rng, 1, 128)); err != nil {
		t.Fatal(err)
	}
	if got := tc.sketchFetch.Load(); got != 0 {
		t.Errorf("single-sequence write sent %d SketchFetch", got)
	}
	if got := tc.coldFrames.Load(); got != 0 {
		t.Errorf("single-sequence write sent %d cold (gob) frames", got)
	}
}

// TestStaleSketchPullNotInstalled replays the lost-update race: pull A
// reads every node's sketch, write B then completes, and A finishes last.
// A must not install its older view over B's; B's sequence must stay
// findable under the bloom prefilter.
func TestStaleSketchPullNotInstalled(t *testing.T) {
	ip := newTestCluster(t, 9, 3)
	ctx := context.Background()
	rng := rand.New(rand.NewSource(13))
	if err := ip.Index(ctx, buildTestDB(rng, 20, 300)); err != nil {
		t.Fatal(err)
	}
	tc := tap(ip)
	nodes := len(ip.Nodes)
	var held sync.WaitGroup
	held.Add(nodes)
	release := make(chan struct{})
	var gated atomic.Int64
	tc.hold = func() {
		if gated.Add(1) <= int64(nodes) {
			held.Done()
			<-release
		}
	}
	pulled := make(chan struct{})
	go func() {
		ip.refreshSketches(ctx)
		close(pulled)
	}()
	held.Wait() // A holds a view of every node from before B

	b := seq.NewSet(seq.Protein)
	bData := randProtein(rng, 160)
	if _, err := b.Add("b", bData); err != nil {
		t.Fatal(err)
	}
	if err := ip.Index(ctx, b); err != nil {
		t.Fatal(err)
	}
	close(release)
	<-pulled

	ip.SetPrefilterMode(PrefilterBloom)
	hits, err := ip.Search(ctx, bData[20:140], defaultTestParams())
	if err != nil {
		t.Fatal(err)
	}
	bID := seq.ID(20) // the cluster-global ID of B's only sequence
	if len(hits) == 0 || hits[0].Seq != bID {
		t.Fatalf("bloom-prefiltered search lost B's sequence: %+v", hits)
	}
	got := allSketchBytes(ip.Cluster)
	ip.refreshSketches(ctx)
	for g, want := range allSketchBytes(ip.Cluster) {
		if !bytes.Equal(got[g], want) {
			t.Fatalf("group %d: view after the race differs from a fresh pull", g)
		}
	}
}

// TestSketchFoldConcurrentPullsAndSearches interleaves folding writes with
// pulls (as repair issues them) and bloom-prefiltered searches; whatever
// the interleaving, the final view equals a fresh pull and every written
// sequence stays findable.
func TestSketchFoldConcurrentPullsAndSearches(t *testing.T) {
	ip := newTestCluster(t, 6, 3)
	ip.SetPrefilterMode(PrefilterBloom)
	ctx := context.Background()
	rng := rand.New(rand.NewSource(17))
	if err := ip.Index(ctx, buildTestDB(rng, 15, 300)); err != nil {
		t.Fatal(err)
	}
	writes := make([]*seq.Set, 8)
	for i := range writes {
		writes[i] = buildTestDB(rng, 1, 150)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				ip.refreshSketches(ctx)
			}
		}
	}()
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if _, err := ip.Search(ctx, writes[0].Seqs[0].Data[:60], defaultTestParams()); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	for _, w := range writes {
		if err := ip.Index(ctx, w); err != nil {
			t.Error(err)
		}
	}
	close(stop)
	wg.Wait()

	got := allSketchBytes(ip.Cluster)
	ip.refreshSketches(ctx)
	for g, want := range allSketchBytes(ip.Cluster) {
		if !bytes.Equal(got[g], want) {
			t.Fatalf("group %d: view after concurrent folds and pulls differs from a fresh pull", g)
		}
	}
	for i, w := range writes {
		hits, err := ip.Search(ctx, w.Seqs[0].Data[20:120], defaultTestParams())
		if err != nil {
			t.Fatal(err)
		}
		if len(hits) == 0 || hits[0].Seq != seq.ID(15+i) {
			t.Fatalf("write %d not found under the bloom prefilter: %+v", i, hits)
		}
	}
}
