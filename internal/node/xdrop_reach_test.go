package node

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"mendel/internal/align"
	"mendel/internal/datagen"
	"mendel/internal/dht"
	"mendel/internal/invindex"
	"mendel/internal/matrix"
	"mendel/internal/metric"
	"mendel/internal/seq"
	"mendel/internal/vphash"
	"mendel/internal/vptree"
	"mendel/internal/wire"
)

// probe is a planted query: a window of a database sequence mutated to a
// similarity level.
type probe struct {
	query  []byte
	source seq.ID
	start  int // of the window in the source
	sim    float64
}

// placedNode is one node's share of a placement: its block store, its
// screen, and the slots the screen was built from.
type placedNode struct {
	store  *blockStore
	screen screen
	slots  []slot
}

// placement is benchmark/scenario.go's query_short at seed 1 with scale times
// as many database sequences (400 protein sequences of 500±100 residues at
// scale 1) and 32 planted 120-residue probes at each of 0.9, 0.5 and 0.3
// similarity, placed the way ingest places it on the default cluster: the
// vp-prefix group of core.buildHashTree's even sample of 2000 block contents,
// then the group's ring keyed by region (dht.Topology.Place), Replicas = 1,
// on 20 nodes in 4 groups.
type placement struct {
	db     *seq.Set
	probes []probe
	hash   *vphash.Tree
	topo   *dht.Topology
	met    metric.Metric
	cfg    invindex.Config
	nodes  map[string]*placedNode
}

func placeQueryShort(t testing.TB, scale int) *placement {
	t.Helper()
	const seed = 1
	db, err := datagen.New(seq.Protein, seed*1000003+1).Database(400*scale, 500, 100, "bg")
	if err != nil {
		t.Fatal(err)
	}
	qGen, qRng := datagen.New(seq.Protein, seed*1000003+2), rand.New(rand.NewSource(seed*1000003+4))
	pl := &placement{db: db, met: metric.ForKind(seq.Protein), cfg: invindex.DefaultConfig, nodes: make(map[string]*placedNode)}
	for _, sim := range []float64{0.9, 0.5, 0.3} {
		for n := 0; n < 32; {
			s := db.Seqs[qRng.Intn(db.Len())]
			if s.Len() < 120 {
				continue
			}
			start := qRng.Intn(s.Len() - 120 + 1)
			pl.probes = append(pl.probes, probe{qGen.MutateToSimilarity(s.Window(start, 120), sim), s.ID, start, sim})
			n++
		}
	}

	stride := 0
	for _, s := range db.Seqs {
		stride += invindex.BlockCount(s.Len(), pl.cfg.BlockLen)
	}
	stride /= 2000
	var sample [][]byte
	count := 0
	for _, s := range db.Seqs {
		for start := 0; start+pl.cfg.BlockLen <= s.Len(); start, count = start+1, count+1 {
			if count%stride == 0 {
				sample = append(sample, s.Window(start, pl.cfg.BlockLen))
			}
		}
	}
	if pl.hash, err = vphash.Build(pl.met, sample, vphash.HalfDepth(len(sample)), 4, 1); err != nil {
		t.Fatal(err)
	}
	var names []string
	for i := 0; i < 20; i++ {
		names = append(names, fmt.Sprintf("n%02d", i))
	}
	groups, err := dht.SplitNodes(names, 4)
	if err != nil {
		t.Fatal(err)
	}
	if pl.topo, err = dht.NewTopology(groups, 0); err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		store, err := newBlockStore(seq.Protein, pl.cfg.BlockLen, pl.cfg.Margin)
		if err != nil {
			t.Fatal(err)
		}
		pl.nodes[name] = &placedNode{store: &store, screen: newScreen(seq.Protein, pl.cfg.BlockLen, pl.met)}
	}
	for _, s := range db.Seqs {
		for _, b := range toWire(s, pl.cfg) {
			pn := pl.nodes[pl.topo.Place(pl.hash.Group(b.Content), b.Seq, b.Start, 1)[0]]
			pos, _ := pn.store.add(&b)
			pn.slots = append(pn.slots, slot{invindex.PackRef(b.Seq, b.Start), pos})
		}
	}
	for _, pn := range pl.nodes { // as BuildIndex does
		pn.store.seal()
		slices.SortFunc(pn.slots, func(a, b slot) int { return cmp.Compare(a.ref, b.ref) })
		pn.screen.reserve(len(pn.slots))
		for _, s := range pn.slots {
			pn.screen.add(content(pn.store.chunks, s.pos, pl.cfg.BlockLen), s.ref)
		}
	}
	return pl
}

// route calls fn for every window of query the coordinator sends out at the
// default step and every node of every group it routes the window to.
func (pl *placement) route(query []byte, fn func(off int, window []byte, name string, pn *placedNode)) {
	eps := pl.met.MaxPerResidue() * pl.cfg.BlockLen / 8
	seq.WindowsCovering(query, pl.cfg.BlockLen, wire.DefaultParams().Step, func(off int, window []byte) {
		for _, g := range pl.hash.GroupsFor(window, eps) {
			for _, name := range pl.topo.GroupNodes(g) {
				fn(off, window, name, pl.nodes[name])
			}
		}
	})
}

// TestXDropReach measures how far extendAnchor's X-drop walk reaches past
// its seed on query_short-shaped data, and how often the stored context
// rather than the drop-off ends it. It routes each probe window of the
// query_short placement as the coordinator does and repeats localSearch on
// every member — the screen's lookup, the c-score filter, the extension —
// and walks each anchor over the whole subject sequence; it also counts the
// anchors whose bit score reaches S, the ones localSearch ships. A
// measurement, not a check, so it runs only with -v:
//
//	go test -run TestXDropReach -v ./internal/node/
func TestXDropReach(t *testing.T) {
	if !testing.Verbose() {
		t.Skip("a measurement: run with -v")
	}
	pl := placeQueryShort(t, 1)
	blocks, storeBytes, ctxBytes := 0, 0, 0
	for _, pn := range pl.nodes {
		blocks, storeBytes, ctxBytes = blocks+len(pn.slots), storeBytes+pn.store.bytes(), ctxBytes+chunkBytesUsed(pn.store)
	}
	// What the Margin costs, beside what it buys below.
	t.Logf("%d blocks on 20 nodes: block store %.1f B/block (%d-residue margins); context bytes %.1f per residue",
		blocks, float64(storeBytes)/float64(blocks), pl.cfg.Margin, float64(ctxBytes)/float64(pl.db.TotalResidues()))

	// The default protein search: BLOSUM62, 16-residue windows at step 16,
	// 12 neighbours at identity 0.3 and c-score 0.4, S = 28 bits.
	m, _ := matrix.ByName("BLOSUM62")
	kp, err := align.ParamsForMatrix(m)
	if err != nil {
		t.Fatal(err)
	}
	p, w := wire.DefaultParams(), pl.cfg.BlockLen
	minMatch := minMatches(p.Identity, w)
	var st screenSearch
	type tally struct {
		reach                      []int // residues walked per side, over the whole sequence
		anchors, edge, cut, passes int
	}
	var source, background tally
	for _, pr := range pl.probes {
		pl.route(pr.query, func(off int, window []byte, _ string, pn *placedNode) {
			cands, _ := pn.screen.nearest(&st, window, p.Neighbors, minMatch)
			if len(cands) > 0 {
				pn.screen.matchCodes(&st, window, m)
			}
			for _, c := range cands {
				if pn.screen.cScore(&st, c.key) < p.CScore {
					continue
				}
				b, _ := pn.store.get(c.ref)
				subject := pl.db.Get(b.Seq).Data
				left := walk(pr.query, subject, off-1, b.Start-1, -1, m)
				right := walk(pr.query, subject, off+w, b.Start+w, 1, m)
				tl := &background
				if b.Seq == pr.source {
					tl = &source
				}
				tl.anchors++
				tl.reach = append(tl.reach, left, right)
				if left > b.CtxOff || right > len(b.Context)-b.CtxOff-w {
					tl.edge++
				}
				full := align.ExtendUngapped(pr.query, subject, off, b.Start, w, m, xDrop)
				a := extendAnchor(pr.query, off, w, b, m)
				if a.SStart != full.SStart || a.SEnd != full.SEnd {
					tl.cut++
				}
				if kp.BitScore(a.Score) >= float64(p.GappedS) {
					tl.passes++
				}
			}
		})
	}
	for _, r := range []struct {
		name string
		tally
	}{{"planted source", source}, {"background", background}} {
		slices.Sort(r.reach)
		pct := func(q float64) int { return r.reach[int(q*float64(len(r.reach)-1))] }
		t.Logf("%-14s %6d anchors (%d reach S): walk reach per side p50 %d, p95 %d, max %d; %.1f%% read to a context edge, %.1f%% end short of the whole-sequence anchor",
			r.name, r.anchors, r.passes, pct(0.5), pct(0.95), r.reach[len(r.reach)-1],
			100*float64(r.edge)/float64(r.anchors), 100*float64(r.cut)/float64(r.anchors))
	}
}

// TestNodeScale measures the node-local lookup on the query_short placement
// at its own size and with ten times the sequences: the screen beside the
// vp-tree it replaced, with the default 4096-evaluation budget and exact. Per
// scale it reports µs per lookup of each, in how many probes of each
// similarity stratum some node's candidates hold the source block on its own
// diagonal (±8), the keys that pass the screen per lookup and the screen's
// bytes per key. A measurement, not a check, so it runs only with -v:
//
//	go test -run TestNodeScale -v -timeout 30m ./internal/node/
func TestNodeScale(t *testing.T) {
	if !testing.Verbose() {
		t.Skip("a measurement: run with -v")
	}
	p := wire.DefaultParams()
	for _, scale := range []int{1, 10} {
		pl := placeQueryShort(t, scale)
		w := pl.cfg.BlockLen
		minMatch := minMatches(p.Identity, w)
		trees := make(map[string]*vptree.Tree)
		keys, screenBytes := 0, 0
		for name, pn := range pl.nodes {
			items := make([]vptree.Item, len(pn.slots))
			for i, s := range pn.slots {
				items[i] = vptree.Item{Key: content(pn.store.chunks, s.pos, w), Ref: s.ref}
			}
			trees[name] = vptree.Build(pl.met, 0, 1, items)
			s := &pn.screen
			keys, screenBytes = keys+s.len(), screenBytes+8*cap(s.words)+8*cap(s.refs)
		}
		// found reports whether refs hold the probe's source block on its
		// own diagonal, give or take the drift of the mutation's indels.
		found := func(pr probe, off int, refs []uint64) bool {
			for _, ref := range refs {
				if id, start := invindex.UnpackRef(ref); id == pr.source && abs(start-off-pr.start) <= 8 {
					return true
				}
			}
			return false
		}
		type method struct {
			name   string
			lookup func(pn *placedNode, name string, window []byte) []uint64
			ns     time.Duration
			hits   map[float64]int
		}
		var st screenSearch
		var knn vptree.Searcher
		eligible, lookups := 0, 0
		tree := func(budget int) func(*placedNode, string, []byte) []uint64 {
			return func(_ *placedNode, name string, window []byte) []uint64 {
				res, _ := knn.NearestEligible(trees[name], window, p.Neighbors, budget, minMatch)
				refs := make([]uint64, len(res))
				for i, r := range res {
					refs[i] = r.Ref
				}
				return refs
			}
		}
		methods := []*method{
			{name: "screen", lookup: func(pn *placedNode, _ string, window []byte) []uint64 {
				cands, e := pn.screen.nearest(&st, window, p.Neighbors, minMatch)
				eligible, lookups = eligible+e, lookups+1
				refs := make([]uint64, len(cands))
				for i, c := range cands {
					refs[i] = c.ref
				}
				return refs
			}},
			{name: "budgeted tree", lookup: tree(4096)},
			{name: "exact tree", lookup: tree(0)},
		}
		for _, me := range methods {
			me.hits = make(map[float64]int)
			for _, pr := range pl.probes {
				hit := false
				pl.route(pr.query, func(off int, window []byte, name string, pn *placedNode) {
					t0 := time.Now()
					refs := me.lookup(pn, name, window)
					me.ns += time.Since(t0)
					hit = hit || found(pr, off, refs)
				})
				if hit {
					me.hits[pr.sim]++
				}
			}
		}
		t.Logf("×%d: %d keys, %.0f per node; screen %.1f B/key, %.1f keys pass its identity test per lookup",
			scale, keys, float64(keys)/20, float64(screenBytes)/float64(keys), float64(eligible)/float64(lookups))
		for _, me := range methods {
			t.Logf("×%d %-13s %7.1f µs/lookup; source block in the candidates: s90 %d, s50 %d, s30 %d of 32",
				scale, me.name, float64(me.ns.Nanoseconds())/1e3/float64(lookups), me.hits[0.9], me.hits[0.5], me.hits[0.3])
		}
	}
}

func abs(x int) int { return max(x, -x) }

// walk counts the residue pairs align.ExtendUngapped's X-drop walk reads from
// query[qi] and subject[si] on, in direction dir, before the drop-off or the
// end of either sequence stops it.
func walk(query, subject []byte, qi, si, dir int, m *matrix.Matrix) int {
	best, run, n := 0, 0, 0
	for ; qi >= 0 && si >= 0 && qi < len(query) && si < len(subject); qi, si = qi+dir, si+dir {
		n++
		run += m.Score(query[qi], subject[si])
		best = max(best, run)
		if best-run > xDrop {
			break
		}
	}
	return n
}
