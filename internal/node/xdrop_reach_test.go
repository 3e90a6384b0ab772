package node

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

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

// TestXDropReach measures how far extendAnchor's X-drop walk reaches past
// its seed on query_short-shaped data, and how often the stored context
// rather than the drop-off ends it. It places the workload's database the
// way ingest does (vp-prefix group, then the group's ring) on 20 nodes in 4
// groups, routes each probe window as the coordinator does, and repeats
// localSearch's screen on every member; each anchor is then walked over the
// whole subject sequence. A measurement, not a check, so it runs only with -v:
//
//	go test -run TestXDropReach -v ./internal/node/
func TestXDropReach(t *testing.T) {
	if !testing.Verbose() {
		t.Skip("a measurement: run with -v")
	}
	// benchmark/scenario.go's query_short at seed 1: 400 protein sequences
	// of 500±100 residues, 32 planted 120-residue probes at each of 0.9, 0.5
	// and 0.3 similarity.
	const seed = 1
	db, err := datagen.New(seq.Protein, seed*1000003+1).Database(400, 500, 100, "bg")
	if err != nil {
		t.Fatal(err)
	}
	qGen, qRng := datagen.New(seq.Protein, seed*1000003+2), rand.New(rand.NewSource(seed*1000003+4))
	type probe struct {
		query  []byte
		source seq.ID
	}
	var probes []probe
	for _, sim := range []float64{0.9, 0.5, 0.3} {
		for n := 0; n < 32; {
			s := db.Seqs[qRng.Intn(db.Len())]
			if s.Len() < 120 {
				continue
			}
			start := qRng.Intn(s.Len() - 120 + 1)
			probes = append(probes, probe{qGen.MutateToSimilarity(s.Window(start, 120), sim), s.ID})
			n++
		}
	}

	// Placement on the default cluster: core.buildHashTree's even sample of
	// 2000 block contents, Replicas = 1.
	cfg, met := invindex.DefaultConfig, metric.ForKind(seq.Protein)
	stride := 0
	for _, s := range db.Seqs {
		stride += invindex.BlockCount(s.Len(), cfg.BlockLen)
	}
	stride /= 2000
	var sample [][]byte
	count := 0
	for _, s := range db.Seqs {
		for start := 0; start+cfg.BlockLen <= s.Len(); start, count = start+1, count+1 {
			if count%stride == 0 {
				sample = append(sample, s.Window(start, cfg.BlockLen))
			}
		}
	}
	hash, err := vphash.Build(met, sample, vphash.HalfDepth(len(sample)), 4, 1)
	if err != nil {
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
	topo, err := dht.NewTopology(groups, 0)
	if err != nil {
		t.Fatal(err)
	}
	stores, items := make(map[string]*blockStore), make(map[string][]vptree.Item)
	for _, name := range names {
		stores[name] = mustStore(t, cfg.BlockLen, cfg.Margin)
	}
	for _, s := range db.Seqs {
		for _, b := range toWire(s, cfg) {
			name := topo.ReplicasFor(hash.Group(b.Content), b.Content, 1)[0]
			items[name] = append(items[name], vptree.Item{Key: stores[name].add(&b), Ref: invindex.PackRef(b.Seq, b.Start)})
		}
	}
	trees := make(map[string]*vptree.Tree)
	blocks, storeBytes, ctxBytes := 0, 0, 0
	for name, it := range items {
		trees[name] = vptree.Build(met, 0, 1, it)
		blocks, storeBytes, ctxBytes = blocks+len(it), storeBytes+stores[name].bytes(), ctxBytes+chunkBytesUsed(stores[name])
	}
	// What the Margin costs, beside what it buys below.
	t.Logf("%d blocks on 20 nodes: block store %.1f B/block (%d-residue margins); context bytes %.1f per residue",
		blocks, float64(storeBytes)/float64(blocks), cfg.Margin, float64(ctxBytes)/float64(db.TotalResidues()))

	// The default protein search: BLOSUM62, 16-residue windows at step 16,
	// 12 neighbours at identity 0.3 and c-score 0.4, the default k-NN budget.
	m, _ := matrix.ByName("BLOSUM62")
	p := wire.DefaultParams()
	eps := met.MaxPerResidue() * cfg.BlockLen / 8
	minMatch, matched := minMatches(p.Identity, cfg.BlockLen), make([]bool, cfg.BlockLen)
	var knn vptree.Searcher
	type tally struct {
		reach              []int // residues walked per side, over the whole sequence
		anchors, edge, cut int
	}
	var source, background tally
	for _, pr := range probes {
		seq.WindowsCovering(pr.query, cfg.BlockLen, p.Step, func(off int, window []byte) {
			for _, g := range hash.GroupsFor(window, eps) {
				for _, name := range topo.GroupNodes(g) {
					cands, _ := knn.NearestEligible(trees[name], window, p.Neighbors, 4096, minMatch)
					for _, c := range cands {
						if cScoreInto(window, c.Key, m, matched) < p.CScore {
							continue
						}
						b, _ := stores[name].get(c.Ref)
						subject := db.Get(b.Seq).Data
						left := walk(pr.query, subject, off-1, b.Start-1, -1, m)
						right := walk(pr.query, subject, off+cfg.BlockLen, b.Start+cfg.BlockLen, 1, m)
						tl := &background
						if b.Seq == pr.source {
							tl = &source
						}
						tl.anchors++
						tl.reach = append(tl.reach, left, right)
						if left > b.CtxOff || right > len(b.Context)-b.CtxOff-cfg.BlockLen {
							tl.edge++
						}
						full := align.ExtendUngapped(pr.query, subject, off, b.Start, cfg.BlockLen, m, xDrop)
						if a := extendAnchor(pr.query, off, cfg.BlockLen, b, m); a.SStart != full.SStart || a.SEnd != full.SEnd {
							tl.cut++
						}
					}
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
		t.Logf("%-14s %6d anchors: walk reach per side p50 %d, p95 %d, max %d; %.1f%% read to a context edge, %.1f%% end short of the whole-sequence anchor",
			r.name, r.anchors, pct(0.5), pct(0.95), r.reach[len(r.reach)-1],
			100*float64(r.edge)/float64(r.anchors), 100*float64(r.cut)/float64(r.anchors))
	}
}

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
