package main

import (
	"context"
	"fmt"
	"strings"
	"time"

	"mendel"
	"mendel/internal/align"
	"mendel/internal/anchorset"
	"mendel/internal/core"
	"mendel/internal/dht"
	"mendel/internal/invindex"
	"mendel/internal/matrix"
	"mendel/internal/metric"
	"mendel/internal/seq"
	"mendel/internal/sketch"
	"mendel/internal/transport"
	"mendel/internal/vphash"
	"mendel/internal/vptree"
	"mendel/internal/wire"
)

// replay re-runs the query and ingest data path one layer at a time, from
// outside, on inputs captured from the workload: its query windows, one
// node's share of its blocks, real group requests and replies, and its
// planted (query, source-region) pairs. Every call goes to an exported
// function of the layer's package; the spans are the harness's own.
type replay struct {
	t      *tracedRun
	lc     *localCluster
	client *transport.TCPClient
	met    metric.Metric
	blosum *matrix.Matrix
	cfg    mendel.Config
	params mendel.Params
	root   int // root span of the replay operation
	op     int
	budget time.Duration // wall-time bound of one replayed layer

	hash     *vphash.Tree
	windows  [][]byte       // every subquery window of the cycle
	planted  []plantedPair  // planted windows with their source block
	requests []groupRequest // captured before the gateway phase
}

// plantedPair is one window of a planted query with where it came from.
type plantedPair struct {
	q      *query
	src    *seq.Sequence
	offset int // window start in the query
}

// groupRequest is one real GroupSearch with the reply a node gave.
type groupRequest struct {
	query int // index of the cycle query it belongs to
	req   wire.GroupSearch
	resp  wire.GroupSearchResult
}

// replayShare is the share of -seconds all replays together may take.
const replayShare = 0.30

// replayLayers is how many budgeted measurements run() makes.
const replayLayers = 26

func newReplay(ctx context.Context, t *tracedRun, lc *localCluster) (*replay, error) {
	blosum, ok := matrix.ByName("BLOSUM62")
	if !ok {
		return nil, fmt.Errorf("replay: BLOSUM62 not registered")
	}
	r := &replay{
		t: t, lc: lc, client: transport.NewTCPClient(0), blosum: blosum,
		cfg: lc.cluster.Config(), params: mendel.DefaultParams(), met: metric.ForKind(seq.Protein),
		budget: secs(t.seconds * replayShare / replayLayers),
	}
	r.op = t.nextOp()

	// The coordinator's hash tree, rebuilt the way Cluster.Index builds it:
	// an even sample of about Config.SampleSize blocks, half-depth cutoff.
	sample := r.sample()
	tree, err := vphash.Build(r.met, sample, vphash.HalfDepth(len(sample)), r.cfg.Groups, r.cfg.Seed)
	if err != nil {
		return nil, err
	}
	r.hash = tree

	byName := map[string]*seq.Sequence{}
	for _, s := range t.sc.DB.Seqs {
		byName[s.Name] = s
	}
	source := func(q *query) *seq.Sequence {
		if s := byName[q.Source]; s != nil {
			return s
		}
		for _, s := range t.sc.DB.Seqs { // family prefix: first member
			if strings.HasPrefix(s.Name, q.Source) {
				return s
			}
		}
		return nil
	}
	for i := range t.sc.Queries {
		q := &t.sc.Queries[i]
		src := source(q)
		seq.WindowsCovering(q.Seq, r.cfg.BlockLen, r.params.Step, func(start int, w []byte) {
			r.windows = append(r.windows, w)
			if q.Planted && src != nil {
				r.planted = append(r.planted, plantedPair{q: q, src: src, offset: start})
			}
		})
	}
	if len(r.planted) == 0 {
		return nil, fmt.Errorf("replay: workload has no planted query")
	}

	// Real messages: each of the first queries' group requests, answered by
	// the group's first member as a group entry point.
	const capture = 12
	eps := r.eps()
	for i := 0; i < capture && i < len(t.sc.Queries); i++ {
		q := &t.sc.Queries[i]
		offsets := map[int][]int{}
		seq.WindowsCovering(q.Seq, r.cfg.BlockLen, r.params.Step, func(start int, w []byte) {
			for _, g := range r.hash.GroupsFor(w, eps) {
				offsets[g] = append(offsets[g], start)
			}
		})
		for g := 0; g < r.cfg.Groups; g++ {
			if len(offsets[g]) == 0 {
				continue
			}
			req := wire.GroupSearch{Group: g, Query: q.Seq, Offsets: offsets[g], WindowLen: r.cfg.BlockLen, Params: r.params}
			resp, err := r.client.Call(ctx, lc.groups[g][0], req)
			if err != nil {
				return nil, fmt.Errorf("replay: group search: %w", err)
			}
			res, ok := resp.(wire.GroupSearchResult)
			if !ok {
				return nil, fmt.Errorf("replay: group search answered %T", resp)
			}
			r.requests = append(r.requests, groupRequest{query: i, req: req, resp: res})
		}
	}
	return r, nil
}

func (r *replay) close() { r.client.Close() }

// eps is the coordinator's default routing radius (Config.QueryEps == 0).
func (r *replay) eps() int { return r.met.MaxPerResidue() * r.cfg.BlockLen / 8 }

// sample draws the hash-tree sample as Cluster.Index does.
func (r *replay) sample() [][]byte {
	stride := r.t.sc.Blocks / r.cfg.SampleSize
	if stride < 1 {
		stride = 1
	}
	var sample [][]byte
	count := 0
	for _, s := range r.t.sc.DB.Seqs {
		for start := 0; start+r.cfg.BlockLen <= s.Len(); start++ {
			if count%stride == 0 {
				sample = append(sample, s.Window(start, r.cfg.BlockLen))
			}
			count++
		}
	}
	return sample
}

// each times fn(i) for i = 0..n-1, one child span per call, stopping early
// once the layer's budget is spent (but never before min calls). It returns
// the per-call durations in nanoseconds.
func (r *replay) each(name string, n, min int, fn func(i int)) []float64 {
	out := make([]float64, 0, n)
	start := time.Now()
	for i := 0; i < n; i++ {
		if i >= min && time.Since(start) > r.budget {
			break
		}
		d := r.t.rec.timed(r.root, r.op, name, func() { fn(i) })
		out = append(out, float64(d.Nanoseconds()))
	}
	return out
}

// batched times calls too short to time singly: fn(i) runs batch times per
// child span, and the result is the per-call nanoseconds of each batch.
func (r *replay) batched(name string, batch int, fn func(i int)) []float64 {
	var out []float64
	start := time.Now()
	for b := 0; b < 5 || time.Since(start) < r.budget; b++ {
		base := b * batch
		d := r.t.rec.timed(r.root, r.op, name, func() {
			for i := 0; i < batch; i++ {
				fn(base + i)
			}
		})
		out = append(out, float64(d.Nanoseconds())/float64(batch))
	}
	return out
}

// sink keeps results alive so the compiler cannot drop a replayed call.
var sink int

func (r *replay) run(ctx context.Context) {
	t, sc := r.t, r.t.sc
	root, end := t.rec.begin(0, r.op, "replay")
	r.root = root
	defer end()
	blockCfg := invindex.Config{BlockLen: r.cfg.BlockLen, Margin: r.cfg.Margin}
	nw := len(r.windows)

	// --- ingest path: fragment, hash to a group, place on the ring ---
	var blocks []invindex.Block
	var fragNS float64
	for _, s := range sc.DB.Seqs {
		var b []invindex.Block
		fragNS += float64(t.rec.timed(root, r.op, "invindex.Blocks", func() { b = invindex.Blocks(s, blockCfg) }).Nanoseconds())
		blocks = append(blocks, b...)
	}
	t.set("invindex.blocks_per_s", float64(len(blocks))/(fragNS/1e9), len(blocks))

	sample := r.sample()
	buildNS := r.each("vphash.Build", 5, 3, func(int) {
		tree, err := vphash.Build(r.met, sample, vphash.HalfDepth(len(sample)), r.cfg.Groups, r.cfg.Seed)
		if err != nil {
			t.gatef("vphash.Build: %v", err)
			return
		}
		sink += tree.Leaves()
	})
	t.set("vphash.build_ms", median(buildNS)/1e6, len(buildNS))

	const batch = 4096 // blocks per span on the ns-scale ingest layers
	groups := make([]int, len(blocks))
	var hashNS []float64
	for lo := 0; lo < len(blocks); lo += batch {
		hi := min(lo+batch, len(blocks))
		d := t.rec.timed(root, r.op, "vphash.Group", func() {
			for i := lo; i < hi; i++ {
				groups[i] = r.hash.Group(blocks[i].Content)
			}
		})
		hashNS = append(hashNS, float64(d.Nanoseconds())/float64(hi-lo))
	}
	t.set("vphash.hash_ns", median(hashNS), len(blocks))

	topo, err := dht.NewTopology(r.lc.groups, 0)
	if err != nil {
		t.gatef("dht.NewTopology: %v", err)
		return
	}
	// One node's share of the database: what its vp-tree holds.
	share, node0 := []vptree.Item(nil), r.lc.groups[0][0]
	var lookupNS []float64
	for lo := 0; lo < len(blocks); lo += batch {
		hi := min(lo+batch, len(blocks))
		d := t.rec.timed(root, r.op, "dht.ReplicasFor", func() {
			for i := lo; i < hi; i++ {
				if topo.ReplicasFor(groups[i], blocks[i].Content, 1)[0] == node0 {
					share = append(share, vptree.Item{Key: blocks[i].Content, Ref: invindex.PackRef(blocks[i].Seq, blocks[i].Start)})
				}
			}
		})
		lookupNS = append(lookupNS, float64(d.Nanoseconds())/float64(hi-lo))
	}
	t.set("dht.lookup_ns", median(lookupNS), len(blocks))
	if len(share) == 0 {
		t.gatef("replay: node %s holds no block", node0)
		return
	}

	sk := sketch.New(sketch.DefaultParams(seq.Protein))
	addNS := r.each("sketch.Add", sc.DB.Len(), 50, func(i int) { sk.Add(sc.DB.Seqs[i].Data) })
	added := 0
	for i := range addNS {
		added += sc.DB.Seqs[i].Len()
	}
	t.set("sketch.add_ns_per_residue", sum(addNS)/float64(added), added)
	sharesNS := r.batched("sketch.SharesAny", 256, func(i int) {
		if sk.SharesAny(r.windows[i%nw]) {
			sink++
		}
	})
	t.set("sketch.sharesany_ns", median(sharesNS), len(sharesNS)*256)

	// An IndexBlocks batch as the ingest pipeline ships it.
	nb := min(len(blocks), 4096) // core's indexBatchBlocks
	msg := wire.IndexBlocks{Stage: true, Blocks: make([]wire.Block, nb)}
	for i := 0; i < nb; i++ {
		b := blocks[i]
		msg.Blocks[i] = wire.Block{Seq: b.Seq, Start: b.Start, Content: b.Content, Context: b.Context, CtxOff: b.CtxOff}
	}
	size, encNS, decNS := r.codec("wire.IndexBlocks", msg)
	t.set("wire.indexblocks_bytes_per_block", float64(size)/float64(nb), nb)
	t.set("wire.indexblocks_enc_ns_per_block", encNS/float64(nb), nb)
	t.set("wire.indexblocks_dec_ns_per_block", decNS/float64(nb), nb)

	var tree *vptree.Tree
	treeNS := r.each("vptree.Build", 5, 3, func(int) { tree = vptree.Build(r.met, r.cfg.BucketCap, r.cfg.Seed, share) })
	t.set("vptree.build_items_per_s", float64(len(share))/(median(treeNS)/1e9), len(share))

	// --- query path ---
	eps := r.eps()
	probed, useful := 0, 0
	routeNS := r.batched("vphash.GroupsFor", 64, func(i int) { sink += len(r.hash.GroupsFor(r.windows[i%nw], eps)) })
	for _, p := range r.planted {
		gs := r.hash.GroupsFor(p.q.Seq[p.offset:p.offset+r.cfg.BlockLen], eps)
		probed += len(gs)
		home := r.hash.Group(p.src.Window(p.q.SrcStart+p.offset, r.cfg.BlockLen))
		for _, g := range gs {
			if g == home {
				useful++
			}
		}
	}
	t.set("vphash.groupsfor_ns", median(routeNS), len(routeNS)*64)
	t.set("vphash.groups_per_window", float64(probed)/float64(len(r.planted)), len(r.planted))
	t.set("vphash.useful_group_frac", float64(useful)/float64(probed), probed)

	distNS := r.batched("metric.Distance", 8192, func(i int) { sink += r.met.Distance(r.windows[i%nw], share[i%len(share)].Key) })
	t.set("metric.distance_ns", median(distNS), len(distNS)*8192)

	const budget = core.DefaultSearchBudget // what Config.SearchBudget == 0 derives
	// Fixed numbers of windows, not time-bounded ones: the visit counts and
	// the overlap are then functions of the seed alone.
	knnN := min(nw, 512)
	visits, atBudget := 0, 0
	budgeted := make([][]vptree.Result, knnN)
	knnNS := r.each("vptree.NearestBudgetVisits", knnN, knnN, func(i int) {
		res, v := tree.NearestBudgetVisits(r.windows[i], r.params.Neighbors, budget)
		budgeted[i] = res
		visits += v
		if v >= budget {
			atBudget++
		}
	})
	t.set("vptree.knn_us", median(knnNS)/1e3, knnN)
	t.set("vptree.visits_per_lookup", float64(visits)/float64(knnN), knnN)
	t.set("vptree.ns_per_visit", sum(knnNS)/float64(visits), visits)
	t.set("vptree.budget_hit_frac", float64(atBudget)/float64(knnN), knnN)

	// Exact search on the same windows: how much of the true top-n the
	// budgeted traversal returns.
	exactN := min(knnN, 128)
	same, want := 0, 0
	r.each("vptree.Nearest", exactN, exactN, func(i int) {
		refs := map[uint64]bool{}
		for _, e := range tree.Nearest(r.windows[i], r.params.Neighbors) {
			refs[e.Ref] = true
		}
		want += len(refs)
		for _, b := range budgeted[i] {
			if refs[b.Ref] {
				same++
			}
		}
	})
	t.set("vptree.knn_exact_overlap", float64(same)/float64(want), exactN)

	// The no-index floor: every item's distance to the window.
	scanNS := r.each("scan_floor", nw, 16, func(i int) {
		best := int(^uint(0) >> 1)
		for j := range share {
			if d := r.met.Distance(r.windows[i], share[j].Key); d < best {
				best = d
			}
		}
		sink += best
	})
	t.set("vptree.scan_floor_us", median(scanNS)/1e3, len(scanNS))

	ungappedNS := r.batched("align.ExtendUngapped", 64, func(i int) {
		p := r.planted[i%len(r.planted)]
		sink += align.ExtendUngapped(p.q.Seq, p.src.Data, p.offset, p.q.SrcStart+p.offset, r.cfg.BlockLen, r.blosum, 20).Score
	})
	t.set("align.ungapped_ns", median(ungappedNS), len(ungappedNS)*64)

	// Gapped extension as the coordinator runs it: the source region padded
	// by band + 16 on both sides, band centred on the planted diagonal.
	var plantedQ []*query
	for i := range sc.Queries {
		if sc.Queries[i].Planted {
			plantedQ = append(plantedQ, &sc.Queries[i])
		}
	}
	srcOf := map[*query]*seq.Sequence{}
	for _, p := range r.planted {
		srcOf[p.q] = p.src
	}
	cells := 0
	bandedNS := r.each("align.BandedSmithWaterman", len(plantedQ), 16, func(i int) {
		q := plantedQ[i]
		pad := r.params.Band + 16
		regionStart := max(q.SrcStart-pad, 0)
		region := srcOf[q].Region(regionStart, q.SrcEnd+pad)
		centre := q.SrcStart - regionStart
		al := align.BandedSmithWaterman(q.Seq, region, centre-r.params.Band, centre+r.params.Band, r.blosum)
		sink += al.Score
		cells += len(q.Seq) * (2*r.params.Band + 1)
	})
	t.set("align.banded_us", median(bandedNS)/1e3, len(bandedNS))
	t.set("align.banded_cells_per_us", float64(cells)/(sum(bandedNS)/1e3), cells)

	// The system entry point's merge, on the anchors the groups returned.
	perQuery := map[int][]wire.Anchor{}
	for _, gr := range r.requests {
		perQuery[gr.query] = append(perQuery[gr.query], gr.resp.Anchors...)
	}
	var sets [][]wire.Anchor
	for _, qi := range sortedKeys(perQuery) {
		if len(perQuery[qi]) > 0 {
			sets = append(sets, perQuery[qi])
		}
	}
	if len(sets) == 0 {
		t.gatef("replay: captured group replies carry no anchor")
		return
	}
	in, kept := 0, 0
	for _, s := range sets {
		in += len(s)
		kept += len(anchorset.Merge(append([]wire.Anchor(nil), s...)))
	}
	scratch := make([]wire.Anchor, 0, in)
	mergeNS := r.batched("anchorset.Merge", len(sets), func(i int) {
		scratch = append(scratch[:0], sets[i%len(sets)]...)
		sink += len(anchorset.Merge(scratch))
	})
	t.set("anchorset.merge_ns_per_anchor", median(mergeNS)*float64(len(sets))/float64(in), in)
	t.set("anchorset.keep_frac", float64(kept)/float64(in), in)

	// Hot-path codec on the captured messages.
	var reqSize, respSize, reqEnc, reqDec, respEnc, respDec []float64
	for _, gr := range r.requests {
		s, e, d := r.codec("wire.GroupSearch", gr.req)
		reqSize, reqEnc, reqDec = append(reqSize, float64(s)), append(reqEnc, e), append(reqDec, d)
		s, e, d = r.codec("wire.GroupSearchResult", gr.resp)
		respSize, respEnc, respDec = append(respSize, float64(s)), append(respEnc, e), append(respDec, d)
	}
	nr := len(r.requests)
	t.set("wire.groupsearch_bytes", mean(reqSize), nr)
	t.set("wire.groupsearch_enc_ns", median(reqEnc), nr)
	t.set("wire.groupsearch_dec_ns", median(reqDec), nr)
	t.set("wire.groupresult_bytes", mean(respSize), nr)
	t.set("wire.groupresult_enc_ns", median(respEnc), nr)
	t.set("wire.groupresult_dec_ns", median(respDec), nr)

	pingNS := r.each("transport.Ping", 1000, 100, func(int) {
		if _, err := r.client.Call(ctx, node0, wire.Ping{}); err != nil {
			t.gatef("ping: %v", err)
		}
	})
	t.set("transport.ping_rtt_us", median(pingNS)/1e3, len(pingNS))

	// Dynamic insertion last: it changes the tree the lookups above used.
	var fresh []vptree.Item
	for i := 0; len(fresh) < 2048; i++ {
		for _, b := range invindex.Blocks(sc.write(1000 + i).Seqs[0], blockCfg) {
			fresh = append(fresh, vptree.Item{Key: b.Content, Ref: invindex.PackRef(seq.ID(1<<20+i), b.Start)})
		}
	}
	insertNS := r.each("vptree.Insert", len(fresh), 256, func(i int) { tree.Insert(fresh[i]) })
	t.set("vptree.insert_us", median(insertNS)/1e3, len(insertNS))
}

// codec measures AppendHot and DecodeHot on one message: encoded size and
// the median nanoseconds of each direction.
func (r *replay) codec(name string, msg any) (size int, encNS, decNS float64) {
	var buf []byte
	ok := true
	enc := r.each(name+".AppendHot", 50, 5, func(int) { buf, ok = wire.AppendHot(buf[:0], msg) })
	if !ok {
		r.t.gatef("%s has no hot codec", name)
		return 0, 0, 0
	}
	dec := r.each(name+".DecodeHot", 50, 5, func(int) {
		if _, err := wire.DecodeHot(buf); err != nil {
			r.t.gatef("%s: decode: %v", name, err)
		}
	})
	return len(buf), median(enc), median(dec)
}
