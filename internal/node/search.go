package node

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"mendel/internal/align"
	"mendel/internal/anchorset"
	"mendel/internal/matrix"
	"mendel/internal/obs"
	"mendel/internal/wire"
)

// xDrop is the score drop-off that terminates ungapped anchor extension,
// mirroring BLAST's ungapped X parameter.
const xDrop = 20

// localSearch executes the per-node half of §V-B: for each subquery window,
// an n-NN lookup produces candidates; candidates are filtered by percent
// identity and consecutivity score; survivors become anchors extended in
// both directions within the block's stored context. The lookup is the
// screen's (screen.nearest): it tests the identity filter on every key the
// node holds and returns the n nearest keys that pass it, exactly. Lookup
// and c-score read only the screen's bit-planes; a candidate's block is read
// from the store only once it passes its c-score, for extension. An
// extended anchor ships only if its bit score reaches the search's S, the
// threshold the coordinator gates gapped extension by: merging keeps a
// union's highest constituent score, so a merged anchor passes S exactly
// when one of its constituents does, and the rest would cross the wire and
// two merges for nothing.
func (n *Node) localSearch(ctx context.Context, r wire.LocalSearch) (any, error) {
	start := time.Now()
	n.mu.RLock()
	defer n.mu.RUnlock()
	// For sampled traces the node records its own local_search span under
	// the caller's trace and ships it back in the result, so the
	// coordinator's assembled tree shows per-node k-NN/extend breakdowns
	// without a second round trip.
	var sp *obs.Span
	if tc, ok := obs.TraceFromContext(ctx); ok && tc.Sampled {
		sp = n.tracer.StartTrace("local_search", tc)
		sp.SetNode(n.addr)
	}
	defer sp.End() // idempotent; finalizes the span on every error path
	if !n.booted {
		return nil, fmt.Errorf("node %s: not bootstrapped", n.addr)
	}
	if err := r.Params.Validate(); err != nil {
		return nil, err
	}
	m, ok := matrix.ByName(r.Params.Matrix)
	if !ok {
		return nil, fmt.Errorf("node %s: unknown scoring matrix %q", n.addr, r.Params.Matrix)
	}
	kp, err := align.ParamsForMatrix(m)
	if err != nil {
		return nil, fmt.Errorf("node %s: %w", n.addr, err)
	}
	minBits := float64(r.Params.GappedS)
	if r.WindowLen != n.blockLen {
		return nil, fmt.Errorf("node %s: window length %d, index uses %d", n.addr, r.WindowLen, n.blockLen)
	}
	for _, off := range r.Offsets {
		if off < 0 || off+r.WindowLen > len(r.Query) {
			return nil, fmt.Errorf("node %s: window [%d:%d] outside query of length %d",
				n.addr, off, off+r.WindowLen, len(r.Query))
		}
	}
	// Subquery windows are independent; shard them over a few workers.
	// The node's read lock is held for the whole request, so workers may
	// touch the screen and block store freely.
	workers := localSearchWorkers(len(r.Offsets))
	minMatch := minMatches(r.Params.Identity, r.WindowLen)
	type workerStats struct {
		anchors  []wire.Anchor
		knnNs    int64
		extendNs int64
		visits   int64
	}
	perWorker := make([]workerStats, workers)
	knnVisits, knnNs := n.reg.Histogram("node_knn_visits"), n.reg.Histogram("node_knn_ns")
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			var ws workerStats
			// Per-worker lookup state (window masks, c-score table, decoded
			// codes, result heap): a lookup then allocates nothing.
			var knnState screenSearch
			for i := w; i < len(r.Offsets); i += workers {
				off := r.Offsets[i]
				window := r.Query[off : off+r.WindowLen]
				t0 := time.Now()
				cands, visits := n.screen.nearest(&knnState, window, r.Params.Neighbors, minMatch)
				knn := time.Since(t0).Nanoseconds()
				ws.knnNs += knn
				ws.visits += int64(visits)
				knnVisits.Observe(int64(visits))
				knnNs.Observe(knn)
				t0 = time.Now()
				if len(cands) > 0 {
					n.screen.matchCodes(&knnState, window, m)
				}
				for _, cand := range cands {
					if n.screen.cScore(&knnState, cand.key) < r.Params.CScore {
						continue
					}
					block, ok := n.blocks.get(cand.ref)
					if !ok {
						continue // cannot happen; defensive against store drift
					}
					if a := extendAnchor(r.Query, off, r.WindowLen, block, m); kp.BitScore(a.Score) >= minBits {
						ws.anchors = append(ws.anchors, a)
					}
				}
				ws.extendNs += time.Since(t0).Nanoseconds()
			}
			perWorker[w] = ws
		}(w)
	}
	wg.Wait()
	var anchors []wire.Anchor
	res := wire.LocalSearchResult{}
	for _, ws := range perWorker {
		anchors = append(anchors, ws.anchors...)
		res.KNNNs += ws.knnNs
		res.ExtendNs += ws.extendNs
		res.Visits += ws.visits
	}
	n.reg.Counter("node_local_searches").Inc()
	n.reg.Histogram("node_local_search_ns").Observe(time.Since(start).Nanoseconds())
	// Adjacent subqueries routinely rediscover the same region; merge
	// locally so the group entry point aggregates less data.
	res.Anchors = anchorset.Merge(anchors)
	if sp != nil {
		sp.SetAttr("offsets", int64(len(r.Offsets)))
		sp.SetAttr("anchors", int64(len(res.Anchors)))
		sp.AddTimed("knn", time.Duration(res.KNNNs), obs.Attr{Key: "visits", Value: res.Visits})
		sp.AddTimed("ungapped", time.Duration(res.ExtendNs))
		sp.End()
		res.Spans = []obs.SpanSnapshot{sp.Snapshot()}
	}
	return res, nil
}

// minMatches turns the percent-identity threshold into the count the
// screen takes: the smallest number of exactly matching positions m of a
// w-residue window for which float64(m)/float64(w) >= identity, w+1 (no key
// is eligible) when even a full match falls short.
func minMatches(identity float64, w int) int {
	m := 0
	for m <= w && float64(m)/float64(w) < identity {
		m++
	}
	return m
}

// localSearchWorkers sizes the subquery worker pool: half the cores (the
// other half serve concurrent requests), floored at one so single-core
// machines — CI runners in particular — still make progress, and capped at
// the number of windows so no worker spins up idle.
func localSearchWorkers(nOffsets int) int {
	workers := runtime.GOMAXPROCS(0) / 2
	if workers < 1 {
		workers = 1
	}
	if workers > nOffsets {
		workers = nOffsets
	}
	return workers
}

// extendAnchor grows a seed match in both directions: on the subject side
// within the block's stored context margins (standing in for the paper's
// walk over neighbouring block references), and on the query side over the
// full query, stopping via X-drop when the score deteriorates.
func extendAnchor(query []byte, qOff, w int, block wire.Block, m *matrix.Matrix) wire.Anchor {
	seg := align.ExtendUngapped(query, block.Context, qOff, block.CtxOff, w, m, xDrop)
	ctxStart := block.Start - block.CtxOff // context offset -> global subject offset
	return wire.Anchor{
		Seq:    block.Seq,
		QStart: seg.QStart,
		QEnd:   seg.QEnd,
		SStart: ctxStart + seg.SStart,
		SEnd:   ctxStart + seg.SEnd,
		Score:  seg.Score,
	}
}

// blockByRef is a test hook.
func (n *Node) blockByRef(ref uint64) (wire.Block, bool) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.blocks.get(ref)
}
