package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mendel/internal/align"
	"mendel/internal/anchorset"
	"mendel/internal/matrix"
	"mendel/internal/obs"
	"mendel/internal/seq"
	"mendel/internal/transport"
	"mendel/internal/vphash"
	"mendel/internal/wire"
)

// Hit is one reported alignment: the gapped local alignment in global
// subject coordinates plus its Karlin–Altschul statistics. For DNA queries
// searched with Params.BothStrands, Strand is '-' when the alignment is
// against the reverse complement of the query (query coordinates then refer
// to the reverse-complemented sequence); otherwise it is '+'.
type Hit struct {
	Seq       seq.ID
	Name      string
	Strand    byte
	Alignment align.Alignment
	Bits      float64
	E         float64
}

// ErrNotIndexed is returned by Search before any Index call has succeeded.
var ErrNotIndexed = errors.New("core: cluster has no indexed data")

// Trace records what one Search did at each stage of §V-B, for
// observability and for the turnaround breakdowns in the evaluation. The
// KNN/Ungapped/Aggregate durations are node-reported (summed across every
// storage node that served the query), so they can exceed the wall-clock
// FanOut time when nodes work in parallel.
type Trace struct {
	TraceID          string // 32-hex distributed trace ID; "" when unsampled
	QueryLen         int
	Strands          int
	SubQueries       int           // sliding windows produced
	GroupRequests    int           // group entry points contacted
	AnchorsReturned  int           // anchors received from all groups
	AnchorsMerged    int           // after system-entry-point merge
	GappedCandidates int           // anchors above the S threshold (capped)
	Hits             int           // alignments reported
	GroupsFailed     int           // groups whose every member was unreachable
	RegionsFailed    int           // anchors dropped: no repository shard answered
	GroupsSkipped    int           // groups dropped by the sketch prefilter
	PrefilterGuard   int           // windows dropped from every group (audited drops)
	Partial          bool          // results degraded by an outage above
	TreeVisits       int64         // node-local distance evaluations (keys past the identity screen), all nodes
	Decompose        time.Duration // stage 1
	Prefilter        time.Duration // stage 1b: sketch consultation (0 when off)
	FanOut           time.Duration // stage 2 (includes group-side work)
	CoalesceWait     time.Duration // of FanOut: longest hold for batch companions over the groups
	KNN              time.Duration // stage 2a: node-side n-NN lookups (CPU-summed)
	Ungapped         time.Duration // stage 2b: node-side filter + ungapped extension
	Aggregate        time.Duration // stage 3: group + system entry point merges
	Extend           time.Duration // stage 4
	Total            time.Duration
}

// String renders a compact single-line summary.
func (t *Trace) String() string {
	s := fmt.Sprintf("query=%daa windows=%d groups=%d skipped=%d anchors=%d merged=%d gapped=%d hits=%d total=%v (fanout=%v coalesce_wait=%v knn=%v ungapped=%v aggregate=%v extend=%v visits=%d)",
		t.QueryLen, t.SubQueries, t.GroupRequests, t.GroupsSkipped, t.AnchorsReturned,
		t.AnchorsMerged, t.GappedCandidates, t.Hits, t.Total,
		t.FanOut, t.CoalesceWait, t.KNN, t.Ungapped, t.Aggregate, t.Extend, t.TreeVisits)
	if t.Partial {
		s += fmt.Sprintf(" PARTIAL(groups-failed=%d regions-failed=%d)", t.GroupsFailed, t.RegionsFailed)
	}
	if t.TraceID != "" {
		s += " trace=" + t.TraceID
	}
	return s
}

// Search evaluates an alignment query against the indexed database (§V-B).
// The query is decomposed into block-length subqueries stepped by k, each
// subquery is hashed to its group(s) and fanned out, anchors come back
// through the group entry points, and the system entry point (this call)
// merges them, performs banded gapped extension around the surviving
// anchors, and returns hits ranked by expectation value.
func (c *Cluster) Search(ctx context.Context, query []byte, p wire.Params) ([]Hit, error) {
	hits, _, err := c.SearchTrace(ctx, query, p)
	return hits, err
}

// SearchTrace is Search with a per-stage execution trace.
func (c *Cluster) SearchTrace(ctx context.Context, query []byte, p wire.Params) ([]Hit, *Trace, error) {
	hits, trace, err := c.searchTraced(ctx, query, p)
	if err != nil {
		return nil, nil, err
	}
	return hits, trace, nil
}

func (c *Cluster) searchTraced(ctx context.Context, query []byte, p wire.Params) ([]Hit, *Trace, error) {
	startTotal := time.Now()
	// Head-based sampling: with a tracer attached, either mint a fresh
	// trace identity (sampled — every span of this query, on every node,
	// is recorded under it) or propagate the unsampled sentinel so nodes
	// record nothing either. Without a tracer, the context stays bare and
	// nodes keep their pre-tracing local behaviour.
	var root *obs.Span
	var tc obs.TraceContext
	if c.tracer != nil {
		if c.sampler.Sample() {
			tc = obs.NewTraceContext()
			root = c.tracer.StartTrace("search", tc)
		} else {
			tc = obs.UnsampledContext()
		}
		ctx = obs.ContextWithTrace(ctx, tc)
	}
	defer root.End()
	if err := p.Validate(); err != nil {
		c.reg.Counter("search_rejected").Inc()
		return nil, nil, err
	}
	m, ok := matrix.ByName(p.Matrix)
	if !ok {
		return nil, nil, fmt.Errorf("core: unknown scoring matrix %q", p.Matrix)
	}
	q := append([]byte(nil), query...)
	if err := seq.AlphabetFor(c.cfg.Kind).Normalize(q); err != nil {
		return nil, nil, err
	}
	if p.Mask {
		q = seq.MaskLowComplexity(q, c.cfg.Kind, 0, 0)
	}
	if len(q) < c.cfg.BlockLen {
		return nil, nil, fmt.Errorf("core: query of %d residues is shorter than the %d-residue index window", len(q), c.cfg.BlockLen)
	}
	c.mu.RLock()
	tree := c.hashTree
	total := c.totalResidues
	c.mu.RUnlock()
	if tree == nil {
		return nil, nil, ErrNotIndexed
	}

	trace := &Trace{QueryLen: len(q), Strands: 1}
	if root != nil {
		trace.TraceID = root.TraceID()
	}
	hits, err := c.searchStrand(ctx, q, p, m, total, tree, '+', trace, root)
	if err != nil {
		c.reg.Counter("search_errors").Inc()
		return nil, nil, err
	}
	if p.BothStrands && c.cfg.Kind == seq.DNA {
		trace.Strands = 2
		rc := reverseComplement(q)
		minus, err := c.searchStrand(ctx, rc, p, m, total, tree, '-', trace, root)
		if err != nil {
			c.reg.Counter("search_errors").Inc()
			return nil, nil, err
		}
		hits = append(hits, minus...)
	}

	// Stage 5: dedup, filter, rank.
	hits = dedupHits(hits)
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].E != hits[j].E {
			return hits[i].E < hits[j].E
		}
		if hits[i].Alignment.Score != hits[j].Alignment.Score {
			return hits[i].Alignment.Score > hits[j].Alignment.Score
		}
		return hits[i].Seq < hits[j].Seq
	})
	trace.Hits = len(hits)
	trace.Total = time.Since(startTotal)
	root.SetAttr("query_len", int64(trace.QueryLen))
	root.SetAttr("strands", int64(trace.Strands))
	root.SetAttr("hits", int64(trace.Hits))
	if trace.Partial {
		root.SetAttr("partial", 1)
		c.reg.Counter("search_partial").Inc()
	}
	c.reg.Counter("search_total").Inc()
	c.reg.Counter("search_hits").Add(int64(trace.Hits))
	// Sampled queries label the latency observation with their trace ID, so
	// the slowest traced query's exemplar in /metrics links straight to its
	// assembled tree at /debug/trace/{id}.
	c.reg.Histogram("search_ns").ObserveExemplar(trace.Total.Nanoseconds(), trace.TraceID)
	c.reg.Histogram("search_fanout_ns").Observe(trace.FanOut.Nanoseconds())
	c.reg.Histogram("search_gapped_ns").Observe(trace.Extend.Nanoseconds())
	return hits, trace, nil
}

// searchStrand runs stages 1-4 of the pipeline for one query orientation,
// accumulating counters and timings into trace and recording one child span
// per pipeline stage under root. The k-NN and ungapped-extension stages
// execute node-side; their spans are synthesized from the nanosecond
// breakdowns the storage nodes ship back in GroupSearchResult, so the span
// tree still covers all five stages of §V-B from the coordinator alone.
func (c *Cluster) searchStrand(ctx context.Context, q []byte, p wire.Params, m *matrix.Matrix, total int, tree *vphash.Tree, strand byte, trace *Trace, root *obs.Span) ([]Hit, error) {
	// Stage 1: subquery decomposition and group routing.
	start := time.Now()
	spDecompose := root.Child("decompose")
	eps := c.queryEps()
	groupOffsets := make(map[int][]int)
	alphabet := seq.AlphabetFor(c.cfg.Kind)
	seq.WindowsCovering(q, c.cfg.BlockLen, p.Step, func(start int, window []byte) {
		// Windows dominated by ambiguity codes (from masking or from the
		// input itself) cannot seed meaningful matches; skip them rather
		// than fanning them out.
		ambiguous := 0
		for _, ch := range window {
			if alphabet.Ambiguous(ch) {
				ambiguous++
			}
		}
		if 2*ambiguous > len(window) {
			return
		}
		trace.SubQueries++
		for _, g := range tree.GroupsFor(window, eps) {
			groupOffsets[g] = append(groupOffsets[g], start)
		}
	})
	trace.Decompose += time.Since(start)
	spDecompose.SetAttr("windows", int64(trace.SubQueries))
	spDecompose.SetAttr("groups", int64(len(groupOffsets)))
	spDecompose.End()

	// Stage 1b: sketch prefilter. Groups whose merged Bloom signature
	// proves they cannot anchor this query leave the fan-out before any RPC
	// is issued; the escape hatch is SetPrefilterMode(PrefilterOff).
	if c.prefilter != PrefilterOff && len(groupOffsets) > 0 {
		start = time.Now()
		spPre := root.Child("prefilter")
		before := len(groupOffsets)
		skipped, guarded := c.prefilterGroups(q, groupOffsets)
		trace.GroupsSkipped += skipped
		trace.PrefilterGuard += guarded
		trace.Prefilter += time.Since(start)
		spPre.SetAttr("mode", int64(c.prefilter))
		spPre.SetAttr("groups_in", int64(before))
		spPre.SetAttr("skipped", int64(skipped))
		spPre.SetAttr("guard", int64(guarded))
		spPre.End()
		c.reg.Counter("prefilter_groups_skipped").Add(int64(skipped))
		c.reg.Counter("prefilter_false_drop_guard").Add(int64(guarded))
	}
	trace.GroupRequests += len(groupOffsets)

	// Stage 2: parallel fan-out to group entry points.
	start = time.Now()
	spFanOut := root.Child("fanout")
	anchors, gt, failedGroups, err := c.fanOut(ctx, q, groupOffsets, p, spFanOut)
	if err != nil {
		spFanOut.End()
		return nil, err
	}
	if len(failedGroups) > 0 {
		trace.GroupsFailed += len(failedGroups)
		trace.Partial = true
		// Read-repair: a partial answer is the system telling us a replica
		// set is degraded — schedule a scoped repair of the failed groups
		// rather than waiting for an operator to notice.
		c.noteFailedGroups(failedGroups)
	}
	trace.FanOut += time.Since(start)
	trace.CoalesceWait += gt.coalesceWait
	trace.AnchorsReturned += len(anchors)
	trace.KNN += time.Duration(gt.knnNs)
	trace.Ungapped += time.Duration(gt.extendNs)
	trace.TreeVisits += gt.visits
	spFanOut.SetAttr("groups", int64(len(groupOffsets)))
	spFanOut.SetAttr("groups_failed", int64(len(failedGroups)))
	spFanOut.SetAttr("anchors", int64(len(anchors)))
	// Stages 2a/2b ran inside the fan-out on the storage nodes; attach them
	// as completed children carrying the CPU time summed across all nodes.
	spFanOut.AddTimed("knn", time.Duration(gt.knnNs),
		obs.Attr{Key: "visits", Value: gt.visits})
	spFanOut.AddTimed("ungapped", time.Duration(gt.extendNs))
	spFanOut.End()

	// Stage 3: system entry point aggregation (the group entry points'
	// merge time, shipped back as mergeNs, counts toward this stage too).
	start = time.Now()
	merged := anchorset.Merge(anchors)
	aggregate := time.Since(start) + time.Duration(gt.mergeNs)
	trace.Aggregate += aggregate
	trace.AnchorsMerged += len(merged)
	root.AddTimed("aggregate", aggregate,
		obs.Attr{Key: "in", Value: int64(len(anchors))},
		obs.Attr{Key: "out", Value: int64(len(merged))})

	// Stage 4: gapped extension of anchors above the S threshold. Nodes
	// ship only anchors that reach S, so every merged anchor does; of those
	// on one diagonal of one sequence, which extend to the same alignment,
	// the best goes forward.
	start = time.Now()
	spGapped := root.Child("gapped")
	defer spGapped.End()
	candidates := anchorset.Best(anchorset.PerDiagonal(merged), c.cfg.MaxGapped)
	trace.GappedCandidates += len(candidates)
	gkp, err := align.GappedParamsForMatrix(m)
	if err != nil {
		return nil, err
	}
	// Region fetches issued below belong under the gapped span: nodes
	// record fetch_region spans with it as their remote parent, recovered
	// at assembly time via wire.TraceFetch.
	gctx := ctx
	if pc := spGapped.Context(); pc.Valid() {
		gctx = obs.ContextWithTrace(ctx, pc)
	}
	hits, regionsFailed, err := c.gappedExtend(gctx, q, candidates, p, m, gkp, total)
	if err != nil {
		return nil, err
	}
	if regionsFailed > 0 {
		trace.RegionsFailed += regionsFailed
		trace.Partial = true
	}
	trace.Extend += time.Since(start)
	spGapped.SetAttr("candidates", int64(len(candidates)))
	spGapped.SetAttr("hits", int64(len(hits)))
	spGapped.SetAttr("regions_failed", int64(regionsFailed))
	for i := range hits {
		hits[i].Strand = strand
	}
	return hits, nil
}

// reverseComplement returns the reverse complement of a normalized DNA
// sequence.
func reverseComplement(q []byte) []byte {
	a := seq.DNAAlphabet
	out := make([]byte, len(q))
	for i, ch := range q {
		out[len(q)-1-i] = a.Complement(ch)
	}
	return out
}

// groupTiming sums the node-side work breakdowns the group entry points
// ship back in GroupSearchResult: nanoseconds of k-NN lookup time, of
// filter + ungapped extension time, distance evaluations performed, and the
// group-level merge time. All are CPU-summed across nodes, not wall-clock —
// except coalesceWait, the coordinator-side time a group subquery was held
// by the batcher, of which a query keeps the longest (its groups wait in
// parallel).
type groupTiming struct {
	knnNs        int64
	extendNs     int64
	visits       int64
	mergeNs      int64
	coalesceWait time.Duration
}

// fanOut sends each group's subqueries to a group entry point through the
// batcher, which retries with the next member if the chosen entry point is
// unreachable (the symmetric architecture makes any member a valid
// coordinator).
//
// When every member of a group is unreachable the behaviour depends on
// Config.AllowPartial: with it set (the default) the dead group is dropped
// and reported through the failed count so the surviving groups still
// answer; without it — or when no group answers at all — the query fails
// with the first error.
func (c *Cluster) fanOut(ctx context.Context, q []byte, groupOffsets map[int][]int, p wire.Params, sp *obs.Span) (anchors []wire.Anchor, gt groupTiming, failedGroups []int, err error) {
	type result struct {
		group   int
		anchors []wire.Anchor
		timing  groupTiming
		err     error
	}
	ch := make(chan result, len(groupOffsets))
	for g, offsets := range groupOffsets {
		go func(g int, offsets []int) {
			msg := wire.GroupSearch{
				Group:     g,
				Query:     q,
				Offsets:   offsets,
				WindowLen: c.cfg.BlockLen,
				Params:    p,
			}
			// One coordinator-side span per group RPC. For sampled traces
			// the entry point's group_search subtree (shipped back in the
			// reply) grafts under it, and the propagated context carries
			// this span's ID so the subtree links here during assembly.
			spG := sp.Child("group")
			spG.SetAttr("group", int64(g))
			spG.SetAttr("offsets", int64(len(offsets)))
			callCtx := ctx
			sampled := false
			if pc := spG.Context(); pc.Valid() {
				callCtx = obs.ContextWithTrace(ctx, pc)
				sampled = true
				// Bytes on the wire matter for explain; re-encoding the
				// request costs a sampled query one extra pass through the
				// binary codec, using a pooled scratch frame.
				spG.SetAttr("bytes_out", wireSize(msg))
			}
			gsr, wait, callErr := c.batcher.do(callCtx, msg, spG)
			if callErr != nil {
				spG.SetAttr("failed", 1)
				spG.End()
				ch <- result{group: g, err: fmt.Errorf("core: group %d unreachable: %w", g, callErr)}
				return
			}
			spG.SetAttr("anchors", int64(len(gsr.Anchors)))
			for _, s := range gsr.Spans {
				spG.AttachSnapshot(s)
			}
			if sampled {
				spG.SetAttr("bytes_in", wireSize(gsr))
			}
			spG.End()
			ch <- result{group: g, anchors: gsr.Anchors, timing: groupTiming{
				knnNs:        gsr.KNNNs,
				extendNs:     gsr.ExtendNs,
				visits:       gsr.Visits,
				mergeNs:      gsr.MergeNs,
				coalesceWait: wait,
			}}
		}(g, offsets)
	}
	var firstErr error
	for range groupOffsets {
		r := <-ch
		if r.err != nil {
			failedGroups = append(failedGroups, r.group)
			if firstErr == nil {
				firstErr = r.err
			}
			continue
		}
		anchors = append(anchors, r.anchors...)
		gt.knnNs += r.timing.knnNs
		gt.extendNs += r.timing.extendNs
		gt.visits += r.timing.visits
		gt.mergeNs += r.timing.mergeNs
		gt.coalesceWait = max(gt.coalesceWait, r.timing.coalesceWait)
	}
	if firstErr != nil {
		if !c.cfg.AllowPartial || len(failedGroups) == len(groupOffsets) {
			return nil, gt, failedGroups, firstErr
		}
	}
	return anchors, gt, failedGroups, nil
}

// gappedExtend runs banded gapped extension (within p.Band diagonals of
// each anchor, §V-B / Gapped BLAST) against subject regions fetched from
// the distributed sequence repository. regionsFailed counts anchors dropped
// because no repository shard holding their sequence answered — the
// degraded-mode signal surfaced as Trace.RegionsFailed.
func (c *Cluster) gappedExtend(ctx context.Context, q []byte, anchors []wire.Anchor, p wire.Params, m *matrix.Matrix, kp align.KarlinParams, dbLen int) (hits []Hit, regionsFailed int, err error) {
	workers := 8
	if len(anchors) < workers {
		workers = len(anchors)
	}
	if workers == 0 {
		return nil, 0, nil
	}
	var (
		mu     sync.Mutex
		failed atomic.Int64
		wg     sync.WaitGroup
	)
	work := make(chan wire.Anchor)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for a := range work {
				hit, ok, fetchFailed := c.extendOne(ctx, q, a, p, m, kp, dbLen)
				if fetchFailed {
					failed.Add(1)
				}
				if ok {
					mu.Lock()
					hits = append(hits, hit)
					mu.Unlock()
				}
			}
		}()
	}
	for _, a := range anchors {
		work <- a
	}
	close(work)
	wg.Wait()
	return hits, int(failed.Load()), nil
}

func (c *Cluster) extendOne(ctx context.Context, q []byte, a wire.Anchor, p wire.Params, m *matrix.Matrix, kp align.KarlinParams, dbLen int) (Hit, bool, bool) {
	padLeft := a.QStart + p.Band + 16
	padRight := (len(q) - a.QEnd) + p.Band + 16
	region, regionStart, ok, fetchFailed := c.fetchRegion(ctx, a.Seq, a.SStart-padLeft, a.SEnd+padRight)
	if !ok || len(region) == 0 {
		return Hit{}, false, fetchFailed
	}
	centerDiag := (a.SStart - regionStart) - a.QStart
	al := align.BandedSmithWaterman(q, region, centerDiag-p.Band, centerDiag+p.Band, m)
	if al.Empty() {
		return Hit{}, false, false
	}
	al.SStart += regionStart
	al.SEnd += regionStart
	e := kp.EValue(al.Score, len(q), dbLen)
	if e > p.MaxE {
		return Hit{}, false, false
	}
	return Hit{
		Seq:       a.Seq,
		Name:      c.NameOf(a.Seq),
		Alignment: al,
		Bits:      kp.BitScore(al.Score),
		E:         e,
	}, true, false
}

// fetchRegion reads subject residues from the repository shard owning the
// sequence, falling back to the next ring successors if a shard is
// unreachable or does not hold the sequence (the latter happens transiently
// after a node joins and takes over a ring range without a data migration).
// If every candidate fails the anchor is dropped rather than failing the
// whole query; failed reports whether that drop was caused by node failures
// (as opposed to the sequence genuinely being absent), so the coordinator
// can mark the result set partial. A cancelled context aborts the successor
// probing immediately.
func (c *Cluster) fetchRegion(ctx context.Context, id seq.ID, start, end int) (data []byte, regionStart int, ok, failed bool) {
	c.mu.RLock()
	candidates := c.seqRing.LookupN(seqKey(id), c.cfg.replicas()+2)
	c.mu.RUnlock()
	sawFailure := false
	for _, node := range candidates {
		if ctx.Err() != nil {
			return nil, 0, false, true
		}
		resp, err := c.caller.Call(ctx, node, wire.FetchRegion{Seq: id, Start: start, End: end})
		if err != nil {
			// A RemoteError ("sequence not stored here") is a ring
			// remapping artifact, not an outage; anything else is.
			var re *transport.RemoteError
			if !errors.As(err, &re) {
				sawFailure = true
			}
			continue
		}
		region, isRegion := resp.(wire.Region)
		if !isRegion {
			sawFailure = true
			continue
		}
		return region.Data, region.Start, true, false
	}
	return nil, 0, false, sawFailure
}

// dedupHits removes exact duplicates and hits fully contained in a
// higher-scoring hit on the same sequence.
func dedupHits(hits []Hit) []Hit {
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].Alignment.Score != hits[j].Alignment.Score {
			return hits[i].Alignment.Score > hits[j].Alignment.Score
		}
		if hits[i].Seq != hits[j].Seq {
			return hits[i].Seq < hits[j].Seq
		}
		return hits[i].Alignment.SStart < hits[j].Alignment.SStart
	})
	var out []Hit
	for _, h := range hits {
		contained := false
		for _, kept := range out {
			if kept.Seq != h.Seq || kept.Strand != h.Strand {
				continue
			}
			if h.Alignment.SStart >= kept.Alignment.SStart && h.Alignment.SEnd <= kept.Alignment.SEnd &&
				h.Alignment.QStart >= kept.Alignment.QStart && h.Alignment.QEnd <= kept.Alignment.QEnd {
				contained = true
				break
			}
		}
		if !contained {
			out = append(out, h)
		}
	}
	return out
}

// wireSize measures a message's on-the-wire size for span attributes with
// the encoding the TCP transport sends (wire.AppendMessage). Scratch comes
// from the codec's frame pool so a sampled query does not allocate for the
// measurement.
func wireSize(msg any) int64 {
	fp := wire.GetFrame()
	defer wire.PutFrame(fp)
	b, err := wire.AppendMessage(*fp, msg)
	*fp = b
	if err != nil {
		return 0
	}
	return int64(len(b))
}
