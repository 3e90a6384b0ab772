// Package node implements a Mendel storage node: the local inverted-index
// block store, the memory-resident bit-sliced screen that indexes those
// blocks for search (where §V-A3 has a local vp-tree), the node's shard of
// the distributed sequence repository, and the query-side roles every node
// can play — local searcher and group entry point (§V-B). The architecture
// is symmetric: all nodes run identical code and differ only in the data the
// two-tier DHT routed to them.
package node

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sync"
	"time"

	"mendel/internal/dht"
	"mendel/internal/invindex"
	"mendel/internal/metric"
	"mendel/internal/obs"
	"mendel/internal/seq"
	"mendel/internal/sketch"
	"mendel/internal/transport"
	"mendel/internal/vphash"
	"mendel/internal/wire"
)

// Node is one storage node. Create with New, wire it to a transport, then
// drive it entirely through Handle.
type Node struct {
	addr   string
	caller transport.Caller

	mu sync.RWMutex
	// Cluster state, set by Bootstrap.
	booted   bool
	kind     seq.Kind
	met      metric.Metric
	blockLen int
	margin   int
	topo     *dht.Topology
	hashTree []byte // as bootstrapped: the node only validates and persists it
	group    int
	// Storage state.
	screen screen
	blocks blockStore
	seqs   map[seq.ID]storedSeq
	// staged holds blocks accepted with IndexBlocks.Stage, awaiting the
	// BuildIndex bulk build.
	staged []slot
	// sketch accumulates k-mer signatures over every accepted block's
	// content. Nil when the bootstrapping coordinator predates the sketch
	// tier (Bootstrap.SketchK == 0), in which case SketchFetch answers
	// empty and the coordinator never treats this node's group as
	// prefilterable.
	sketch *sketch.Sketch

	// Observability sinks; all may be nil (no-op). Set via Observe /
	// ObserveHistory before serving traffic.
	reg    *obs.Registry
	tracer *obs.Tracer
	series *obs.TimeSeries
}

type storedSeq struct {
	name string
	data []byte
}

// slot is a stored block on its way into the screen: its reference and the
// position of its content in the block store.
type slot struct {
	ref uint64
	pos uint32
}

// New creates an unbooted node. caller is used when the node acts as a
// group entry point and fans subqueries out to its peers.
func New(addr string, caller transport.Caller) *Node {
	return &Node{
		addr:   addr,
		caller: caller,
		seqs:   make(map[seq.ID]storedSeq),
	}
}

// Addr returns the node's transport address.
func (n *Node) Addr() string { return n.addr }

// Observe attaches the node's observability sinks: reg records screen
// distance counts, per-stage latencies and block-fetch metrics; tracer records
// a span tree per group-entry-point query. Either may be nil. Call before
// the node serves traffic.
func (n *Node) Observe(reg *obs.Registry, tracer *obs.Tracer) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.reg = reg
	n.tracer = tracer
}

// ObserveHistory attaches the node's windowed time-series sampler so
// wire.MetricsHistory pulls answer with real data. May be nil.
func (n *Node) ObserveHistory(ts *obs.TimeSeries) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.series = ts
}

// metrics answers wire.Metrics with a snapshot of the node's registry.
func (n *Node) metrics() wire.MetricsResult {
	n.mu.RLock()
	reg := n.reg
	n.mu.RUnlock()
	return wire.MetricsResult{Node: n.addr, Metrics: reg.Snapshot()}
}

// metricsHistory answers wire.MetricsHistory with the node's windowed
// series (empty when no sampler is attached — obs.TimeSeries is nil-safe).
func (n *Node) metricsHistory(r wire.MetricsHistory) wire.MetricsHistoryResult {
	n.mu.RLock()
	ts := n.series
	n.mu.RUnlock()
	h := ts.History(time.Duration(r.WindowNS))
	if h.Node == "" {
		h.Node = n.addr
	}
	return wire.MetricsHistoryResult{Node: n.addr, History: h}
}

// Handle implements transport.Handler, dispatching every wire message the
// node understands.
func (n *Node) Handle(ctx context.Context, req any) (any, error) {
	switch r := req.(type) {
	case wire.Ping:
		n.mu.RLock()
		booted := n.booted
		n.mu.RUnlock()
		return wire.Pong{Node: n.addr, Booted: booted}, nil
	case wire.Bootstrap:
		return n.bootstrap(r)
	case wire.UpdateTopology:
		return n.updateTopology(r)
	case wire.IndexBlocks:
		return n.indexBlocks(r)
	case wire.BuildIndex:
		return n.buildIndex()
	case wire.StoreSequences:
		return n.storeSequences(r)
	case wire.FetchRegion:
		return n.fetchRegion(ctx, r)
	case wire.LocalSearch:
		return n.localSearch(ctx, r)
	case wire.GroupSearch:
		return n.groupSearch(ctx, r)
	case wire.GroupSearchBatch:
		return n.groupSearchBatch(ctx, r)
	case wire.BlockManifest:
		return n.blockManifest()
	case wire.PushBlocks:
		return n.pushBlocks(ctx, r)
	case wire.PushSequences:
		return n.pushSequences(ctx, r)
	case wire.SketchFetch:
		return n.sketchFetch()
	case wire.Stats:
		return n.stats(), nil
	case wire.Metrics:
		return n.metrics(), nil
	case wire.MetricsHistory:
		return n.metricsHistory(r), nil
	case wire.TraceFetch:
		return n.traceFetch(r)
	default:
		return nil, fmt.Errorf("node %s: unknown request %T", n.addr, req)
	}
}

func (n *Node) bootstrap(b wire.Bootstrap) (any, error) {
	met, err := metric.ByName(b.Metric)
	if err != nil {
		return nil, err
	}
	if len(b.HashTree) > 0 {
		if err := new(vphash.Tree).UnmarshalBinary(b.HashTree); err != nil {
			return nil, err
		}
	}
	topo, err := dht.NewTopology(b.Groups, 0)
	if err != nil {
		return nil, err
	}
	group, ok := topo.GroupOf(n.addr)
	if !ok {
		return nil, fmt.Errorf("node %s: not a member of the bootstrapped topology", n.addr)
	}
	blocks, err := newBlockStore(b.Kind, b.BlockLen, b.Margin)
	if err != nil {
		return nil, fmt.Errorf("node %s: %w", n.addr, err)
	}

	n.mu.Lock()
	defer n.mu.Unlock()
	n.booted = true
	n.kind = b.Kind
	n.met = met
	n.blockLen = b.BlockLen
	n.margin = b.Margin
	n.topo = topo
	n.hashTree = b.HashTree
	n.group = group
	n.screen = newScreen(b.Kind, b.BlockLen, met)
	n.blocks = blocks
	n.seqs = make(map[seq.ID]storedSeq)
	n.staged = nil
	n.sketch = nil
	if b.SketchK > 0 {
		n.sketch = sketch.New(sketch.Params{
			K:         b.SketchK,
			BloomBits: b.SketchBloomBits,
			MinHashK:  b.SketchMinHashK,
			Kind:      b.Kind,
		})
	}
	return wire.BootstrapAck{}, nil
}

// updateTopology applies a membership change. The node's stored blocks and
// sequences are untouched: intra-group queries fan to every member, so data
// that no longer matches the ring placement is still found, and the ring
// only steers future placements.
func (n *Node) updateTopology(r wire.UpdateTopology) (any, error) {
	topo, err := dht.NewTopology(r.Groups, 0)
	if err != nil {
		return nil, err
	}
	group, ok := topo.GroupOf(n.addr)
	if !ok {
		return nil, fmt.Errorf("node %s: excluded from updated topology", n.addr)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.booted {
		return nil, fmt.Errorf("node %s: not bootstrapped", n.addr)
	}
	n.topo = topo
	n.group = group
	return wire.UpdateTopologyAck{}, nil
}

func (n *Node) indexBlocks(r wire.IndexBlocks) (any, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.booted {
		return nil, fmt.Errorf("node %s: not bootstrapped", n.addr)
	}
	slots, err := n.storeBlocks(r.Blocks, r.Runs)
	if err != nil {
		return nil, err
	}
	if r.Stage {
		// Deferred indexing: the blocks are stored and searchable state is
		// untouched until BuildIndex appends everything staged at once.
		n.staged = append(n.staged, slots...)
		return wire.IndexBlocksAck{Accepted: len(slots)}, nil
	}
	n.index(slots)
	n.blocks.seal()
	return wire.IndexBlocksAck{Accepted: len(slots)}, nil
}

// storeBlocks copies the blocks the node does not hold yet, the blocks and
// then the runs' keys, into its store and sketch and returns their slots. A
// batch with a malformed block or run is refused whole, before anything is
// stored.
func (n *Node) storeBlocks(blocks []wire.Block, runs []wire.Run) ([]slot, error) {
	keys := len(blocks)
	for i := range blocks {
		if err := n.blocks.check(&blocks[i]); err != nil {
			return nil, fmt.Errorf("node %s: %w", n.addr, err)
		}
	}
	for i := range runs {
		if err := n.blocks.checkRun(&runs[i]); err != nil {
			return nil, fmt.Errorf("node %s: %w", n.addr, err)
		}
		keys += len(runs[i].Keys)
	}
	if !n.blocks.room(keys) {
		return nil, fmt.Errorf("node %s: block store full at %d blocks", n.addr, n.blocks.len())
	}
	slots := make([]slot, 0, keys)
	for i := range blocks {
		if pos, ok := n.blocks.add(&blocks[i]); ok {
			slots = append(slots, slot{ref: invindex.PackRef(blocks[i].Seq, blocks[i].Start), pos: pos})
		}
	}
	for i := range runs {
		slots = n.blocks.addRun(&runs[i], slots)
	}
	if n.sketch != nil {
		for _, s := range slots {
			n.sketch.Add(content(n.blocks.chunks, s.pos, n.blockLen))
		}
	}
	return slots, nil
}

// index appends stored blocks to the screen.
func (n *Node) index(slots []slot) {
	n.screen.reserve(len(slots))
	for _, s := range slots {
		n.screen.add(content(n.blocks.chunks, s.pos, n.blockLen), s.ref)
	}
}

// buildIndex appends every staged block to the screen, sorted by packed
// block reference. A lookup's answer depends only on the set of keys, so
// this order is not needed for it; it keeps the screen's layout, too, a
// function of the blocks placed on this node, whatever order concurrent
// ingest senders delivered them in.
func (n *Node) buildIndex() (any, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.booted {
		return nil, fmt.Errorf("node %s: not bootstrapped", n.addr)
	}
	n.blocks.seal()
	staged := n.staged
	n.staged = nil
	if len(staged) == 0 {
		return wire.BuildIndexAck{}, nil
	}
	slices.SortFunc(staged, func(a, b slot) int { return cmp.Compare(a.ref, b.ref) })
	n.index(staged)
	return wire.BuildIndexAck{Items: len(staged)}, nil
}

func (n *Node) storeSequences(r wire.StoreSequences) (any, error) {
	if len(r.IDs) != len(r.Data) || len(r.IDs) != len(r.Names) {
		return nil, fmt.Errorf("node %s: malformed StoreSequences", n.addr)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	for i, id := range r.IDs {
		n.seqs[id] = storedSeq{name: r.Names[i], data: r.Data[i]}
	}
	return wire.StoreSequencesAck{}, nil
}

func (n *Node) fetchRegion(ctx context.Context, r wire.FetchRegion) (any, error) {
	began := time.Now()
	n.mu.RLock()
	defer n.mu.RUnlock()
	// Region fetches run during the coordinator's gapped-extension stage;
	// for sampled traces the span lands in this node's ring, from where
	// TraceFetch pulls it into the assembled tree (Region replies stay
	// lean — fetches are the query path's most frequent RPC).
	var sp *obs.Span
	if tc, ok := obs.TraceFromContext(ctx); ok && tc.Sampled {
		sp = n.tracer.StartTrace("fetch_region", tc)
		sp.SetNode(n.addr)
		sp.SetAttr("seq", int64(r.Seq))
		defer sp.End()
	}
	s, ok := n.seqs[r.Seq]
	if !ok {
		n.reg.Counter("node_fetch_region_misses").Inc()
		return nil, fmt.Errorf("node %s: sequence %d not stored here", n.addr, r.Seq)
	}
	start := min(max(r.Start, 0), len(s.data))
	end := min(max(r.End, start), len(s.data))
	data := make([]byte, end-start)
	copy(data, s.data[start:end])
	n.reg.Histogram("node_fetch_region_ns").Observe(time.Since(began).Nanoseconds())
	n.reg.Counter("node_fetch_region_bytes").Add(int64(len(data)))
	sp.SetAttr("bytes", int64(len(data)))
	return wire.Region{Seq: r.Seq, Start: start, Data: data, Len: len(s.data)}, nil
}

// sketchFetch answers wire.SketchFetch with the node's marshaled k-mer
// sketch. An empty payload means the node is not sketching (pre-sketch
// bootstrap); the coordinator then marks the group's merged sketch
// incomplete and never skips it.
func (n *Node) sketchFetch() (any, error) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	if !n.booted {
		return nil, fmt.Errorf("node %s: not bootstrapped", n.addr)
	}
	res := wire.SketchFetchResult{Node: n.addr}
	if n.sketch != nil {
		enc, err := n.sketch.MarshalBinary()
		if err != nil {
			return nil, fmt.Errorf("node %s: marshaling sketch: %w", n.addr, err)
		}
		res.Sketch = enc
	}
	return res, nil
}

// traceFetch answers wire.TraceFetch from the node's local tracer ring —
// the pull half of cross-node trace assembly.
func (n *Node) traceFetch(r wire.TraceFetch) (any, error) {
	n.mu.RLock()
	tracer := n.tracer
	n.mu.RUnlock()
	return wire.TraceFetchResult{Node: n.addr, Spans: tracer.Trace(r.TraceID)}, nil
}

func (n *Node) stats() wire.StatsResult {
	n.mu.RLock()
	defer n.mu.RUnlock()
	topoNodes := 0
	if n.topo != nil {
		topoNodes = n.topo.NumNodes()
	}
	return wire.StatsResult{
		Node:      n.addr,
		Blocks:    n.blocks.len(),
		Residues:  n.blocks.len() * n.blockLen,
		Sequences: len(n.seqs),
		TreeSize:  n.screen.len(),
		TopoNodes: topoNodes,
	}
}
