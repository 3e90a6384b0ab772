package core

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"mendel/internal/dht"
	"mendel/internal/metric"
	"mendel/internal/obs"
	"mendel/internal/seq"
	"mendel/internal/sketch"
	"mendel/internal/transport"
	"mendel/internal/vphash"
	"mendel/internal/wire"
)

// Cluster is a coordinator's view of a Mendel deployment: the shared
// topology and vp-prefix hash tree plus a transport to reach the storage
// nodes. It is safe for concurrent Search calls; Index calls must be
// serialized by the caller.
type Cluster struct {
	cfg    Config
	caller transport.Caller
	groups [][]string
	topo   *dht.Topology
	met    metric.Metric

	// Observability sinks; both may be nil (no-op). Set via SetObservability
	// before serving queries.
	reg    *obs.Registry
	tracer *obs.Tracer
	// sampler makes the head-based trace sampling decision once per query;
	// built from Config.TraceSampleRate, replaceable via SetTraceSampleRate.
	sampler *obs.Sampler
	// batcher carries every group subquery to its entry point, coalescing
	// concurrent queries' subqueries into batch RPCs under load.
	batcher *fanoutBatcher
	// prefilter selects the sketch-based group prefilter consulted before
	// fan-out. Set via SetPrefilterMode before serving queries; read
	// without synchronization by concurrent Searches.
	prefilter PrefilterMode

	mu            sync.RWMutex
	hashTree      *vphash.Tree
	seqRing       *dht.Ring // sequence-repository placement over all nodes
	names         map[seq.ID]string
	lengths       map[seq.ID]int
	totalResidues int
	nextID        seq.ID
	// groupBlocks counts the distinct blocks Index placed in each group,
	// for repair to tell lost blocks from ones never placed. Nil once the
	// count is unknown: an Index failed while shipping, or the cluster was
	// restored from a manifest that did not keep it.
	groupBlocks map[int]int

	// rng picks group entry points. It has its own lock so that the pick
	// every group RPC makes never stalls the readers of mu.
	rngMu sync.Mutex
	rng   *rand.Rand

	// groupSketches and sketchComplete are the coordinator's prefilter
	// view: the per-group merges of the node k-mer sketches pulled by
	// refreshSketches or grown by foldSketches. A group may be skipped
	// only while its sketch is complete (every member contributed).
	// sketchGen counts installs, folds and invalidations; sketchTopo is
	// the last pull's topology, nil while the view may not match nodes.
	groupSketches  map[int]*sketch.Sketch
	sketchComplete map[int]bool
	sketchGen      uint64
	sketchTopo     *dht.Topology
	// seqSketches holds each indexed sequence's bottom-k MinHash values —
	// the database side of the alignment-free Similarity mode, persisted in
	// the manifest.
	seqSketches map[seq.ID][]uint64

	// hints is the hinted-handoff queue: writes that could not reach their
	// replica during ingest, parked for replay when the node recovers.
	hints *hintStore
	// repairPending collects group IDs that a partial query flagged for
	// read-repair; the health monitor drains it with scoped repairs.
	repairMu      sync.Mutex
	repairPending map[int]bool
}

// NewCluster creates a coordinator for the given group layout. No node is
// contacted until Index runs.
func NewCluster(cfg Config, caller transport.Caller, groups [][]string) (*Cluster, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(groups) != cfg.Groups {
		return nil, fmt.Errorf("core: %d group lists for %d configured groups", len(groups), cfg.Groups)
	}
	topo, err := dht.NewTopology(groups, 0)
	if err != nil {
		return nil, err
	}
	seqRing := dht.NewRing(0, topo.AllNodes()...)
	c := &Cluster{
		cfg:           cfg,
		caller:        caller,
		groups:        groups,
		topo:          topo,
		met:           metric.ForKind(cfg.Kind),
		sampler:       obs.NewSampler(cfg.traceSampleRate()),
		seqRing:       seqRing,
		names:         make(map[seq.ID]string),
		lengths:       make(map[seq.ID]int),
		groupBlocks:   make(map[int]int),
		seqSketches:   make(map[seq.ID][]uint64),
		rng:           rand.New(rand.NewSource(cfg.Seed)),
		hints:         newHintStore(),
		repairPending: make(map[int]bool),
	}
	c.batcher = newFanoutBatcher(c)
	return c, nil
}

// Config returns the cluster configuration.
func (c *Cluster) Config() Config { return c.cfg }

// SetObservability attaches the coordinator's observability sinks: reg
// accumulates query counters and stage-latency histograms, tracer records a
// span tree per query covering the paper's five pipeline stages. Either may
// be nil (that sink stays off). Call before serving queries; the fields are
// read without synchronization by concurrent Searches.
func (c *Cluster) SetObservability(reg *obs.Registry, tracer *obs.Tracer) {
	c.reg = reg
	c.tracer = tracer
	reg.SetGaugeFunc("hints_pending", c.hints.pending)
	// Forward the registry to the transport when it supports observation
	// (the TCP client, possibly behind a ResilientCaller), so rpc_bytes and
	// rpc_dials counters reach /metrics from serving processes too.
	if reg != nil {
		if o, ok := c.caller.(interface{ Observe(*obs.Registry) }); ok {
			o.Observe(reg)
		}
	}
}

// Registry returns the coordinator's metrics registry (nil if unset).
func (c *Cluster) Registry() *obs.Registry { return c.reg }

// Tracer returns the coordinator's query tracer (nil if unset).
func (c *Cluster) Tracer() *obs.Tracer { return c.tracer }

// SetTraceSampleRate replaces the head-based trace sampling rate installed
// from Config.TraceSampleRate (same semantics: >= 1 traces everything,
// negative disables). Like SetObservability, call before serving queries;
// `mendel explain` uses it to force full sampling for its one diagnostic
// query.
func (c *Cluster) SetTraceSampleRate(rate float64) {
	c.sampler = obs.NewSampler(rate)
}

// FetchTrace assembles the full cross-node span tree of a trace: the
// coordinator's own retained roots (which carry the node subtrees shipped
// back inline in GroupSearchResult), plus every root pulled from the
// storage nodes via wire.TraceFetch — the only way to recover spans that
// are not shipped inline, such as fetch_region spans recorded during
// gapped extension. Unreachable nodes and nodes predating TraceFetch are
// skipped: assembly degrades to whatever the reachable cluster retains.
// Returns nil when nothing is known about the trace.
func (c *Cluster) FetchTrace(ctx context.Context, traceID string) []obs.SpanSnapshot {
	if traceID == "" {
		return nil
	}
	spans := c.tracer.Trace(traceID)
	nodes := c.topology().AllNodes()
	resps, errs := transport.BroadcastAll(ctx, c.caller, nodes, wire.TraceFetch{TraceID: traceID})
	for i, r := range resps {
		if errs[i] != nil {
			continue
		}
		if tfr, ok := r.(wire.TraceFetchResult); ok {
			spans = append(spans, tfr.Spans...)
		}
	}
	return obs.AssembleTrace(spans)
}

// TraceSource adapts FetchTrace to the obs HTTP surface, so a coordinator
// process can serve /debug/trace/{id} with cluster-wide assembly:
//
//	obs.Surface{Registry: reg, Tracer: tracer, Trace: cluster.TraceSource(ctx)}.Serve(addr)
func (c *Cluster) TraceSource(ctx context.Context) obs.TraceSource {
	return func(traceID string) []obs.SpanSnapshot {
		return c.FetchTrace(ctx, traceID)
	}
}

// MetricsDetailed collects an observability snapshot from every reachable
// node plus the addresses of the nodes that could not be reached, mirroring
// StatsDetailed. Nodes without an attached registry report an empty
// snapshot. The per-node bucket vectors share a fixed layout, so callers can
// merge them cluster-wide with obs.MergeSnapshots.
func (c *Cluster) MetricsDetailed(ctx context.Context) ([]wire.MetricsResult, []string, error) {
	nodes := c.topology().AllNodes()
	resps, errs := transport.BroadcastAll(ctx, c.caller, nodes, wire.Metrics{})
	out := make([]wire.MetricsResult, 0, len(resps))
	var down []string
	for i, r := range resps {
		if errs[i] != nil {
			if errors.Is(errs[i], transport.ErrUnreachable) {
				down = append(down, nodes[i])
				continue
			}
			return nil, nil, fmt.Errorf("core: metrics from %s: %w", nodes[i], errs[i])
		}
		mr, ok := r.(wire.MetricsResult)
		if !ok {
			return nil, nil, fmt.Errorf("core: metrics from %s: malformed reply %T", nodes[i], r)
		}
		out = append(out, mr)
	}
	return out, down, nil
}

// HistoryDetailed pulls the windowed time-series telemetry of every
// reachable node (trimmed to the trailing window; 0 = everything each node
// retains), plus the addresses of nodes that could not be reached,
// mirroring MetricsDetailed. Nodes without an attached sampler report an
// empty history. Callers merge the per-node series cluster-wide with
// obs.MergeHistories.
func (c *Cluster) HistoryDetailed(ctx context.Context, window time.Duration) ([]wire.MetricsHistoryResult, []string, error) {
	nodes := c.topology().AllNodes()
	resps, errs := transport.BroadcastAll(ctx, c.caller, nodes, wire.MetricsHistory{WindowNS: window.Nanoseconds()})
	out := make([]wire.MetricsHistoryResult, 0, len(resps))
	var down []string
	for i, r := range resps {
		if errs[i] != nil {
			if errors.Is(errs[i], transport.ErrUnreachable) {
				down = append(down, nodes[i])
				continue
			}
			return nil, nil, fmt.Errorf("core: history from %s: %w", nodes[i], errs[i])
		}
		hr, ok := r.(wire.MetricsHistoryResult)
		if !ok {
			return nil, nil, fmt.Errorf("core: history from %s: malformed reply %T", nodes[i], r)
		}
		out = append(out, hr)
	}
	return out, down, nil
}

// HistorySource adapts HistoryDetailed — plus the coordinator's own local
// sampler, which carries the gateway and coordinator-side metrics — to the
// obs HTTP surface, so a serving process exposes one cluster-wide
// /metrics/history endpoint:
//
//	surface.Cluster = cluster.HistorySource(ctx, localSeries)
func (c *Cluster) HistorySource(ctx context.Context, local *obs.TimeSeries) obs.HistorySource {
	return func(window time.Duration, perNode bool) (obs.ClusterHistory, error) {
		results, down, err := c.HistoryDetailed(ctx, window)
		if err != nil {
			return obs.ClusterHistory{}, err
		}
		histories := make([]obs.History, 0, len(results)+1)
		if lh := local.History(window); len(lh.Points) > 0 {
			if lh.Node == "" {
				lh.Node = "coordinator"
			}
			histories = append(histories, lh)
		}
		for _, r := range results {
			h := r.History
			if h.Node == "" {
				h.Node = r.Node
			}
			histories = append(histories, h)
		}
		ch := obs.ClusterHistory{Merged: obs.MergeHistories(histories...), Down: down}
		if perNode {
			ch.Nodes = histories
		}
		return ch, nil
	}
}

// Topology exposes the node layout for diagnostics.
func (c *Cluster) Topology() *dht.Topology { return c.topology() }

// topology returns the current topology snapshot. The returned value is
// immutable — membership changes swap in a freshly built topology under
// c.mu rather than mutating the shared one — so callers may use it without
// holding the lock, and a concurrent AddNode/RemoveNode can never race an
// in-flight fan-out.
func (c *Cluster) topology() *dht.Topology {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.topo
}

// TotalResidues returns the indexed database size in residues, the n of
// E-value statistics.
func (c *Cluster) TotalResidues() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.totalResidues
}

// NumSequences returns the number of indexed reference sequences.
func (c *Cluster) NumSequences() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.names)
}

// NameOf resolves a global sequence ID to its FASTA name.
func (c *Cluster) NameOf(id seq.ID) string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.names[id]
}

// Stats collects storage counters from every reachable node (Fig. 5's raw
// data), tolerating individual down nodes: their counters are simply
// missing from the result. Use StatsDetailed to learn which nodes were
// unreachable.
func (c *Cluster) Stats(ctx context.Context) ([]wire.StatsResult, error) {
	out, _, err := c.StatsDetailed(ctx)
	return out, err
}

// StatsDetailed is Stats plus the addresses of the nodes that could not be
// reached. Only a malformed reply or an application-level failure from a
// live node is an error.
func (c *Cluster) StatsDetailed(ctx context.Context) ([]wire.StatsResult, []string, error) {
	nodes := c.topology().AllNodes()
	resps, errs := transport.BroadcastAll(ctx, c.caller, nodes, wire.Stats{})
	out := make([]wire.StatsResult, 0, len(resps))
	var down []string
	for i, r := range resps {
		if errs[i] != nil {
			if errors.Is(errs[i], transport.ErrUnreachable) {
				down = append(down, nodes[i])
				continue
			}
			return nil, nil, fmt.Errorf("core: stats from %s: %w", nodes[i], errs[i])
		}
		sr, ok := r.(wire.StatsResult)
		if !ok {
			return nil, nil, fmt.Errorf("core: stats from %s: malformed reply %T", nodes[i], r)
		}
		out = append(out, sr)
	}
	return out, down, nil
}

// Ping verifies every node is reachable.
func (c *Cluster) Ping(ctx context.Context) error {
	_, err := transport.Broadcast(ctx, c.caller, c.topology().AllNodes(), wire.Ping{})
	return err
}

// groupsSnapshot returns a copy of the current group membership lists.
func (c *Cluster) groupsSnapshot() [][]string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([][]string, len(c.groups))
	for i, members := range c.groups {
		out[i] = append([]string(nil), members...)
	}
	return out
}

// noteFailedGroups schedules a scoped read-repair of groups that failed to
// answer a query; the health monitor drains the set once the group has live
// members again. Scheduling is idempotent per group.
func (c *Cluster) noteFailedGroups(groups []int) {
	c.repairMu.Lock()
	for _, g := range groups {
		if !c.repairPending[g] {
			c.repairPending[g] = true
			c.reg.Counter("read_repair_scheduled").Inc()
		}
	}
	c.repairMu.Unlock()
}

// takePendingRepairGroups drains the read-repair schedule, returning the
// group IDs in ascending order.
func (c *Cluster) takePendingRepairGroups() []int {
	c.repairMu.Lock()
	defer c.repairMu.Unlock()
	if len(c.repairPending) == 0 {
		return nil
	}
	out := make([]int, 0, len(c.repairPending))
	for g := range c.repairPending {
		out = append(out, g)
	}
	c.repairPending = make(map[int]bool)
	sort.Ints(out)
	return out
}

// PendingRepairGroups reports how many groups are awaiting read-repair.
func (c *Cluster) PendingRepairGroups() int {
	c.repairMu.Lock()
	defer c.repairMu.Unlock()
	return len(c.repairPending)
}

// seqKey is the placement key of a sequence in the repository ring.
func seqKey(id seq.ID) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(id))
	return b[:]
}

// pickEntry draws the index of the group member a fan-out RPC tries first:
// the symmetric architecture makes any of the n members a valid entry point.
func (c *Cluster) pickEntry(n int) int {
	c.rngMu.Lock()
	defer c.rngMu.Unlock()
	return c.rng.Intn(n)
}

// queryEps returns the configured or derived multi-group branching radius.
func (c *Cluster) queryEps() int {
	if c.cfg.QueryEps > 0 {
		return c.cfg.QueryEps
	}
	return c.met.MaxPerResidue() * c.cfg.BlockLen / 8
}
