// Package wire defines the messages exchanged between Mendel cluster nodes
// and the query parameters of the paper's Table I. Messages are plain
// structs carried by the transports as interface values and encoded by
// AppendMessage (codec.go): the hot request/response types have a
// hand-rolled binary encoding (varint fields, zero-copy byte views, pooled
// frames), while cold and rare messages ride encoding/gob, for which every
// concrete type is registered here. Marshal/Unmarshal are that
// self-contained gob envelope codec.
package wire

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sync"

	"mendel/internal/obs"
	"mendel/internal/seq"
)

// Params are the user-facing query parameters, one field per row of the
// paper's Table I: the row's letter leads each field's comment, Validate
// checks the row's range and DefaultParams gives its default.
type Params struct {
	Step      int     // k: sliding window step over the query
	Neighbors int     // n: nearest neighbours fetched per subquery
	Identity  float64 // i: minimum percent-identity of a candidate, in [0,1]
	CScore    float64 // c: minimum consecutivity score, in [0,1]
	Matrix    string  // M: scoring matrix name (BLOSUM62, PAM250, DNA)
	GappedS   int     // S: normalized score threshold for gapped extension
	Band      int     // l: gapped alignment band width, in diagonals
	MaxE      float64 // E: expectation value threshold for reporting
	// BothStrands additionally searches the reverse complement of a DNA
	// query, reporting minus-strand hits with Hit.Strand == '-'. Ignored
	// for protein data.
	BothStrands bool
	// Mask filters low-complexity regions out of the query before
	// decomposition (SEG/DUST-style entropy masking): masked windows are
	// skipped so repeat tracts cannot flood the cluster with meaningless
	// subqueries.
	Mask bool
}

// DefaultParams returns the parameter defaults used throughout the
// repository for protein searches.
func DefaultParams() Params {
	return Params{
		Step:      16,
		Neighbors: 12,
		Identity:  0.30,
		CScore:    0.40,
		Matrix:    "BLOSUM62",
		GappedS:   28,
		Band:      8,
		MaxE:      10,
	}
}

// Validate checks the ranges of Table I (k,n >= 1; i,c in [0,1]; S,l,E >= 0).
func (p Params) Validate() error {
	switch {
	case p.Step < 1:
		return fmt.Errorf("params: step k = %d, want >= 1", p.Step)
	case p.Neighbors < 1:
		return fmt.Errorf("params: neighbors n = %d, want >= 1", p.Neighbors)
	case p.Identity < 0 || p.Identity > 1:
		return fmt.Errorf("params: identity i = %g, want [0,1]", p.Identity)
	case p.CScore < 0 || p.CScore > 1:
		return fmt.Errorf("params: c-score c = %g, want [0,1]", p.CScore)
	case p.Matrix == "":
		return fmt.Errorf("params: empty scoring matrix M")
	case p.GappedS < 0:
		return fmt.Errorf("params: gapped threshold S = %d, want >= 0", p.GappedS)
	case p.Band < 0:
		return fmt.Errorf("params: band l = %d, want >= 0", p.Band)
	case p.MaxE < 0:
		return fmt.Errorf("params: expectation E = %g, want >= 0", p.MaxE)
	}
	return nil
}

// Block is the wire form of an inverted index block (§V-A1).
type Block struct {
	Seq     seq.ID
	Start   int
	Content []byte
	Context []byte
	CtxOff  int
}

// Anchor is an extended ungapped match produced on a storage node and
// aggregated at group and system entry points (§V-B). Coordinates are
// half-open; SStart/SEnd are subject (reference sequence) offsets.
type Anchor struct {
	Seq    seq.ID
	QStart int
	QEnd   int
	SStart int
	SEnd   int
	Score  int
}

// Diagonal returns the anchor's alignment diagonal (subject minus query
// start), the merge key of the aggregation stages.
func (a Anchor) Diagonal() int { return a.SStart - a.QStart }

// Ping checks liveness.
type Ping struct{}

// Pong answers Ping. Booted distinguishes a node that merely restarted (its
// process answers but it lost the bootstrapped cluster state) from one that
// is fully operational; the health monitor re-bootstraps the former before
// replaying hints at it.
type Pong struct {
	Node   string
	Booted bool
}

// Bootstrap distributes the shared cluster state to a storage node: the
// serialized vp-prefix hash tree, the metric and block geometry, and the
// topology (group membership lists).
type Bootstrap struct {
	HashTree []byte
	Metric   string
	BlockLen int
	Margin   int
	Groups   [][]string
	Kind     seq.Kind
	// SketchK, SketchBloomBits and SketchMinHashK distribute the cluster's
	// sketch shape (internal/sketch.Params) so every node builds identical,
	// mergeable k-mer signatures during ingest. SketchK == 0 — the value a
	// pre-sketch coordinator sends implicitly, since gob omits unknown
	// fields — disables node-side sketching entirely.
	SketchK         int
	SketchBloomBits int
	SketchMinHashK  int
}

// BootstrapAck acknowledges Bootstrap.
type BootstrapAck struct{}

// UpdateTopology informs a node of a membership change (join or graceful
// leave) without disturbing its stored data, unlike Bootstrap which resets
// the node. Nodes use the topology when acting as group entry points.
type UpdateTopology struct {
	Groups [][]string
}

// UpdateTopologyAck acknowledges UpdateTopology.
type UpdateTopologyAck struct{}

// Run is a stretch of one sequence shipped once for all the blocks the
// receiving node holds in it: residues [Start, Start+len(Residues)) of
// sequence Seq, and Keys, the ascending offsets into Residues of those
// blocks' first residues. The node cuts each block itself: the content
// Residues[k:k+w] and the context
// Residues[max(0,k−Margin):min(len,k+w+Margin)], which is the context
// invindex.Blocks gives whenever the run holds that whole context.
type Run struct {
	Seq      seq.ID
	Start    int
	Residues []byte
	Keys     []int
}

// MaxRunResidues caps a Run's residues: senders close a run there, and
// nodes refuse a longer one. It exceeds the longest context a node accepts
// (BlockLen+2·Margin ≤ 65535), so every block fits a run.
const MaxRunResidues = 1 << 16

// BatchRuns splits runs into consecutive batches of at least blocks keys
// each, the last excepted, for IndexBlocks messages; no run is split.
func BatchRuns(runs []Run, blocks int) [][]Run {
	var out [][]Run
	for first := 0; first < len(runs); {
		i, keys := first, 0
		for ; i < len(runs) && keys < blocks; i++ {
			keys += len(runs[i].Keys)
		}
		out = append(out, runs[first:i:i])
		first = i
	}
	return out
}

// IndexBlocks stores a batch of blocks on the receiving node: the blocks of
// Runs, and Blocks, each a block with its own context. Ingest and hint
// replay send Runs; Blocks is the older per-block form, which repair
// pushes, node snapshots and tests still use. With Stage set the node records the
// blocks but makes them searchable only when a BuildIndex message arrives;
// the parallel ingest pipeline uses this so the index grows once, in bulk,
// from an arrival-order-independent (sorted) block set — making it
// deterministic no matter how many concurrent senders delivered the blocks.
type IndexBlocks struct {
	Blocks []Block
	Runs   []Run
	Stage  bool
}

// IndexBlocksAck reports how many blocks the node accepted.
type IndexBlocksAck struct {
	Accepted int
}

// BuildIndex tells a node to add every staged block to its local index in
// one bulk append. Idempotent: with nothing staged it is a no-op.
type BuildIndex struct{}

// BuildIndexAck reports how many staged blocks the build consumed.
type BuildIndexAck struct {
	Items int
}

// StoreSequences places full reference sequences on the receiving node's
// shard of the distributed sequence repository, which coordinators consult
// for gapped extension.
type StoreSequences struct {
	IDs   []seq.ID
	Names []string
	Data  [][]byte
}

// StoreSequencesAck acknowledges StoreSequences.
type StoreSequencesAck struct{}

// FetchRegion asks a sequence-repository shard for reference residues
// [Start, End) of a sequence (clamped to its bounds).
type FetchRegion struct {
	Seq   seq.ID
	Start int
	End   int
}

// Region answers FetchRegion. Start carries the clamped effective offset.
type Region struct {
	Seq   seq.ID
	Start int
	Data  []byte
	Len   int // full sequence length
}

// LocalSearch runs subquery windows against the receiving node's local
// index: n-NN lookup, identity and c-score filtering, margin-based anchor
// extension (§V-B), and the S threshold on the extended anchors. The full query travels with the request (queries
// are short relative to the database) so extension can grow anchors beyond
// the seed window on the query side too.
type LocalSearch struct {
	Query     []byte
	Offsets   []int // window start offsets assigned to this node's group
	WindowLen int
	Params    Params
}

// LocalSearchResult returns the node's extended anchors for the subqueries,
// plus the node-side timing breakdown so coordinators can attribute query
// latency to the paper's stages without extra round trips: KNNNs is the time
// spent in nearest-neighbour lookups, ExtendNs the time spent in filtering
// and ungapped anchor extension, and Visits the number of distance
// evaluations consumed (keys that passed the identity screen).
type LocalSearchResult struct {
	Anchors  []Anchor
	KNNNs    int64
	ExtendNs int64
	Visits   int64
	// Spans carries the node's completed span subtrees for this request
	// when the caller's TraceContext was sampled; empty otherwise. Gob
	// ignores unknown fields, so results from nodes predating tracing
	// simply arrive without spans.
	Spans []obs.SpanSnapshot
}

// GroupSearch is sent to a group entry point, which fans the contained
// subqueries out to every node of its group, merges overlapping anchors on
// the same diagonal, and returns the merged set (first aggregation stage).
type GroupSearch struct {
	Group     int
	Query     []byte
	Offsets   []int
	WindowLen int
	Params    Params
}

// GroupSearchResult is the group entry point's merged anchor set. The
// timing fields aggregate (sum) the member nodes' LocalSearchResult
// breakdowns, and MergeNs is the entry point's own anchor-aggregation time.
type GroupSearchResult struct {
	Anchors  []Anchor
	KNNNs    int64
	ExtendNs int64
	Visits   int64
	MergeNs  int64
	// Spans carries the entry point's group_search subtree (member
	// local_search spans grafted in) for sampled traces; empty otherwise.
	Spans []obs.SpanSnapshot
}

// GroupSearchBatch carries several queries' GroupSearch requests for the
// same group in one RPC — the cross-query coalescing a concurrent serving
// layer uses to amortize transport cost: in-flight searches held for the
// same busy group share a single round trip and a single envelope instead
// of one each.
//
// TCs, when present, carries one TraceContext per item so each query keeps
// its own distributed trace identity even though the batch travels under a
// single transport envelope; a zero context means that item is untraced.
type GroupSearchBatch struct {
	Group int
	Items []GroupSearch
	TCs   []obs.TraceContext
}

// GroupSearchBatchResult answers GroupSearchBatch item-wise: Items[i] is
// the GroupSearchResult of Items[i] of the request. Errs, when non-empty,
// is index-aligned with Items; a non-empty string is that item's
// application-level failure (the other items still stand — one query's
// failure must not shed the whole batch).
type GroupSearchBatchResult struct {
	Items []GroupSearchResult
	Errs  []string
}

// Metrics asks a node for a snapshot of its observability registry.
type Metrics struct{}

// MetricsResult carries one node's metric snapshots; empty when the node
// runs without a registry attached. Snapshots use obs's fixed histogram
// bucket layout, so coordinators merge them with obs.MergeSnapshots.
type MetricsResult struct {
	Node    string
	Metrics []obs.Snapshot
}

// MetricsHistory asks a node for its windowed time-series telemetry,
// trimmed to the trailing WindowNS nanoseconds (0 = everything retained).
// Like Metrics it rides the gob path — history pulls are a periodic
// dashboard/operator concern, not the query hot path, and gob already
// handles time.Time and the nested maps.
type MetricsHistory struct {
	WindowNS int64
}

// MetricsHistoryResult carries one node's windowed series; History.Points
// is empty when the node runs without a sampler attached. Coordinators
// merge per-node results with obs.MergeHistories.
type MetricsHistoryResult struct {
	Node    string
	History obs.History
}

// TraceFetch asks a node for every retained root span belonging to the
// given 32-hex trace ID — the pull half of cross-node trace assembly,
// covering spans that were not shipped inline in a search result (e.g.
// fetch_region spans recorded during gapped extension).
type TraceFetch struct {
	TraceID string
}

// TraceFetchResult answers TraceFetch; empty when the node runs without a
// tracer or retains nothing for the trace.
type TraceFetchResult struct {
	Node  string
	Spans []obs.SpanSnapshot
}

// BlockManifest asks a node for a summary of its block and sequence
// inventory — the read half of anti-entropy repair. The reply carries
// references rather than contents, so a manifest sweep over the whole
// cluster stays cheap relative to the data it describes.
type BlockManifest struct{}

// BlockManifestResult lists a node's holdings: the packed reference of every
// stored block, plus the IDs of the sequence-repository shards it holds.
// Block placement is a function of the reference (dht.Topology.Place), so
// the coordinator diffs Refs against it directly to find blocks whose
// replica set lost a copy. Repair copies a block to its placement and
// deletes no misplaced copy, so a snapshot written under an older placement
// (one that hashed block content) needs a one-off re-index, not a repair.
type BlockManifestResult struct {
	Node string
	Refs []uint64 // packed (seq, start) block references, sorted
	Seqs []seq.ID // sequence-repository shard IDs held, sorted
}

// PushBlocks tells a node (a surviving replica) to re-replicate the listed
// blocks to Target via the staged IndexBlocks path. Block contents flow
// node-to-node; the coordinator only ever routes references.
type PushBlocks struct {
	Target string
	Refs   []uint64
}

// PushBlocksAck reports a PushBlocks outcome: how many blocks the target
// accepted and how many of the requested refs the source no longer holds.
type PushBlocksAck struct {
	Pushed  int
	Missing int
}

// PushSequences is PushBlocks for the sequence repository: the receiving
// node forwards the listed full sequences to Target with StoreSequences.
type PushSequences struct {
	Target string
	IDs    []seq.ID
}

// PushSequencesAck reports a PushSequences outcome.
type PushSequencesAck struct {
	Pushed  int
	Missing int
}

// SketchFetch asks a node for its k-mer signature over every block it
// holds (internal/sketch encoding). The coordinator pulls these after
// ingest and repair, merges them per group (sketch union is exact and
// order-independent), and consults the merged signatures to skip groups
// during query fan-out.
type SketchFetch struct{}

// SketchFetchResult answers SketchFetch. Sketch is empty when the node was
// bootstrapped without sketch params (or predates them); the coordinator
// then marks the node's groups incomplete and never skips them.
type SketchFetchResult struct {
	Node   string
	Sketch []byte
}

// Stats queries a node's storage counters.
type Stats struct{}

// StatsResult reports per-node storage and work counters.
type StatsResult struct {
	Node      string
	Blocks    int
	Residues  int
	Sequences int
	TreeSize  int // keys in the node's search index, named for the vp-tree it once was
	// TopoNodes is the cluster size in the node's own topology view; a node
	// that missed an UpdateTopology broadcast disagrees with the
	// coordinator here, which the self-healing tests assert against.
	TopoNodes int
}

// envelope boxes a message for Marshal/Unmarshal: gob refuses to encode a
// bare interface value, so the codec wraps it in a single-field struct.
type envelope struct{ V any }

// bufPool recycles gob encode scratch buffers: cold messages and span blobs
// are encoded into a pooled buffer, then appended where they belong.
var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// Marshal encodes a registered wire message into a self-contained gob
// envelope — the reference encoding the binary codec is checked against,
// and the body of a cold message's AppendMessage encoding. The returned
// slice is owned by the caller.
func Marshal(msg any) ([]byte, error) { return appendEnvelope(nil, msg) }

// appendEnvelope appends the Marshal encoding of msg to dst; on error dst is
// returned unchanged.
func appendEnvelope(dst []byte, msg any) ([]byte, error) {
	buf := bufPool.Get().(*bytes.Buffer)
	defer bufPool.Put(buf)
	buf.Reset()
	if err := gob.NewEncoder(buf).Encode(&envelope{V: msg}); err != nil {
		return dst, fmt.Errorf("wire: marshal %T: %w", msg, err)
	}
	return append(dst, buf.Bytes()...), nil
}

// Unmarshal decodes a Marshal-produced byte slice back into its message;
// the input must be fully consumed. Arbitrary input returns an error; it
// must never panic (fuzz-enforced).
func Unmarshal(data []byte) (any, error) {
	var env envelope
	rd := bytes.NewReader(data)
	if err := gob.NewDecoder(rd).Decode(&env); err != nil {
		return nil, fmt.Errorf("wire: unmarshal: %w", err)
	}
	if rd.Len() != 0 {
		return nil, fmt.Errorf("wire: unmarshal: %d trailing bytes", rd.Len())
	}
	return env.V, nil
}

func init() {
	gob.Register(Ping{})
	gob.Register(Pong{})
	gob.Register(Bootstrap{})
	gob.Register(BootstrapAck{})
	gob.Register(UpdateTopology{})
	gob.Register(UpdateTopologyAck{})
	gob.Register(IndexBlocks{})
	gob.Register(IndexBlocksAck{})
	gob.Register(BuildIndex{})
	gob.Register(BuildIndexAck{})
	gob.Register(StoreSequences{})
	gob.Register(StoreSequencesAck{})
	gob.Register(FetchRegion{})
	gob.Register(Region{})
	gob.Register(LocalSearch{})
	gob.Register(LocalSearchResult{})
	gob.Register(GroupSearch{})
	gob.Register(GroupSearchResult{})
	gob.Register(GroupSearchBatch{})
	gob.Register(GroupSearchBatchResult{})
	gob.Register(BlockManifest{})
	gob.Register(BlockManifestResult{})
	gob.Register(PushBlocks{})
	gob.Register(PushBlocksAck{})
	gob.Register(PushSequences{})
	gob.Register(PushSequencesAck{})
	gob.Register(Stats{})
	gob.Register(StatsResult{})
	gob.Register(Metrics{})
	gob.Register(MetricsResult{})
	gob.Register(MetricsHistory{})
	gob.Register(MetricsHistoryResult{})
	gob.Register(TraceFetch{})
	gob.Register(TraceFetchResult{})
	gob.Register(SketchFetch{})
	gob.Register(SketchFetchResult{})
}
