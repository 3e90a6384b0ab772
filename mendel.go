// Package mendel is a distributed storage framework for similarity
// searching over genomic sequencing data, reproducing Tolooee, Pallickara
// and Ben-Hur, "Mendel: A Distributed Storage Framework for Similarity
// Searching over Sequencing Data" (IEEE IPDPS 2016).
//
// Mendel fragments DNA or protein reference sequences into fixed-length
// inverted index blocks, disperses them over a two-tier distributed hash
// table — a vantage-point prefix tree groups similar blocks onto the same
// set of nodes, and a flat SHA-1 ring balances load within each group — and
// indexes each node's blocks in a memory-resident dynamic vantage point
// tree. Alignment queries are decomposed into subqueries, resolved by
// distributed nearest-neighbour search, extended into anchors, aggregated
// at group and system entry points, gap-extended, and ranked by
// Karlin–Altschul expectation value.
//
// # Quick start
//
//	cluster, _ := mendel.NewInProcess(mendel.DefaultConfig(mendel.Protein), 8)
//	db, _ := mendel.ReadFASTA(f, mendel.Protein)
//	_ = cluster.Index(ctx, db)
//	hits, _ := cluster.Search(ctx, query, mendel.DefaultParams())
//
// For multi-process deployments run one cmd/mendel-node per machine and
// assemble a cluster with NewTCPCluster.
package mendel

import (
	"io"
	"log/slog"
	"time"

	"mendel/internal/blast"
	"mendel/internal/core"
	"mendel/internal/gateway"
	"mendel/internal/matrix"
	"mendel/internal/obs"
	"mendel/internal/seq"
	"mendel/internal/transport"
	"mendel/internal/wire"
)

// Re-exported core types. The implementation lives in internal packages;
// these aliases are the supported public surface.
type (
	// Config fixes the cluster-wide constants (block geometry, group
	// count, vp-prefix depth threshold, ...).
	Config = core.Config
	// Cluster is a coordinator handle for indexing and searching.
	Cluster = core.Cluster
	// InProcess is a whole cluster wired through an in-memory transport.
	InProcess = core.InProcess
	// Hit is one reported alignment with bit score and E-value.
	Hit = core.Hit
	// Params are the query parameters of the paper's Table I.
	Params = wire.Params
	// Kind selects DNA or Protein mode.
	Kind = seq.Kind
	// Set is an ordered collection of validated sequences.
	Set = seq.Set
	// Sequence is a validated biological sequence.
	Sequence = seq.Sequence
	// SequenceID identifies a reference sequence within a deployment.
	SequenceID = seq.ID
	// LatencyModel simulates LAN delay on the in-memory transport.
	LatencyModel = transport.LatencyModel
	// SearchStats is the per-stage execution trace of one search.
	SearchStats = core.Trace
	// TranslatedHit is a protein hit from a six-frame translated DNA query.
	TranslatedHit = core.TranslatedHit
	// BatchResult pairs one query of a SearchAll batch with its outcome.
	BatchResult = core.BatchResult
	// PrefilterMode selects the sketch-based group prefilter consulted
	// before query fan-out (off, bloom or minhash).
	PrefilterMode = core.PrefilterMode
	// SimilarityHit is one alignment-free MinHash similarity result.
	SimilarityHit = core.SimilarityHit
)

// Sketch prefilter modes, settable with Cluster.SetPrefilterMode and parsed
// from the CLIs' -prefilter flag by ParsePrefilterMode.
const (
	PrefilterOff     = core.PrefilterOff
	PrefilterBloom   = core.PrefilterBloom
	PrefilterMinHash = core.PrefilterMinHash
)

// ParsePrefilterMode parses the -prefilter flag values off|bloom|minhash.
func ParsePrefilterMode(s string) (PrefilterMode, error) { return core.ParsePrefilterMode(s) }

// MinHashesOf computes the bottom-k MinHash signature of a sequence under
// the cluster configuration's sketch params — the query-side half of
// Cluster.Similarity, exported for the similarity verification harness.
func MinHashesOf(data []byte, cfg Config) []uint64 { return core.MinHashesOf(data, cfg) }

// ExactJaccard computes the exact canonical k-mer Jaccard similarity of two
// sequences under the cluster configuration's sketch params: the ground
// truth `mendel similarity -verify` compares the MinHash estimates against.
func ExactJaccard(a, b []byte, cfg Config) float64 { return core.ExactJaccard(a, b, cfg) }

// Observability re-exports. A MetricsRegistry accumulates counters, gauges
// and mergeable latency histograms; a QueryTracer records a span tree per
// query decomposed into the paper's pipeline stages. Attach them with
// InProcess.Observe, NodeServer.Observe or Cluster.SetObservability, and
// expose them over HTTP (with pprof) via MetricsSurface.
type (
	// MetricsRegistry is a concurrency-safe metrics sink.
	MetricsRegistry = obs.Registry
	// QueryTracer records per-query span trees and a slow-query log.
	QueryTracer = obs.Tracer
	// MetricSnapshot is one exported metric at a point in time.
	MetricSnapshot = obs.Snapshot
	// SpanSnapshot is an immutable copy of a finished query span tree.
	SpanSnapshot = obs.SpanSnapshot
	// SpanAttr is one integer attribute recorded on a span.
	SpanAttr = obs.Attr
	// NodeMetrics is one node's registry snapshot, as returned by
	// Cluster.MetricsDetailed.
	NodeMetrics = wire.MetricsResult
	// TraceContext is the per-query distributed trace identity carried on
	// every RPC (128-bit trace ID, span ID, head-sampling decision).
	TraceContext = obs.TraceContext
	// TraceSource resolves a trace ID to its assembled cross-node span
	// tree; Cluster.TraceSource produces one backed by the whole cluster.
	TraceSource = obs.TraceSource
	// HealthSource supplies the JSON value served from /debug/health;
	// HealthMonitor.Source produces one backed by the cluster health view.
	HealthSource = obs.HealthSource
)

// Windowed-telemetry re-exports. A TimeSeries turns the point-in-time
// registry into a fixed-capacity ring of per-interval samples (counters
// delta-encoded into rates, histograms windowed into per-interval
// quantiles); a Watchdog evaluates SLO objectives over fast/slow burn-rate
// windows on every sample and serves its ok/warn/page state at /debug/slo;
// a ProfileCapturer writes pprof CPU+heap pairs into a bounded on-disk
// ring on first breach. Build the HTTP surface with MetricsSurface.
type (
	// TimeSeries is a windowed sampler over a MetricsRegistry.
	TimeSeries = obs.TimeSeries
	// TimeSeriesConfig tunes the sampling interval, ring capacity and
	// clock (zero value: 1s × 300 samples, wall clock).
	TimeSeriesConfig = obs.TimeSeriesConfig
	// MetricsHistory is an ordered window of telemetry points.
	MetricsHistory = obs.History
	// MetricsPoint is one interval of windowed telemetry.
	MetricsPoint = obs.Point
	// NodeMetricsHistory is one node's windowed series, as returned by
	// Cluster.HistoryDetailed.
	NodeMetricsHistory = wire.MetricsHistoryResult
	// ClusterMetricsHistory is the /metrics/history response body.
	ClusterMetricsHistory = obs.ClusterHistory
	// HistorySource supplies windowed histories for /metrics/history;
	// Cluster.HistorySource produces one backed by the whole cluster.
	HistorySource = obs.HistorySource
	// RuntimeCollector folds goroutine/heap/GC readings into a registry.
	RuntimeCollector = obs.RuntimeCollector
	// Watchdog is the SLO burn-rate evaluator behind /debug/slo.
	Watchdog = obs.Watchdog
	// SLOConfig sets the burn-rate windows and objectives.
	SLOConfig = obs.SLOConfig
	// SLOObjective is one SLO target (latency quantile, ratio or growth).
	SLOObjective = obs.Objective
	// SLOStatus is the watchdog's full evaluated state.
	SLOStatus = obs.SLOStatus
	// ProfileCapturer writes breach-triggered pprof profiles to a bounded
	// on-disk ring.
	ProfileCapturer = obs.ProfileCapturer
	// ProfileConfig tunes the profile directory, CPU duration and ring
	// size.
	ProfileConfig = obs.ProfileConfig
	// MetricsSurface bundles every observability sink behind one HTTP
	// mux: /metrics, /metrics/history, /debug/slo, /debug/health, spans,
	// traces and pprof. Its Handler method builds the mux and Serve binds
	// it to an address; every sink may be nil.
	MetricsSurface = obs.Surface
)

// NewTimeSeries builds a windowed sampler over reg; drive it with Run or
// attach it to a NodeServer via StartHistory.
func NewTimeSeries(reg *MetricsRegistry, cfg TimeSeriesConfig) *TimeSeries {
	return obs.NewTimeSeries(reg, cfg)
}

// NewRuntimeCollector builds a collector publishing goroutine count, heap
// bytes and GC pause deltas into reg; register its Collect on a TimeSeries.
func NewRuntimeCollector(reg *MetricsRegistry) *RuntimeCollector {
	return obs.NewRuntimeCollector(reg)
}

// NewWatchdog builds an SLO watchdog over ts; call Watch to evaluate on
// every sample.
func NewWatchdog(ts *TimeSeries, cfg SLOConfig) *Watchdog { return obs.NewWatchdog(ts, cfg) }

// NewProfileCapturer builds a breach-triggered pprof capturer rooted at
// cfg.Dir; wire its OnBreach onto a Watchdog.
func NewProfileCapturer(cfg ProfileConfig) (*ProfileCapturer, error) {
	return obs.NewProfileCapturer(cfg)
}

// GatewaySLOObjectives builds the standard serving-path objective set:
// windowed p95 search latency, error rate, shed rate and hint-queue
// growth. Zero thresholds disable the corresponding objective.
func GatewaySLOObjectives(p95 time.Duration, errRate, shedRate, hintSlope float64) []SLOObjective {
	return obs.GatewayObjectives(p95, errRate, shedRate, hintSlope)
}

// MergeMetricsHistories folds per-node windowed series into one
// cluster-wide history (counter deltas and gauges sum, histogram buckets
// add, points aligned from the most recent backwards).
func MergeMetricsHistories(hs ...MetricsHistory) MetricsHistory { return obs.MergeHistories(hs...) }

// Serving-layer re-exports. A Gateway turns a coordinator into a long-lived
// concurrent query service: an HTTP/JSON API (POST /v1/search, POST
// /v1/ingest, GET /v1/status) over one shared Cluster, with admission
// control (bounded in-flight window plus a FIFO wait queue; overload sheds
// with 429 + Retry-After), per-tenant token-bucket quotas keyed by the
// X-Mendel-Tenant header, and per-request deadlines. Mount its Routes onto
// the observability mux via MetricsSurface.Routes so the API and /metrics
// share one listener. Under concurrent load the Cluster's fan-out batches
// the per-group subqueries of the queries in flight, so the gateway needs
// nothing turned on for that.
type (
	// Gateway is the concurrent query-serving layer over one Cluster.
	Gateway = gateway.Gateway
	// GatewayConfig tunes admission control, quotas, and deadlines.
	GatewayConfig = gateway.Config
	// Route is an application route mounted onto the observability mux.
	Route = obs.Route
)

// NewGateway builds a query gateway over an indexed cluster. reg receives
// the gw_* metrics and may be shared with the cluster's registry; nil
// disables gateway metrics.
func NewGateway(c *Cluster, cfg GatewayConfig, reg *MetricsRegistry) *Gateway {
	return gateway.New(c, cfg, reg)
}

// Self-healing re-exports. A HealthMonitor probes every node on a jittered
// interval, tracks per-node up/suspect/down state, replays hinted-handoff
// queues to recovered nodes and re-pushes topology; Cluster.Repair runs an
// anti-entropy pass that re-replicates blocks and sequence shards a node
// lost (e.g. after a crash-restart with empty state).
type (
	// HealthMonitor is the coordinator-side failure detector and recovery
	// driver.
	HealthMonitor = core.HealthMonitor
	// HealthConfig tunes the probe interval, jitter and down threshold.
	HealthConfig = core.HealthConfig
	// NodeHealth is one node's health record in a HealthMonitor snapshot.
	NodeHealth = core.NodeHealth
	// RepairReport summarizes one Cluster.Repair anti-entropy pass.
	RepairReport = core.RepairReport
)

// Node health states reported in NodeHealth.State.
const (
	HealthUp      = core.HealthUp
	HealthSuspect = core.HealthSuspect
	HealthDown    = core.HealthDown
)

// NewHealthMonitor creates a health monitor for the cluster. Zero-valued
// config fields take the defaults; start the probe loop with Run or drive it
// manually with ProbeOnce.
func NewHealthMonitor(c *Cluster, cfg HealthConfig) *HealthMonitor {
	return core.NewHealthMonitor(c, cfg)
}

// DefaultHealthConfig returns the production defaults (2s probe interval,
// 500ms jitter, down after 2 consecutive misses).
func DefaultHealthConfig() HealthConfig { return core.DefaultHealthConfig() }

// NewMetricsRegistry creates an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// NewQueryTracer creates a tracer retaining the most recent capacity root
// spans (0 uses the default).
func NewQueryTracer(capacity int) *QueryTracer { return obs.NewTracer(capacity) }

// AssembleTraceSpans merges span trees collected from several tracers —
// coordinator roots plus node-shipped subtrees — into the deduplicated
// per-trace forest that /debug/trace/{id} serves.
func AssembleTraceSpans(spans []SpanSnapshot) []SpanSnapshot { return obs.AssembleTrace(spans) }

// NewLogger returns a structured logger writing one JSON object per line to
// w, with the given minimum level and constant attributes (a node address,
// a role) stamped on every record.
func NewLogger(w io.Writer, level slog.Level, attrs ...slog.Attr) *slog.Logger {
	return obs.NewLogger(w, level, attrs...)
}

// LoggerWithTrace returns l with the trace's 32-hex trace_id attribute
// attached, so log lines correlate with /debug/trace/{id}. Invalid contexts
// return l unchanged.
func LoggerWithTrace(l *slog.Logger, tc TraceContext) *slog.Logger { return obs.WithTrace(l, tc) }

// MergeMetricSnapshots merges per-node snapshots into cluster-wide totals;
// histogram buckets share a fixed layout, so quantiles survive the merge.
func MergeMetricSnapshots(groups ...[]MetricSnapshot) []MetricSnapshot {
	return obs.MergeSnapshots(groups...)
}

// Molecule kinds.
const (
	DNA     = seq.DNA
	Protein = seq.Protein
)

// DefaultConfig returns the framework defaults for a molecule kind.
func DefaultConfig(kind Kind) Config { return core.DefaultConfig(kind) }

// DefaultParams returns the Table I parameter defaults.
func DefaultParams() Params { return wire.DefaultParams() }

// NewInProcess assembles an in-process cluster of numNodes storage nodes.
func NewInProcess(cfg Config, numNodes int) (*InProcess, error) {
	return core.NewInProcess(cfg, numNodes)
}

// NewInProcessWithLatency is NewInProcess with simulated per-message LAN
// latency, for scalability experiments.
func NewInProcessWithLatency(cfg Config, numNodes int, l LatencyModel) (*InProcess, error) {
	return core.NewInProcess(cfg, numNodes, transport.WithLatency(l))
}

// ReadFASTA parses FASTA records into a sequence set.
func ReadFASTA(r io.Reader, kind Kind) (*Set, error) { return seq.ReadFASTA(r, kind) }

// WriteFASTA writes a sequence set in FASTA format.
func WriteFASTA(w io.Writer, set *Set, width int) error { return seq.WriteFASTA(w, set, width) }

// NewSet creates an empty sequence set of the given kind.
func NewSet(kind Kind) *Set { return seq.NewSet(kind) }

// Baseline re-exports: the from-scratch BLAST implementation used as the
// single-machine comparator in the paper's evaluation.
type (
	// BlastDB is an indexed single-machine BLAST database.
	BlastDB = blast.DB
	// BlastConfig controls the BLAST heuristics.
	BlastConfig = blast.Config
	// BlastHit is one BLAST alignment.
	BlastHit = blast.Hit
)

// NewBlastDB indexes a sequence set for the BLAST baseline using the
// conventional defaults for its kind (blastp word 3 / T=11, blastn 11-mers).
func NewBlastDB(set *Set) (*BlastDB, error) {
	if set.Kind == DNA {
		return blast.NewDB(set, blast.DefaultDNAConfig(), matrix.DNAUnit)
	}
	return blast.NewDB(set, blast.DefaultProteinConfig(), matrix.BLOSUM62)
}
