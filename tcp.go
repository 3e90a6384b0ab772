package mendel

import (
	"context"
	"io"

	"mendel/internal/core"
	"mendel/internal/node"
	"mendel/internal/obs"
	"mendel/internal/transport"
)

// Resilient RPC layer re-exports. A ResilienceConfig turns any TCP caller
// into one with per-call timeouts, bounded retries with exponential backoff
// on unreachable peers, and a per-address circuit breaker.
type (
	// ResilienceConfig tunes timeouts, retries and the circuit breaker.
	ResilienceConfig = transport.ResilientConfig
	// ResilienceStats is a snapshot of retry/trip/rejection counters.
	ResilienceStats = transport.ResilientStats
	// ResilientCaller decorates a transport with the resilience policy.
	ResilientCaller = transport.ResilientCaller
)

// DefaultResilienceConfig returns the production defaults (10s call
// timeout, 2 retries, breaker tripping after 5 consecutive failures).
func DefaultResilienceConfig() ResilienceConfig { return transport.DefaultResilientConfig() }

// NodeServer is a storage node serving the Mendel protocol over TCP.
type NodeServer struct {
	srv    *transport.TCPServer
	node   *node.Node
	client *transport.TCPClient
	rcall  *transport.ResilientCaller

	series     *obs.TimeSeries
	stopSeries context.CancelFunc
}

// ServeNode starts a storage node listening on addr ("host:port"; port 0
// picks a free port). The node is inert until a coordinator bootstraps it
// via Index or LoadManifest+Index.
func ServeNode(addr string) (*NodeServer, error) {
	return ServeNodeResilient(addr, DefaultResilienceConfig())
}

// ServeNodeResilient is ServeNode with an explicit resilience policy for
// the node's own outbound client (used for group fan-out and aggregation
// when the node acts as a group entry point).
func ServeNodeResilient(addr string, rc ResilienceConfig) (*NodeServer, error) {
	srv, err := transport.ListenTCP(addr, nil)
	if err != nil {
		return nil, err
	}
	// The node's advertised identity is the bound listener address (known
	// only after listening); it uses a TCP client of its own to reach its
	// group peers when acting as a group entry point.
	client := transport.NewTCPClient(0)
	rcall := transport.NewResilientCaller(client, rc)
	n := node.New(srv.Addr(), rcall)
	srv.SetHandler(n)
	return &NodeServer{srv: srv, node: n, client: client, rcall: rcall}, nil
}

// Observe attaches observability sinks to every layer of the node: the node
// itself (vp-tree and extension metrics, group_search span trees), the TCP
// server (request counters, handle latencies, bytes on the wire), the
// node's outbound TCP client, and its circuit breaker. Either argument may
// be nil. Call before the node serves traffic.
func (s *NodeServer) Observe(reg *MetricsRegistry, tracer *QueryTracer) {
	s.node.Observe(reg, tracer)
	s.srv.Observe(reg)
	s.client.Observe(reg)
	s.rcall.Register(reg)
	if reg != nil && s.series == nil {
		// Default windowed telemetry (1s × 300 samples + runtime collector)
		// so every observed node answers wire.MetricsHistory pulls; Close
		// stops the sampling goroutine. StartHistory first for custom
		// intervals.
		s.StartHistory(reg, TimeSeriesConfig{})
	}
}

// StartHistory starts (or replaces) the node's windowed time-series
// sampler over reg with the given config (zero value = 1s × 300 samples),
// wiring in a runtime collector and registering the series as the backend
// for wire.MetricsHistory pulls. The sampling goroutine stops on Close.
func (s *NodeServer) StartHistory(reg *MetricsRegistry, cfg TimeSeriesConfig) *TimeSeries {
	if s.stopSeries != nil {
		s.stopSeries()
	}
	ts := obs.NewTimeSeries(reg, cfg)
	ts.SetNode(s.srv.Addr())
	ts.AddCollector(obs.NewRuntimeCollector(reg).Collect)
	ctx, cancel := context.WithCancel(context.Background())
	s.series = ts
	s.stopSeries = cancel
	s.node.ObserveHistory(ts)
	go ts.Run(ctx)
	return ts
}

// History returns the node's windowed sampler (nil until Observe or
// StartHistory).
func (s *NodeServer) History() *TimeSeries { return s.series }

// Addr returns the bound address to hand to NewTCPCluster.
func (s *NodeServer) Addr() string { return s.srv.Addr() }

// HealthSource returns a /debug/health backend serving this node's local
// inventory summary (booted flag, block/sequence/tree counts). Set it as
// MetricsSurface.Health; cluster-wide health lives on the coordinator's
// HealthMonitor instead.
func (s *NodeServer) HealthSource() HealthSource {
	return func() any { return s.node.Health() }
}

// Close shuts the node down, stopping the history sampler if one runs.
func (s *NodeServer) Close() error {
	if s.stopSeries != nil {
		s.stopSeries()
		s.stopSeries = nil
	}
	return s.srv.Close()
}

// Save writes the node's durable state (bootstrap parameters, stored blocks,
// repository sequences) so a restarted node resumes serving without
// re-ingestion. Pair with the coordinator-side SaveManifest.
func (s *NodeServer) Save(w io.Writer) error { return s.node.SaveTo(w) }

// Load restores a node's state from a Save snapshot. The node must have
// been started on the same advertised address recorded in the snapshot's
// topology.
func (s *NodeServer) Load(r io.Reader) error { return s.node.LoadFrom(r) }

// NewTCPCluster creates a coordinator over TCP storage nodes arranged into
// the given groups of addresses, with the default resilience policy.
func NewTCPCluster(cfg Config, groups [][]string) (*Cluster, error) {
	c, _, err := NewTCPClusterResilient(cfg, groups, DefaultResilienceConfig())
	return c, err
}

// NewTCPClusterResilient is NewTCPCluster with an explicit resilience
// policy; the returned ResilientCaller exposes Stats() for observability.
func NewTCPClusterResilient(cfg Config, groups [][]string, rc ResilienceConfig) (*Cluster, *ResilientCaller, error) {
	caller := transport.NewResilientCaller(transport.NewTCPClient(0), rc)
	c, err := core.NewCluster(cfg, caller, groups)
	if err != nil {
		return nil, nil, err
	}
	return c, caller, nil
}

// SaveManifest persists coordinator state (config, topology, hash tree,
// sequence catalog) so a later process can resume querying nodes that still
// hold their data — the paper's "save pre-indexed data" extension.
func SaveManifest(c *Cluster, w io.Writer) error { return c.SaveManifest(w) }

// LoadManifestTCP restores a coordinator from a manifest, talking to its
// nodes over TCP with the default resilience policy.
func LoadManifestTCP(r io.Reader) (*Cluster, error) {
	c, _, err := LoadManifestTCPResilient(r, DefaultResilienceConfig())
	return c, err
}

// LoadManifestTCPResilient is LoadManifestTCP with an explicit resilience
// policy; the returned ResilientCaller exposes Stats() for observability.
func LoadManifestTCPResilient(r io.Reader, rc ResilienceConfig) (*Cluster, *ResilientCaller, error) {
	caller := transport.NewResilientCaller(transport.NewTCPClient(0), rc)
	c, err := core.LoadManifest(r, caller)
	if err != nil {
		return nil, nil, err
	}
	return c, caller, nil
}
