package core

import (
	"fmt"

	"mendel/internal/dht"
	"mendel/internal/node"
	"mendel/internal/obs"
	"mendel/internal/transport"
)

// InProcess is a complete Mendel cluster running inside one process: one
// storage node per group member wired through an in-memory network. It
// substitutes for the paper's 50-node LAN testbed — all hashing, routing,
// fan-out and aggregation code paths are identical; only the wire is local.
type InProcess struct {
	*Cluster
	Net   *transport.MemNetwork
	Nodes []*node.Node
	// Resilient is the coordinator's resilient caller when the cluster was
	// built with NewInProcessResilient, nil otherwise.
	Resilient *transport.ResilientCaller
}

// NewInProcess assembles numNodes storage nodes split round-robin into
// cfg.Groups groups on a fresh in-memory network.
func NewInProcess(cfg Config, numNodes int, opts ...transport.MemOption) (*InProcess, error) {
	return newInProcess(cfg, numNodes, nil, opts...)
}

// NewInProcessResilient is NewInProcess with every caller — the
// coordinator's and each node's group fan-out caller — wrapped in a
// ResilientCaller, for chaos tests and flaky-network experiments.
func NewInProcessResilient(cfg Config, numNodes int, rc transport.ResilientConfig, opts ...transport.MemOption) (*InProcess, error) {
	return newInProcess(cfg, numNodes, &rc, opts...)
}

func newInProcess(cfg Config, numNodes int, rc *transport.ResilientConfig, opts ...transport.MemOption) (*InProcess, error) {
	if numNodes < cfg.Groups {
		return nil, fmt.Errorf("core: %d nodes cannot fill %d groups", numNodes, cfg.Groups)
	}
	net := transport.NewMemNetwork(opts...)
	addrs := make([]string, numNodes)
	nodes := make([]*node.Node, numNodes)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("node-%03d", i)
		// Nodes call through a bound view of the network so partition
		// chaos can tell who is calling whom.
		var caller transport.Caller = net.Bind(addrs[i])
		if rc != nil {
			caller = transport.NewResilientCaller(caller, *rc)
		}
		nodes[i] = node.New(addrs[i], caller)
		net.Register(addrs[i], nodes[i])
	}
	groups, err := dht.SplitNodes(addrs, cfg.Groups)
	if err != nil {
		return nil, err
	}
	var coordCaller transport.Caller = net
	var resilient *transport.ResilientCaller
	if rc != nil {
		resilient = transport.NewResilientCaller(net, *rc)
		coordCaller = resilient
	}
	cluster, err := NewCluster(cfg, coordCaller, groups)
	if err != nil {
		return nil, err
	}
	return &InProcess{Cluster: cluster, Net: net, Nodes: nodes, Resilient: resilient}, nil
}

// Observe attaches one registry/tracer pair to the coordinator and to every
// storage node in the cluster. Because everything runs in one process, the
// nodes' lookup and extension metrics land in the same registry as the
// coordinator's query histograms, and node-side group_search span trees
// interleave with the coordinator's search spans. Either argument may be
// nil. If the cluster was built resilient, the coordinator's circuit-breaker
// counters are exported too.
func (p *InProcess) Observe(reg *obs.Registry, tracer *obs.Tracer) {
	p.Cluster.SetObservability(reg, tracer)
	for _, n := range p.Nodes {
		n.Observe(reg, tracer)
	}
	if p.Resilient != nil {
		p.Resilient.Register(reg)
	}
}
