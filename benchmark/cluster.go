package main

import (
	"context"
	"fmt"
	"strconv"
	"time"

	"mendel"
)

// localCluster is a Mendel deployment inside the harness process: real
// NodeServers on TCP loopback and a coordinator built with the base-rung
// constructors, so every RPC crosses the codec and a socket.
type localCluster struct {
	nodes   []*mendel.NodeServer
	groups  [][]string
	cluster *mendel.Cluster
}

// observers are Mendel's own sinks, attached only in the traced pass: a
// registry for the coordinator, one shared by the nodes (so coordinator
// counters are the coordinator's traffic alone) and a tracer for both, the
// way the shipped binaries observe themselves.
type observers struct {
	coord, nodes *mendel.MetricsRegistry
	tracer       *mendel.QueryTracer
}

// startCluster listens sc.Nodes nodes and builds a coordinator over them,
// nodes dealt round-robin into sc.Groups groups as `mendel index` does.
// A nil obs attaches nothing anywhere.
func startCluster(sc *scenario, obs *observers) (*localCluster, error) {
	lc := &localCluster{groups: make([][]string, sc.Groups)}
	for i := 0; i < sc.Nodes; i++ {
		n, err := mendel.ServeNode("127.0.0.1:" + strconv.Itoa(basePort+i))
		if err != nil {
			// Keep going on a busy port rather than fail the run, but say
			// that this run's layout is not the reproducible one.
			fmt.Printf("# WARNING: port %d busy (%v); block placement and exact counts differ from other runs of this seed\n", basePort+i, err)
			n, err = mendel.ServeNode("127.0.0.1:0")
		}
		if err != nil {
			lc.close()
			return nil, fmt.Errorf("starting node %d: %w", i, err)
		}
		if obs != nil {
			n.Observe(obs.nodes, obs.tracer)
		}
		lc.nodes = append(lc.nodes, n)
		lc.groups[i%sc.Groups] = append(lc.groups[i%sc.Groups], n.Addr())
	}
	cfg := mendel.DefaultConfig(mendel.Protein)
	cfg.Groups = sc.Groups
	c, err := mendel.NewTCPCluster(cfg, lc.groups)
	if err != nil {
		lc.close()
		return nil, err
	}
	// The sketch prefilter the shipped CLIs consult by default; a bare
	// NewTCPCluster leaves it off.
	c.SetPrefilterMode(mendel.PrefilterBloom)
	if obs != nil {
		c.SetObservability(obs.coord, obs.tracer)
	}
	lc.cluster = c
	return lc, nil
}

func (lc *localCluster) close() {
	for _, n := range lc.nodes {
		n.Close()
	}
	lc.nodes = nil
}

// placedBlocks sums the blocks every node reports holding.
func (lc *localCluster) placedBlocks(ctx context.Context) (int, error) {
	stats, err := lc.cluster.Stats(ctx)
	if err != nil {
		return 0, err
	}
	if len(stats) != len(lc.nodes) {
		return 0, fmt.Errorf("stats from %d of %d nodes", len(stats), len(lc.nodes))
	}
	total := 0
	for _, s := range stats {
		total += s.Blocks
	}
	return total, nil
}

// indexed is one fresh cluster with the scenario's database indexed into it.
type indexed struct {
	lc         *localCluster
	wall       time.Duration // node start + Index + placement check
	index      time.Duration // Cluster.Index alone
	indexCPU   time.Duration // CPU this process spent during Index
	indexBytes int64         // live heap held by the indexed cluster
}

// indexFresh starts a cluster and indexes the scenario's database into it,
// checking that Index placed exactly the blocks the database fragments
// into. The harness's own heap readings are not counted in wall.
func indexFresh(ctx context.Context, sc *scenario, obs *observers) (*indexed, error) {
	heapBefore := liveHeap()
	start := time.Now()
	lc, err := startCluster(sc, obs)
	if err != nil {
		return nil, err
	}
	cpu0, t0 := selfCPU(), time.Now()
	if err := lc.cluster.Index(ctx, sc.DB); err != nil {
		lc.close()
		return nil, fmt.Errorf("index: %w", err)
	}
	res := &indexed{lc: lc, index: time.Since(t0), indexCPU: selfCPU() - cpu0}
	placed, err := lc.placedBlocks(ctx)
	if err == nil && placed != sc.Blocks {
		err = fmt.Errorf("index placed %d blocks, database fragments into %d", placed, sc.Blocks)
	}
	if err != nil {
		lc.close()
		return nil, err
	}
	res.wall = time.Since(start)
	res.indexBytes = int64(liveHeap()) - int64(heapBefore)
	return res, nil
}

// setupLocal is everything an in-process workload does before its warm-up:
// generate the scenario from the seed, start a cluster, index the database.
// It returns the time that took.
func setupLocal(ctx context.Context, name string, seed int64, obs *observers) (*scenario, *indexed, time.Duration, error) {
	start := time.Now()
	sc, err := buildScenario(name, seed)
	if err != nil {
		return nil, nil, 0, err
	}
	gen := time.Since(start)
	res, err := indexFresh(ctx, sc, obs)
	if err != nil {
		return nil, nil, 0, err
	}
	return sc, res, gen + res.wall, nil
}
