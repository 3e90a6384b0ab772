package core

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"mendel/internal/obs"
	"mendel/internal/transport"
	"mendel/internal/wire"
)

// Health states of a node, as judged by the coordinator's monitor. A single
// failed probe makes a node suspect (it may merely be slow or the network
// flaky); HealthConfig.DownAfter consecutive failures make it down. Any
// successful probe returns it to up — after the recovery sequence (topology
// re-push or re-bootstrap, hint replay, index build) has completed.
const (
	HealthUp      = "up"
	HealthSuspect = "suspect"
	HealthDown    = "down"
)

// NodeHealth is one node's entry in the cluster health view served at
// /debug/health.
type NodeHealth struct {
	Addr  string `json:"addr"`
	Group int    `json:"group"`
	State string `json:"state"`
	// Booted is the node's own report from its last successful probe: false
	// means the process answers but lost its bootstrapped state (a restart).
	Booted bool `json:"booted"`
	// Fails counts consecutive failed probes (0 when up).
	Fails int `json:"fails,omitempty"`
	// BreakerOpen reports an open or half-open circuit breaker for the
	// address in the attached ResilientCaller, an early suspicion signal
	// between probe sweeps.
	BreakerOpen bool `json:"breaker_open,omitempty"`
	// LastSeen is the time of the last successful probe (zero before one).
	LastSeen time.Time `json:"last_seen,omitempty"`
	// HintsPending counts hinted-handoff items parked for this node.
	HintsPending int `json:"hints_pending,omitempty"`
}

// HealthConfig tunes a HealthMonitor.
type HealthConfig struct {
	// Interval is the base delay between probe sweeps.
	Interval time.Duration
	// Jitter is the uniform extra delay added to each sweep, decorrelating
	// monitors that watch overlapping clusters.
	Jitter time.Duration
	// DownAfter is the number of consecutive failed probes after which a
	// suspect node is declared down. Minimum 1.
	DownAfter int
}

// DefaultHealthConfig returns the defaults the CLIs use: probe every two
// seconds with half a second of jitter, declare down after two misses.
func DefaultHealthConfig() HealthConfig {
	return HealthConfig{Interval: 2 * time.Second, Jitter: 500 * time.Millisecond, DownAfter: 2}
}

// BreakerStateSource supplies per-address circuit-breaker states
// ("closed"/"open"/"half-open"); *transport.ResilientCaller implements it.
type BreakerStateSource interface {
	BreakerStates() map[string]string
}

// nodeHealth is the monitor's mutable per-node record.
type nodeHealth struct {
	state    string
	booted   bool
	fails    int
	lastSeen time.Time
}

// HealthMonitor is the coordinator's failure detector and repair driver: it
// probes every node with wire.Ping on a jittered interval, tracks per-node
// up/suspect/down state (folding in circuit-breaker evidence from a
// ResilientCaller when attached), and — on seeing a node return — runs the
// recovery sequence: re-push the current topology (or re-bootstrap a node
// that restarted empty), replay parked hinted-handoff writes, and rebuild
// the node's index. Each sweep also drains the read-repair schedule that
// partial queries feed.
type HealthMonitor struct {
	c        *Cluster
	cfg      HealthConfig
	breakers BreakerStateSource

	// now and rng are injectable for deterministic tests; Run's pacing uses
	// real timers either way (tests drive ProbeOnce directly).
	now func() time.Time
	rng *rand.Rand

	mu    sync.Mutex
	nodes map[string]*nodeHealth
}

// NewHealthMonitor creates a monitor for the cluster. Zero-value config
// fields fall back to DefaultHealthConfig. The monitor starts passive;
// drive it with Run (background loop) or ProbeOnce (one synchronous sweep).
func NewHealthMonitor(c *Cluster, cfg HealthConfig) *HealthMonitor {
	def := DefaultHealthConfig()
	if cfg.Interval <= 0 {
		cfg.Interval = def.Interval
	}
	if cfg.Jitter < 0 {
		cfg.Jitter = def.Jitter
	}
	if cfg.DownAfter < 1 {
		cfg.DownAfter = def.DownAfter
	}
	return &HealthMonitor{
		c:     c,
		cfg:   cfg,
		now:   time.Now,
		rng:   rand.New(rand.NewSource(c.cfg.Seed)),
		nodes: make(map[string]*nodeHealth),
	}
}

// ObserveBreakers folds a resilient caller's per-address circuit-breaker
// states into the health view: an open breaker marks an otherwise-up node
// suspect between probe sweeps.
func (hm *HealthMonitor) ObserveBreakers(b BreakerStateSource) { hm.breakers = b }

// Run probes the cluster until ctx is cancelled, sleeping Interval plus a
// uniform jitter in [0, Jitter) between sweeps.
func (hm *HealthMonitor) Run(ctx context.Context) {
	for {
		hm.ProbeOnce(ctx)
		delay := hm.cfg.Interval
		if hm.cfg.Jitter > 0 {
			hm.mu.Lock()
			delay += time.Duration(hm.rng.Int63n(int64(hm.cfg.Jitter)))
			hm.mu.Unlock()
		}
		select {
		case <-time.After(delay):
		case <-ctx.Done():
			return
		}
	}
}

// ProbeOnce runs one synchronous probe sweep: ping every node, update the
// health view, run the recovery sequence for nodes that returned, and drain
// the read-repair schedule for groups that have live members again. Tests
// and `mendel repair` call it directly for deterministic behaviour.
func (hm *HealthMonitor) ProbeOnce(ctx context.Context) {
	nodes := hm.c.topology().AllNodes()
	resps, errs := transport.BroadcastAll(ctx, hm.c.caller, nodes, wire.Ping{})
	for i, addr := range nodes {
		if errs[i] != nil {
			hm.markFailed(addr)
			continue
		}
		pong, _ := resps[i].(wire.Pong)
		hm.markAlive(ctx, addr, pong.Booted)
	}
	hm.drainReadRepairs(ctx)
}

// markFailed records a failed probe, moving the node to suspect and then —
// after DownAfter consecutive misses — to down.
func (hm *HealthMonitor) markFailed(addr string) {
	hm.mu.Lock()
	st := hm.node(addr)
	st.fails++
	next := HealthSuspect
	if st.fails >= hm.cfg.DownAfter {
		next = HealthDown
	}
	changed := st.state != next
	st.state = next
	hm.mu.Unlock()
	if changed {
		hm.c.reg.Gauge("node_up." + addr).Set(0)
		if next == HealthDown {
			hm.c.reg.Counter("node_down_total").Inc()
		}
	}
}

// markAlive records a successful probe. A node coming back from down, one
// that restarted without its bootstrapped state, or one with parked hints
// first goes through the recovery sequence; only a fully recovered node is
// declared up again (a failed recovery leaves it down for the next sweep).
func (hm *HealthMonitor) markAlive(ctx context.Context, addr string, booted bool) {
	hm.mu.Lock()
	st := hm.node(addr)
	wasDown := st.state == HealthDown
	hm.mu.Unlock()

	indexed := hm.c.indexed()
	needsRecovery := wasDown || (indexed && !booted) || hm.c.hints.pendingFor(addr) > 0
	if needsRecovery {
		if err := hm.c.recoverNode(ctx, addr, booted); err != nil {
			// The node answered the ping but recovery did not complete;
			// treat it as a failed probe so the next sweep retries.
			hm.markFailed(addr)
			return
		}
		hm.c.reg.Counter("node_recoveries").Inc()
	}

	hm.mu.Lock()
	st = hm.node(addr)
	changed := st.state != HealthUp
	st.state = HealthUp
	st.fails = 0
	st.booted = true
	st.lastSeen = hm.now()
	hm.mu.Unlock()
	if changed {
		hm.c.reg.Gauge("node_up." + addr).Set(1)
	}
}

// node returns addr's record, creating it as up. Callers hold hm.mu.
func (hm *HealthMonitor) node(addr string) *nodeHealth {
	st := hm.nodes[addr]
	if st == nil {
		st = &nodeHealth{state: HealthUp, booted: true}
		hm.nodes[addr] = st
	}
	return st
}

// drainReadRepairs runs scoped repairs for the groups partial queries
// flagged, skipping (and re-scheduling) groups that still have no live
// member.
func (hm *HealthMonitor) drainReadRepairs(ctx context.Context) {
	groups := hm.c.takePendingRepairGroups()
	if len(groups) == 0 {
		return
	}
	var ready, blocked []int
	for _, g := range groups {
		if hm.groupHasLiveMember(g) {
			ready = append(ready, g)
		} else {
			blocked = append(blocked, g)
		}
	}
	if len(blocked) > 0 {
		hm.c.noteFailedGroups(blocked)
	}
	if len(ready) == 0 {
		return
	}
	if _, err := hm.c.repairGroups(ctx, ready, false); err != nil {
		// Repair could not complete (e.g. manifests unavailable); keep the
		// groups scheduled so a later sweep retries.
		hm.c.noteFailedGroups(ready)
		return
	}
	hm.c.reg.Counter("read_repair_runs").Inc()
}

// groupHasLiveMember reports whether any member of group g is currently
// considered up by the monitor.
func (hm *HealthMonitor) groupHasLiveMember(g int) bool {
	hm.mu.Lock()
	defer hm.mu.Unlock()
	for _, m := range hm.c.topology().GroupNodes(g) {
		st := hm.nodes[m]
		if st == nil || st.state == HealthUp {
			return true
		}
	}
	return false
}

// Snapshot returns the cluster health view, sorted by address. Nodes never
// probed report as up (the optimistic prior every distributed failure
// detector starts from); an open circuit breaker downgrades an up node to
// suspect.
func (hm *HealthMonitor) Snapshot() []NodeHealth {
	var breakers map[string]string
	if hm.breakers != nil {
		breakers = hm.breakers.BreakerStates()
	}
	nodes := hm.c.topology().AllNodes()
	hm.mu.Lock()
	out := make([]NodeHealth, 0, len(nodes))
	for _, addr := range nodes {
		g, _ := hm.c.topology().GroupOf(addr)
		nh := NodeHealth{Addr: addr, Group: g, State: HealthUp, Booted: true}
		if st := hm.nodes[addr]; st != nil {
			nh.State = st.state
			nh.Booted = st.booted
			nh.Fails = st.fails
			nh.LastSeen = st.lastSeen
		}
		if s := breakers[addr]; s == "open" || s == "half-open" {
			nh.BreakerOpen = true
			if nh.State == HealthUp {
				nh.State = HealthSuspect
			}
		}
		nh.HintsPending = hm.c.hints.pendingFor(addr)
		out = append(out, nh)
	}
	hm.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

// Source adapts the monitor to the obs HTTP surface, so a coordinator
// process can serve /debug/health:
//
//	obs.Surface{Registry: reg, Tracer: tracer, Health: monitor.Source()}.Serve(addr)
func (hm *HealthMonitor) Source() obs.HealthSource {
	return func() any { return hm.Snapshot() }
}

// indexed reports whether the cluster holds an indexed database yet.
func (c *Cluster) indexed() bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.hashTree != nil
}

// EmptyNodes pings every node and returns those that answer but hold no
// cluster state: processes restarted since the manifest was written. Unlike
// a health-monitor probe it recovers nothing; it exists to name the culprits
// when a write dies with a node's "not bootstrapped" reply.
func (c *Cluster) EmptyNodes(ctx context.Context) []string {
	nodes := c.topology().AllNodes()
	resps, _ := transport.BroadcastAll(ctx, c.caller, nodes, wire.Ping{})
	var empty []string
	for i, r := range resps {
		if pong, ok := r.(wire.Pong); ok && !pong.Booted {
			empty = append(empty, nodes[i])
		}
	}
	return empty
}

// recoverNode runs the recovery sequence for a node that answered a probe
// after being down, restarting, or accumulating hints:
//
//  1. a node that restarted empty (booted=false) is re-bootstrapped with
//     the current shared state; a booted node is re-pushed the current
//     topology, so membership changes it slept through take effect — the
//     fix for the AddNode/broadcastTopology gap;
//  2. parked hinted-handoff writes are replayed (staged blocks, then
//     sequence shards);
//  3. a BuildIndex folds everything staged — replayed hints and any blocks
//     staged before the crash — into the node's index.
//
// On error the taken hints are restored and the node stays down; the next
// sweep retries the whole sequence.
func (c *Cluster) recoverNode(ctx context.Context, addr string, booted bool) error {
	indexed := c.indexed()
	if !booted {
		if !indexed {
			return nil // nothing to restore on an unindexed cluster
		}
		boot, err := c.bootstrapMsg()
		if err != nil {
			return err
		}
		if _, err := c.caller.Call(ctx, addr, boot); err != nil {
			return fmt.Errorf("core: re-bootstrapping %s: %w", addr, err)
		}
	} else if _, err := c.caller.Call(ctx, addr, wire.UpdateTopology{Groups: c.groupsSnapshot()}); err != nil {
		// A node that rejects the topology it is named in is misconfigured;
		// an unreachable one simply waits for the next sweep.
		return fmt.Errorf("core: topology re-push to %s: %w", addr, err)
	}

	runs, seqs := c.hints.take(addr)
	if !booted || len(runs) > 0 {
		// The node's sketch changes outside a write: the next one must pull.
		defer c.invalidateSketches()
	}
	replay := func() error {
		for _, b := range wire.BatchRuns(runs, indexBatchBlocks) {
			if _, err := c.caller.Call(ctx, addr, wire.IndexBlocks{Runs: b, Stage: true}); err != nil {
				return fmt.Errorf("core: replaying %d hinted runs to %s: %w", len(b), addr, err)
			}
		}
		if seqs != nil && len(seqs.IDs) > 0 {
			if _, err := c.caller.Call(ctx, addr, *seqs); err != nil {
				return fmt.Errorf("core: replaying %d hinted sequences to %s: %w", len(seqs.IDs), addr, err)
			}
		}
		return nil
	}
	if err := replay(); err != nil {
		c.hints.restore(addr, runs, seqs)
		return err
	}
	c.reg.Counter("hints_replayed").Add(int64(runBlocks(runs)))
	if seqs != nil {
		c.reg.Counter("hints_replayed").Add(int64(len(seqs.IDs)))
	}

	if indexed {
		// The build must land: without it, blocks staged before the crash or
		// replayed above stay invisible to searches. Failure (even transport
		// failure) fails the recovery so the next sweep retries end to end.
		if _, err := c.caller.Call(ctx, addr, wire.BuildIndex{}); err != nil {
			return fmt.Errorf("core: rebuilding index on %s: %w", addr, err)
		}
	}
	return nil
}
