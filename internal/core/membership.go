package core

import (
	"context"
	"errors"
	"fmt"

	"mendel/internal/dht"
	"mendel/internal/transport"
	"mendel/internal/wire"
)

// AddNode joins a fresh storage node to group g at runtime — the
// incremental scalability the DHT design targets (§I: "commodity hardware
// can be added incrementally"). The new node is bootstrapped with the
// current shared state and every existing node learns the new topology.
//
// Existing data does not move: the per-group consistent ring only steers
// future block placements toward the new node, and queries remain correct
// because group fan-out reaches every member. Sequence-repository reads
// tolerate the remapping by probing a couple of ring successors past the
// configured replica set (see fetchRegion).
func (c *Cluster) AddNode(ctx context.Context, g int, addr string) error {
	c.mu.Lock()
	if c.hashTree == nil {
		c.mu.Unlock()
		return ErrNotIndexed
	}
	if g < 0 || g >= len(c.groups) {
		c.mu.Unlock()
		return fmt.Errorf("core: group %d out of range", g)
	}
	enc, err := c.hashTree.MarshalBinary()
	if err != nil {
		c.mu.Unlock()
		return err
	}
	newGroups := make([][]string, len(c.groups))
	for i, members := range c.groups {
		newGroups[i] = append([]string(nil), members...)
	}
	newGroups[g] = append(newGroups[g], addr)
	c.mu.Unlock()
	// Build the successor topology up front: it validates the join (duplicate
	// addresses, empty groups) before any node is contacted, and the swap
	// below publishes it atomically — concurrent searches keep reading the
	// old immutable topology until the new one is committed, so a membership
	// change never races an in-flight fan-out.
	newTopo, err := dht.NewTopology(newGroups, 0)
	if err != nil {
		return err
	}

	boot := wire.Bootstrap{
		HashTree: enc,
		Metric:   c.met.Name(),
		BlockLen: c.cfg.BlockLen,
		Margin:   c.cfg.Margin,
		Groups:   newGroups,
		Kind:     c.cfg.Kind,
	}
	if _, err := c.caller.Call(ctx, addr, boot); err != nil {
		return fmt.Errorf("core: bootstrapping new node %s: %w", addr, err)
	}

	// Commit locally, then inform the rest of the cluster.
	c.mu.Lock()
	c.topo = newTopo
	c.groups = newGroups
	c.seqRing.Add(addr)
	c.mu.Unlock()
	// Nodes that are down right now miss the update; a HealthMonitor re-pushes
	// the current topology (or re-bootstraps a node that restarted empty) as
	// part of the recovery sequence when they return.
	_, err = c.broadcastTopology(ctx, addr)
	return err
}

// RemoveNode gracefully removes a node from the cluster. Blocks and
// sequence shards held only by that node become unavailable unless the
// cluster was configured with Replicas >= 2, in which case queries keep
// full recall from the surviving copies.
func (c *Cluster) RemoveNode(ctx context.Context, addr string) error {
	g, ok := c.topology().GroupOf(addr)
	if !ok {
		return fmt.Errorf("core: unknown node %q", addr)
	}
	c.mu.RLock()
	newGroups := make([][]string, len(c.groups))
	for i, members := range c.groups {
		for _, m := range members {
			if m != addr {
				newGroups[i] = append(newGroups[i], m)
			}
		}
	}
	c.mu.RUnlock()
	if len(newGroups[g]) == 0 {
		return fmt.Errorf("core: node %q is the last member of group %d", addr, g)
	}
	// Same copy-on-write commit as AddNode: concurrent searches see either
	// the old or the new topology, never a half-mutated one.
	newTopo, err := dht.NewTopology(newGroups, 0)
	if err != nil {
		return err
	}
	c.mu.Lock()
	c.topo = newTopo
	c.groups = newGroups
	c.seqRing.Remove(addr)
	c.mu.Unlock()
	// The removed node itself is typically the unreachable one; a dead
	// node must not block its own removal.
	_, err = c.broadcastTopology(ctx, "")
	return err
}

// broadcastTopology sends the current group lists to every node except
// skip (which already has them from its Bootstrap). Individual unreachable
// nodes do not fail the broadcast — a membership change must not be blocked
// by the very failures it often reacts to — and are returned as missed so
// callers can report them; a node that answers with an application error
// does fail it.
func (c *Cluster) broadcastTopology(ctx context.Context, skip string) (missed []string, err error) {
	c.mu.RLock()
	groups := c.groups
	topo := c.topo
	c.mu.RUnlock()
	var targets []string
	for _, n := range topo.AllNodes() {
		if n != skip {
			targets = append(targets, n)
		}
	}
	_, errs := transport.BroadcastAll(ctx, c.caller, targets, wire.UpdateTopology{Groups: groups})
	for i, e := range errs {
		if e == nil {
			continue
		}
		if errors.Is(e, transport.ErrUnreachable) {
			missed = append(missed, targets[i])
			continue
		}
		return missed, fmt.Errorf("core: topology broadcast to %s: %w", targets[i], e)
	}
	return missed, nil
}
