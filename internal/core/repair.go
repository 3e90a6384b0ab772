package core

import (
	"context"
	"fmt"
	"maps"
	"slices"
	"sort"
	"time"

	"mendel/internal/invindex"
	"mendel/internal/obs"
	"mendel/internal/seq"
	"mendel/internal/transport"
	"mendel/internal/wire"
)

// RepairReport summarizes one anti-entropy pass.
type RepairReport struct {
	// Groups lists the group IDs the pass covered.
	Groups []int
	// BlocksMoved is the number of blocks re-replicated onto nodes that
	// were missing them.
	BlocksMoved int
	// SequencesMoved is the number of sequence-repository shards
	// re-replicated.
	SequencesMoved int
	// Unrepairable counts sequence-repository shards that no reachable node
	// holds. Blocks with no reachable holder are in no manifest, so a pass
	// cannot restore them: BlocksLost counts those it can tell are gone.
	Unrepairable int
	// BlocksLost counts the blocks Index placed in a covered group that no
	// member's manifest lists, summed over the groups whose every member
	// answered the sweep (in a group with a member down, the missing blocks
	// may be on it). It is a count per group, not per block: a group's
	// members holding refs Index did not count would offset lost ones, so
	// the count is dropped, and BlocksLost stays zero, once it may miss
	// refs (an Index that failed while shipping, or a cluster restored from
	// a manifest that did not keep it). Blocks parked as hints for a member
	// that is back but not yet replayed count as lost until the replay.
	BlocksLost int
	// PushErrors counts transfers that failed; the next pass retries them.
	PushErrors int
	// Unreachable lists nodes that could not contribute a manifest.
	Unreachable []string
	// Duration is the wall-clock time of the pass.
	Duration time.Duration
}

// String renders a compact single-line summary.
func (r *RepairReport) String() string {
	return fmt.Sprintf("groups=%v blocks-moved=%d seqs-moved=%d unrepairable=%d blocks-lost=%d push-errors=%d unreachable=%d in %v",
		r.Groups, r.BlocksMoved, r.SequencesMoved, r.Unrepairable, r.BlocksLost, r.PushErrors, len(r.Unreachable), r.Duration)
}

// Repair runs a full anti-entropy pass over the cluster (the Cassandra-style
// complement to hinted handoff, which only covers failures the coordinator
// witnessed): every reachable node reports a manifest of its block and
// sequence inventory, the coordinator diffs each group's inventory against
// the replica placement the DHT prescribes, and surviving replicas push the
// missing copies directly to the nodes that should hold them — through the
// staged IndexBlocks/BuildIndex path, so repaired indexes grow in
// deterministic bulk appends. Block contents never pass through the
// coordinator: placement is a function of the block reference
// (dht.Topology.Place), so manifests carry references only.
func (c *Cluster) Repair(ctx context.Context) (*RepairReport, error) {
	groups := make([]int, c.topology().Groups())
	for i := range groups {
		groups[i] = i
	}
	return c.repairGroups(ctx, groups, true)
}

// repairGroups repairs the block inventory of the given groups; withSeqs
// additionally repairs the sequence repository (a ring over all nodes, so it
// is only meaningful on full passes). Scoped read-repairs pass one group.
func (c *Cluster) repairGroups(ctx context.Context, groups []int, withSeqs bool) (*RepairReport, error) {
	if !c.indexed() {
		return nil, ErrNotIndexed
	}
	start := time.Now()
	var sp *obs.Span
	if c.tracer != nil {
		sp = c.tracer.StartTrace("repair", obs.NewTraceContext())
		defer sp.End()
	}
	rep := &RepairReport{Groups: append([]int(nil), groups...)}

	// Phase 1: manifest sweep. A node that answers with an application
	// error (e.g. not bootstrapped yet) holds nothing usable, so it counts
	// as unreachable for planning purposes.
	nodes := c.topology().AllNodes()
	resps, errs := transport.BroadcastAll(ctx, c.caller, nodes, wire.BlockManifest{})
	manifests := make(map[string]wire.BlockManifestResult, len(nodes))
	for i, addr := range nodes {
		if errs[i] != nil {
			rep.Unreachable = append(rep.Unreachable, addr)
			continue
		}
		man, ok := resps[i].(wire.BlockManifestResult)
		if !ok {
			return nil, fmt.Errorf("core: manifest from %s: malformed reply %T", addr, resps[i])
		}
		manifests[addr] = man
	}
	if len(manifests) == 0 {
		return nil, fmt.Errorf("core: repair: no node answered the manifest sweep")
	}

	// Phase 2: per-group diff and block transfer plan. A block held in group
	// g belongs on g's Place replicas of its reference. A group whose every
	// member answered holds the blocks Index placed in it that no manifest
	// lists nowhere.
	topo := c.topology()
	replicas := c.cfg.replicas()
	c.mu.RLock()
	placed := maps.Clone(c.groupBlocks)
	c.mu.RUnlock()
	plan := make(map[[2]string][]uint64) // {source, target} -> refs
	targets := make(map[string]bool)
	for _, g := range groups {
		holders := make(map[uint64][]string) // ref -> nodes holding it
		whole := true
		for _, m := range topo.GroupNodes(g) {
			man, ok := manifests[m]
			whole = whole && ok
			for _, ref := range man.Refs {
				holders[ref] = append(holders[ref], m)
			}
		}
		if whole && placed != nil {
			rep.BlocksLost += max(placed[g]-len(holders), 0)
		}
		for ref, hs := range holders {
			id, start := invindex.UnpackRef(ref)
			for _, d := range topo.Place(g, id, start, replicas) {
				if _, live := manifests[d]; !live {
					continue // down: a later pass covers it
				}
				if slices.Contains(hs, d) {
					continue
				}
				// Manifest holders are alive by construction; pick the
				// smallest address for a deterministic plan.
				src := slices.Min(hs)
				plan[[2]string{src, d}] = append(plan[[2]string{src, d}], ref)
				targets[d] = true
			}
		}
	}

	// Phase 3: execute transfers source -> target, in deterministic order.
	pairs := make([][2]string, 0, len(plan))
	for p := range plan {
		pairs = append(pairs, p)
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i][0] != pairs[j][0] {
			return pairs[i][0] < pairs[j][0]
		}
		return pairs[i][1] < pairs[j][1]
	})
	for _, p := range pairs {
		refs := plan[p]
		sort.Slice(refs, func(i, j int) bool { return refs[i] < refs[j] })
		for s := 0; s < len(refs); s += indexBatchBlocks {
			e := s + indexBatchBlocks
			if e > len(refs) {
				e = len(refs)
			}
			resp, err := c.caller.Call(ctx, p[0], wire.PushBlocks{Target: p[1], Refs: refs[s:e]})
			if err != nil {
				rep.PushErrors++
				continue
			}
			if ack, ok := resp.(wire.PushBlocksAck); ok {
				rep.BlocksMoved += ack.Pushed
			}
		}
	}

	// Phase 4: add the pushed blocks to the targets' indexes.
	if len(targets) > 0 {
		built := make([]string, 0, len(targets))
		for t := range targets {
			built = append(built, t)
		}
		sort.Strings(built)
		_, berrs := transport.BroadcastAll(ctx, c.caller, built, wire.BuildIndex{})
		for _, e := range berrs {
			if e != nil {
				rep.PushErrors++
			}
		}
	}

	// Phase 5: sequence-repository repair, diffing each sequence's ring
	// replica set against the manifests' shard inventories.
	if withSeqs {
		c.repairSequences(ctx, manifests, rep)
	}

	// Phase 6: repair moved blocks between nodes, so re-pull the group
	// sketches — a repaired node rebuilds its sketch incrementally on the
	// same staged IndexBlocks path the transfers used, and the prefilter's
	// view must match the repaired placement before it may skip again.
	c.refreshSketches(ctx)

	rep.Duration = time.Since(start)
	c.reg.Counter("repair_runs").Inc()
	c.reg.Counter("repair_blocks_moved").Add(int64(rep.BlocksMoved))
	c.reg.Counter("repair_seqs_moved").Add(int64(rep.SequencesMoved))
	c.reg.Histogram("repair_ns").Observe(rep.Duration.Nanoseconds())
	sp.SetAttr("groups", int64(len(groups)))
	sp.SetAttr("blocks_moved", int64(rep.BlocksMoved))
	sp.SetAttr("seqs_moved", int64(rep.SequencesMoved))
	sp.SetAttr("push_errors", int64(rep.PushErrors))
	return rep, nil
}

// repairSequences restores the replication factor of the distributed
// sequence repository: for every indexed sequence, the ring's replica set is
// compared against who actually holds a shard, and a surviving holder
// forwards the shard to each live node that is missing it.
func (c *Cluster) repairSequences(ctx context.Context, manifests map[string]wire.BlockManifestResult, rep *RepairReport) {
	holders := make(map[seq.ID][]string)
	for addr, man := range manifests {
		for _, id := range man.Seqs {
			holders[id] = append(holders[id], addr)
		}
	}
	c.mu.RLock()
	ids := make([]seq.ID, 0, len(c.names))
	for id := range c.names {
		ids = append(ids, id)
	}
	replicas := c.cfg.replicas()
	desired := make(map[seq.ID][]string, len(ids))
	for _, id := range ids {
		desired[id] = c.seqRing.LookupN(seqKey(id), replicas)
	}
	c.mu.RUnlock()

	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	plan := make(map[[2]string][]seq.ID)
	for _, id := range ids {
		hs := holders[id]
		if len(hs) == 0 {
			rep.Unrepairable++
			continue
		}
		src := hs[0]
		for _, h := range hs[1:] {
			if h < src {
				src = h
			}
		}
		for _, d := range desired[id] {
			if _, live := manifests[d]; !live {
				continue
			}
			held := false
			for _, h := range hs {
				if h == d {
					held = true
					break
				}
			}
			if !held {
				plan[[2]string{src, d}] = append(plan[[2]string{src, d}], id)
			}
		}
	}
	pairs := make([][2]string, 0, len(plan))
	for p := range plan {
		pairs = append(pairs, p)
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i][0] != pairs[j][0] {
			return pairs[i][0] < pairs[j][0]
		}
		return pairs[i][1] < pairs[j][1]
	})
	for _, p := range pairs {
		resp, err := c.caller.Call(ctx, p[0], wire.PushSequences{Target: p[1], IDs: plan[p]})
		if err != nil {
			rep.PushErrors++
			continue
		}
		if ack, ok := resp.(wire.PushSequencesAck); ok {
			rep.SequencesMoved += ack.Pushed
		}
	}
}
