package node

import (
	"context"
	"fmt"
	"sort"

	"mendel/internal/seq"
	"mendel/internal/wire"
)

// pushBatchBlocks bounds each node-to-node IndexBlocks transfer issued while
// answering a PushBlocks request, mirroring the coordinator's ingest batch
// size so repair traffic follows the same staged bulk-build path.
const pushBatchBlocks = 4096

// blockManifest answers wire.BlockManifest with this node's inventory:
// every stored block's packed reference, plus the IDs of the sequence shards
// held. Refs are sorted so manifests are deterministic regardless of ingest
// order.
func (n *Node) blockManifest() (any, error) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	if !n.booted {
		return nil, fmt.Errorf("node %s: not bootstrapped", n.addr)
	}
	return wire.BlockManifestResult{Node: n.addr, Refs: n.blocks.refs(), Seqs: n.seqIDs()}, nil
}

// seqIDs returns the IDs of the sequence shards held, ascending.
func (n *Node) seqIDs() []seq.ID {
	ids := make([]seq.ID, 0, len(n.seqs))
	for id := range n.seqs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// pushBlocks re-replicates the requested blocks to another node via the
// staged IndexBlocks path. The caller (the coordinator's repair pass) must
// follow up with a BuildIndex at the target to add the staged blocks to
// its screen. Refs the node no longer holds are counted, not fatal: the
// manifest the plan was built from may predate a concurrent change.
func (n *Node) pushBlocks(ctx context.Context, r wire.PushBlocks) (any, error) {
	n.mu.RLock()
	if !n.booted {
		n.mu.RUnlock()
		return nil, fmt.Errorf("node %s: not bootstrapped", n.addr)
	}
	blocks := make([]wire.Block, 0, len(r.Refs))
	missing := 0
	for _, ref := range r.Refs {
		b, ok := n.blocks.get(ref)
		if !ok {
			missing++
			continue
		}
		blocks = append(blocks, b)
	}
	n.mu.RUnlock()

	pushed := 0
	for start := 0; start < len(blocks); start += pushBatchBlocks {
		end := start + pushBatchBlocks
		if end > len(blocks) {
			end = len(blocks)
		}
		resp, err := n.caller.Call(ctx, r.Target, wire.IndexBlocks{Blocks: blocks[start:end], Stage: true})
		if err != nil {
			return nil, fmt.Errorf("node %s: pushing %d blocks to %s: %w", n.addr, end-start, r.Target, err)
		}
		if ack, ok := resp.(wire.IndexBlocksAck); ok {
			pushed += ack.Accepted
		}
	}
	n.reg.Counter("node_blocks_pushed").Add(int64(pushed))
	return wire.PushBlocksAck{Pushed: pushed, Missing: missing}, nil
}

// pushSequences forwards full sequence-repository shards to another node,
// the sequence counterpart of pushBlocks.
func (n *Node) pushSequences(ctx context.Context, r wire.PushSequences) (any, error) {
	n.mu.RLock()
	if !n.booted {
		n.mu.RUnlock()
		return nil, fmt.Errorf("node %s: not bootstrapped", n.addr)
	}
	msg := wire.StoreSequences{}
	missing := 0
	for _, id := range r.IDs {
		s, ok := n.seqs[id]
		if !ok {
			missing++
			continue
		}
		msg.IDs = append(msg.IDs, id)
		msg.Names = append(msg.Names, s.name)
		msg.Data = append(msg.Data, s.data)
	}
	n.mu.RUnlock()

	if len(msg.IDs) > 0 {
		if _, err := n.caller.Call(ctx, r.Target, msg); err != nil {
			return nil, fmt.Errorf("node %s: pushing %d sequences to %s: %w", n.addr, len(msg.IDs), r.Target, err)
		}
	}
	n.reg.Counter("node_seqs_pushed").Add(int64(len(msg.IDs)))
	return wire.PushSequencesAck{Pushed: len(msg.IDs), Missing: missing}, nil
}

// HealthInfo is a node-local health summary, served by cmd/mendel-node at
// /debug/health. Unlike the coordinator's cluster view it covers only this
// process.
type HealthInfo struct {
	Addr   string `json:"addr"`
	Booted bool   `json:"booted"`
	Blocks int    `json:"blocks"`
	// BlockBytes is the memory the block store holds for Blocks: context
	// chunks plus 16 bytes of directory per block, computed from the layout.
	BlockBytes int `json:"block_bytes"`
	Sequences  int `json:"sequences"`
	TreeSize   int `json:"tree_size"` // keys in the screen
	Staged     int `json:"staged"`
}

// Health reports the node's local health summary.
func (n *Node) Health() HealthInfo {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return HealthInfo{
		Addr:       n.addr,
		Booted:     n.booted,
		Blocks:     n.blocks.len(),
		BlockBytes: n.blocks.bytes(),
		Sequences:  len(n.seqs),
		TreeSize:   n.screen.len(),
		Staged:     len(n.staged),
	}
}
