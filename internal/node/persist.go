package node

import (
	"cmp"
	"encoding/gob"
	"fmt"
	"io"
	"slices"

	"mendel/internal/seq"
	"mendel/internal/wire"
)

// snapshot is the gob wire form of a node's durable state: the bootstrap
// parameters plus every stored block and repository sequence. The screen is
// rebuilt on load from the stored blocks. Snapshots written while nodes
// took a search budget carry one more field, which gob skips.
type snapshot struct {
	Booted   bool
	Kind     seq.Kind
	Metric   string
	BlockLen int
	Margin   int
	Groups   [][]string
	HashTree []byte
	Blocks   []wire.Block
	SeqIDs   []seq.ID
	SeqNames []string
	SeqData  [][]byte
	// Sketch parameters (zero in snapshots written before the sketch
	// tier existed; the reloaded node then simply does not sketch). The
	// sketch itself is not serialized: LoadFrom re-derives it from the
	// stored blocks, which is deterministic and keeps the snapshot format
	// independent of the sketch encoding.
	SketchK         int
	SketchBloomBits int
	SketchMinHashK  int
}

// SaveTo writes the node's durable state. Together with the coordinator's
// manifest this makes a whole cluster restartable without re-ingestion —
// the paper's "save pre-indexed data" extension (§VII-B), node side.
func (n *Node) SaveTo(w io.Writer) error {
	n.mu.RLock()
	defer n.mu.RUnlock()
	snap := snapshot{
		Booted:   n.booted,
		Kind:     n.kind,
		BlockLen: n.blockLen,
		Margin:   n.margin,
	}
	if n.booted {
		snap.Metric = n.met.Name()
		groups := make([][]string, n.topo.Groups())
		for g := range groups {
			groups[g] = n.topo.GroupNodes(g)
		}
		snap.Groups = groups
		// The bootstrapped encoding, not a re-marshaled tree: vphash encodes
		// a Go map, so marshaling twice gives different bytes.
		snap.HashTree = n.hashTree
		// Blocks in ascending reference order and sequences in ascending
		// ID order: two saves of the same state are the same bytes.
		refs := n.blocks.refs()
		snap.Blocks = make([]wire.Block, len(refs))
		for i, ref := range refs {
			snap.Blocks[i], _ = n.blocks.get(ref)
		}
		for _, id := range n.seqIDs() {
			s := n.seqs[id]
			snap.SeqIDs = append(snap.SeqIDs, id)
			snap.SeqNames = append(snap.SeqNames, s.name)
			snap.SeqData = append(snap.SeqData, s.data)
		}
		if n.sketch != nil {
			p := n.sketch.Params()
			snap.SketchK = p.K
			snap.SketchBloomBits = p.BloomBits
			snap.SketchMinHashK = p.MinHashK
		}
	}
	return gob.NewEncoder(w).Encode(&snap)
}

// LoadFrom restores a node's state from a snapshot, replacing everything
// and rebuilding the screen. The node's address must still appear in
// the saved topology.
func (n *Node) LoadFrom(r io.Reader) error {
	var snap snapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return fmt.Errorf("node %s: decoding snapshot: %w", n.addr, err)
	}
	if !snap.Booted {
		return nil // empty snapshot: nothing to restore
	}
	boot := wire.Bootstrap{
		HashTree:        snap.HashTree,
		Metric:          snap.Metric,
		BlockLen:        snap.BlockLen,
		Margin:          snap.Margin,
		Groups:          snap.Groups,
		Kind:            snap.Kind,
		SketchK:         snap.SketchK,
		SketchBloomBits: snap.SketchBloomBits,
		SketchMinHashK:  snap.SketchMinHashK,
	}
	if _, err := n.bootstrap(boot); err != nil {
		return err
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	slots, err := n.storeBlocks(snap.Blocks, nil)
	if err != nil {
		return fmt.Errorf("loading snapshot: %w", err)
	}
	// Snapshots written before saves were ordered list blocks in map order;
	// sorting lays the screen out as BuildIndex does.
	slices.SortFunc(slots, func(a, b slot) int { return cmp.Compare(a.ref, b.ref) })
	n.index(slots)
	n.blocks.seal()
	for i, id := range snap.SeqIDs {
		n.seqs[id] = storedSeq{name: snap.SeqNames[i], data: snap.SeqData[i]}
	}
	return nil
}
