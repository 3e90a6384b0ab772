package core

import (
	"encoding/gob"
	"fmt"
	"io"

	"mendel/internal/seq"
	"mendel/internal/sketch"
	"mendel/internal/transport"
	"mendel/internal/vphash"
)

// manifest is the saved coordinator state: everything needed to resume
// querying a cluster whose nodes already hold their indexed data. This
// implements the paper's future-work item of persisting pre-indexed state
// so large datasets need not be re-ingested per session (§VII-B).
type manifest struct {
	Config   Config
	Groups   [][]string
	HashTree []byte
	Names    map[seq.ID]string
	Lengths  map[seq.ID]int
	Total    int
	NextID   seq.ID
	// GroupBlocks counts the distinct blocks Index placed in each group.
	// Nil with Total > 0 means unknown (a manifest written before the count
	// was kept, or after an Index failed while shipping): repair then
	// reports no lost blocks, also after later Index calls.
	GroupBlocks map[int]int
	// Sketch tier state (absent in manifests written before the tier
	// existed — gob leaves the fields nil, and the prefilter then stays
	// inert until a refresh repopulates the group sketches).
	GroupSketches  map[int][]byte
	SketchComplete map[int]bool
	SeqSketches    map[seq.ID][]uint64
}

// SaveManifest writes the coordinator state to w. The storage nodes keep
// their own data; a saved manifest plus running nodes restore a fully
// queryable cluster via LoadManifest.
func (c *Cluster) SaveManifest(w io.Writer) error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	m := manifest{
		Config:      c.cfg,
		Groups:      c.groups,
		Names:       c.names,
		Lengths:     c.lengths,
		Total:       c.totalResidues,
		NextID:      c.nextID,
		GroupBlocks: c.groupBlocks,
	}
	if c.hashTree != nil {
		enc, err := c.hashTree.MarshalBinary()
		if err != nil {
			return err
		}
		m.HashTree = enc
	}
	if len(c.groupSketches) > 0 {
		m.GroupSketches = make(map[int][]byte, len(c.groupSketches))
		for g, s := range c.groupSketches {
			enc, err := s.MarshalBinary()
			if err != nil {
				return err
			}
			m.GroupSketches[g] = enc
		}
		m.SketchComplete = c.sketchComplete
	}
	if len(c.seqSketches) > 0 {
		m.SeqSketches = c.seqSketches
	}
	return gob.NewEncoder(w).Encode(&m)
}

// LoadManifest restores a coordinator from a saved manifest, attached to
// the given transport: NewCluster over the saved configuration and groups,
// then the saved catalog, sketches and hash tree.
func LoadManifest(r io.Reader, caller transport.Caller) (*Cluster, error) {
	var m manifest
	if err := gob.NewDecoder(r).Decode(&m); err != nil {
		return nil, fmt.Errorf("core: decoding manifest: %w", err)
	}
	c, err := NewCluster(m.Config, caller, m.Groups)
	if err != nil {
		return nil, err
	}
	c.totalResidues = m.Total
	c.nextID = m.NextID
	if m.Names != nil {
		c.names = m.Names
	}
	if m.Lengths != nil {
		c.lengths = m.Lengths
	}
	if m.GroupBlocks != nil || m.Total > 0 {
		c.groupBlocks = m.GroupBlocks
	}
	if m.SeqSketches != nil {
		c.seqSketches = m.SeqSketches
	}
	if len(m.GroupSketches) > 0 {
		c.groupSketches = make(map[int]*sketch.Sketch, len(m.GroupSketches))
		for g, enc := range m.GroupSketches {
			s, err := sketch.UnmarshalBinary(enc)
			if err != nil {
				return nil, fmt.Errorf("core: decoding group %d sketch: %w", g, err)
			}
			c.groupSketches[g] = s
		}
		c.sketchComplete = m.SketchComplete
	}
	if len(m.HashTree) > 0 {
		tree := new(vphash.Tree)
		if err := tree.UnmarshalBinary(m.HashTree); err != nil {
			return nil, err
		}
		c.hashTree = tree
	}
	return c, nil
}
