package core

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"sort"
	"sync"
	"sync/atomic"

	"mendel/internal/dht"
	"mendel/internal/seq"
	"mendel/internal/sketch"
	"mendel/internal/transport"
	"mendel/internal/wire"
)

// PrefilterMode selects how Search consults the merged per-group k-mer
// sketches before fanning a query out.
type PrefilterMode int

const (
	// PrefilterOff disables the prefilter: every vp-hash-routed group is
	// contacted (the pre-sketch behaviour, and the recall baseline the CI
	// recall gate compares the other modes against).
	PrefilterOff PrefilterMode = iota
	// PrefilterBloom drops a group from a window's fan-out only when the
	// group's Bloom filter proves the window shares no k-mer with any block
	// the group holds. "Definitely absent" is exact, so this mode returns
	// hits bit-identical to PrefilterOff (see DESIGN.md §14).
	PrefilterBloom
	// PrefilterMinHash skips a group when none of the query's bottom-k
	// MinHash samples land in the group's Bloom filter — a cheaper
	// whole-query test that, unlike PrefilterBloom, samples rather than
	// proves (its accuracy contract is the Jaccard error bound checked by
	// the CI recall gate).
	PrefilterMinHash
)

// String renders the mode as its flag spelling.
func (m PrefilterMode) String() string {
	switch m {
	case PrefilterBloom:
		return "bloom"
	case PrefilterMinHash:
		return "minhash"
	default:
		return "off"
	}
}

// ParsePrefilterMode parses the -prefilter flag values off|bloom|minhash.
func ParsePrefilterMode(s string) (PrefilterMode, error) {
	switch s {
	case "", "off":
		return PrefilterOff, nil
	case "bloom":
		return PrefilterBloom, nil
	case "minhash":
		return PrefilterMinHash, nil
	}
	return PrefilterOff, fmt.Errorf("core: unknown prefilter mode %q (want off, bloom or minhash)", s)
}

// SetPrefilterMode selects the group prefilter consulted before fan-out.
// Like SetObservability, call before serving queries; the field is read
// without synchronization by concurrent Searches.
func (c *Cluster) SetPrefilterMode(m PrefilterMode) { c.prefilter = m }

// PrefilterMode returns the active prefilter mode.
func (c *Cluster) PrefilterMode() PrefilterMode { return c.prefilter }

// refreshSketches pulls every node's k-mer sketch and merges them per
// group, replacing the coordinator's prefilter view. A group is marked
// complete — and thus eligible for skipping — only when every member
// answered with a parseable sketch; nodes that are down, predate the sketch
// tier, or hold incompatible params leave their group permanently
// contactable, so a stale or partial view can never lose a hit. Best
// effort by design: Index and Repair call it after the data moves, and a
// failed refresh only means the prefilter skips less.
// A pull installs only if sketchGen did not move while it was in flight;
// otherwise its view may predate a newer one's blocks, and it pulls again.
func (c *Cluster) refreshSketches(ctx context.Context) {
	p := c.cfg.sketchParams()
	if !p.Enabled() {
		return
	}
	for {
		c.mu.RLock()
		gen, topo := c.sketchGen, c.topo
		c.mu.RUnlock()
		nodes := topo.AllNodes()
		resps, errs := transport.BroadcastAll(ctx, c.caller, nodes, wire.SketchFetch{})
		nodeSketch := make(map[string]*sketch.Sketch, len(nodes))
		for i, r := range resps {
			if errs[i] != nil {
				continue
			}
			sfr, ok := r.(wire.SketchFetchResult)
			if !ok || len(sfr.Sketch) == 0 {
				continue
			}
			s, err := sketch.UnmarshalBinary(sfr.Sketch)
			if err != nil {
				continue
			}
			nodeSketch[nodes[i]] = s
		}
		groupSketches := make(map[int]*sketch.Sketch, topo.Groups())
		sketchComplete := make(map[int]bool, topo.Groups())
		for g := 0; g < topo.Groups(); g++ {
			merged := sketch.New(p)
			complete := true
			for _, member := range topo.GroupNodes(g) {
				s, ok := nodeSketch[member]
				if !ok {
					complete = false
					continue
				}
				if err := merged.Merge(s); err != nil {
					complete = false
				}
			}
			groupSketches[g] = merged
			sketchComplete[g] = complete
		}
		c.mu.Lock()
		if c.sketchGen == gen {
			c.groupSketches = groupSketches
			c.sketchComplete = sketchComplete
			c.sketchTopo = topo
			c.sketchGen++
			c.mu.Unlock()
			c.reg.Counter("sketch_refreshes").Inc()
			return
		}
		c.mu.Unlock()
		if ctx.Err() != nil {
			return
		}
	}
}

// sketchWrite is one Index's account of where its blocks went, from which
// foldSketches grows the group sketches without pulling them.
type sketchWrite struct {
	gen    uint64        // sketchGen when the write began
	topo   *dht.Topology // the topology every block was placed under
	view   map[int]*sketch.Sketch
	fold   bool        // view was pulled under topo, every group complete
	spoilt atomic.Bool // a batch was hinted or refused in part
	mu     sync.Mutex
	placed []placement
}

// placement is one block stored on one replica node.
type placement struct {
	group   int
	content []byte
}

// beginWrite snapshots the sketch view a write starts from.
func (c *Cluster) beginWrite() *sketchWrite {
	c.mu.RLock()
	defer c.mu.RUnlock()
	w := &sketchWrite{gen: c.sketchGen, topo: c.topo, view: c.groupSketches}
	w.fold = c.sketchTopo == c.topo
	for g := 0; g < c.topo.Groups() && w.fold; g++ {
		w.fold = c.sketchComplete[g]
	}
	return w
}

// foldSketches adds a clean write's blocks to clones of the touched group
// sketches exactly as each replica added them to its own (DESIGN.md §14).
// It reports false, and the caller pulls, when the write was spoilt or
// not eligible, or the view moved on since the write began.
func (c *Cluster) foldSketches(w *sketchWrite) bool {
	if !w.fold || w.spoilt.Load() {
		return false
	}
	touched := make(map[int]*sketch.Sketch)
	for _, pl := range w.placed {
		s := touched[pl.group]
		if s == nil {
			s = w.view[pl.group].Clone()
			touched[pl.group] = s
		}
		s.Add(pl.content)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.sketchGen != w.gen || c.topo != w.topo {
		return false
	}
	next := maps.Clone(w.view)
	maps.Copy(next, touched)
	c.groupSketches = next
	c.sketchGen++
	return true
}

// invalidateSketches makes the next write pull instead of fold, and an
// in-flight pull start over, after blocks reached nodes outside a clean
// write.
func (c *Cluster) invalidateSketches() {
	c.mu.Lock()
	c.sketchTopo = nil
	c.sketchGen++
	c.mu.Unlock()
}

// GroupSketchComplete reports whether group g's merged sketch covers every
// member (the precondition for the prefilter to skip it). Exposed for the
// chaos suite, which asserts repaired clusters regain complete sketches.
func (c *Cluster) GroupSketchComplete(g int) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.sketchComplete[g]
}

// GroupSketchBytes returns the marshaled merged sketch of group g (nil when
// unknown). The encoding is a pure function of the group's block set, which
// is what lets the chaos suite compare a faulted-and-repaired cluster
// against a never-faulted twin byte for byte.
func (c *Cluster) GroupSketchBytes(g int) []byte {
	c.mu.RLock()
	s := c.groupSketches[g]
	c.mu.RUnlock()
	if s == nil {
		return nil
	}
	enc, err := s.MarshalBinary()
	if err != nil {
		return nil
	}
	return enc
}

// prefilterGroups edits groupOffsets in place according to the active
// prefilter mode, returning how many whole groups were dropped and how
// often the false-drop guard fired. Only groups whose merged sketch is
// complete and non-empty are ever pruned.
func (c *Cluster) prefilterGroups(q []byte, groupOffsets map[int][]int) (skipped, guarded int) {
	c.mu.RLock()
	sketches := c.groupSketches
	complete := c.sketchComplete
	c.mu.RUnlock()
	if len(sketches) == 0 {
		return 0, 0
	}
	prunable := func(g int) (*sketch.Sketch, bool) {
		s := sketches[g]
		return s, s != nil && complete[g] && !s.Empty()
	}
	before := len(groupOffsets)

	switch c.prefilter {
	case PrefilterBloom:
		// Per-window pruning: a (window, group) route is dropped only when
		// the group's Bloom filter proves the window shares no canonical
		// k-mer with anything the group stores. Stride-1 blocking
		// guarantees an exactly matching window exists verbatim as a block
		// in its group — such a window shares all of its k-mers and is
		// never dropped. In practice stride-1 also smears every database
		// k-mer across many groups, so disjointness is usually
		// all-or-nothing per window: the skips come from windows (and whole
		// queries) that match nothing in the database. A window dropped
		// from every group increments PrefilterGuard — the signal audited
		// by the recall gate, since such drops rest on the k-mer
		// disjointness proof alone (see DESIGN.md §14).
		w := c.cfg.BlockLen
		byOffset := make(map[int][]int)
		for g, offs := range groupOffsets {
			for _, off := range offs {
				byOffset[off] = append(byOffset[off], g)
			}
		}
		kept := make(map[int][]int, before)
		for off, gs := range byOffset {
			window := q[off : off+w]
			dropped := 0
			for _, g := range gs {
				if s, ok := prunable(g); ok && !s.SharesAny(window) {
					dropped++
					continue
				}
				kept[g] = append(kept[g], off)
			}
			if dropped == len(gs) {
				guarded++
			}
		}
		for g := range groupOffsets {
			delete(groupOffsets, g)
		}
		for g, offs := range kept {
			// byOffset iteration order is random; restore the ascending
			// offset order decomposition produced so node-side processing
			// stays deterministic.
			sort.Ints(offs)
			groupOffsets[g] = offs
		}

	case PrefilterMinHash:
		// Whole-query sampling: probe the query's bottom-k k-mer hashes
		// against each group's Bloom filter and skip groups where none
		// land. Cheaper than hashing every window, but a sample — the CI
		// recall gate bounds its Jaccard-estimate error rather than
		// asserting exactness.
		p := c.cfg.sketchParams()
		qs := sketch.New(sketch.Params{K: p.K, MinHashK: p.MinHashK, Kind: p.Kind})
		qs.Add(q)
		hashes := qs.MinHashes()
		if len(hashes) == 0 {
			return 0, 0
		}
		var drop []int
		for g := range groupOffsets {
			if s, ok := prunable(g); ok && sketch.EstimateContainment(hashes, s) == 0 {
				drop = append(drop, g)
			}
		}
		if len(drop) == len(groupOffsets) {
			// Guard: a query that samples into no group keeps its full
			// fan-out rather than returning an empty answer unverified.
			return 0, 1
		}
		for _, g := range drop {
			delete(groupOffsets, g)
		}
	}
	return before - len(groupOffsets), guarded
}

// SimilarityHit is one alignment-free similarity result: an indexed
// sequence ranked by its estimated k-mer Jaccard similarity to the query.
type SimilarityHit struct {
	Seq     seq.ID
	Name    string
	Jaccard float64
}

// Similarity ranks the indexed sequences by estimated Jaccard similarity to
// the query, computed purely from the coordinator's per-sequence bottom-k
// MinHash signatures — no node is contacted and no alignment runs. On small
// sequences (fewer distinct k-mers than the sketch size) the estimate is
// exact; the CI recall gate bounds the error elsewhere. topN <= 0 returns
// every sequence with a non-zero estimate.
func (c *Cluster) Similarity(query []byte, topN int) ([]SimilarityHit, error) {
	p := c.cfg.sketchParams()
	if p.K <= 0 || p.MinHashK <= 0 {
		return nil, errors.New("core: similarity mode requires MinHash sketching (enabled by default; check SketchK/SketchMinHashK)")
	}
	q := append([]byte(nil), query...)
	if err := seq.AlphabetFor(c.cfg.Kind).Normalize(q); err != nil {
		return nil, err
	}
	qmins := MinHashesOf(q, c.cfg)

	c.mu.RLock()
	if len(c.seqSketches) == 0 {
		c.mu.RUnlock()
		return nil, ErrNotIndexed
	}
	type entry struct {
		id   seq.ID
		mins []uint64
	}
	entries := make([]entry, 0, len(c.seqSketches))
	for id, mins := range c.seqSketches {
		entries = append(entries, entry{id, mins})
	}
	c.mu.RUnlock()

	hits := make([]SimilarityHit, 0, len(entries))
	for _, e := range entries {
		j := sketch.JaccardBottomK(qmins, e.mins, p.MinHashK)
		if j <= 0 {
			continue
		}
		hits = append(hits, SimilarityHit{Seq: e.id, Name: c.NameOf(e.id), Jaccard: j})
	}
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].Jaccard != hits[j].Jaccard {
			return hits[i].Jaccard > hits[j].Jaccard
		}
		return hits[i].Seq < hits[j].Seq
	})
	if topN > 0 && len(hits) > topN {
		hits = hits[:topN]
	}
	return hits, nil
}

// SeqSketch returns the stored bottom-k MinHash values of an indexed
// sequence (nil if unknown), for the similarity verification harness.
func (c *Cluster) SeqSketch(id seq.ID) []uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.seqSketches[id]
}

// MinHashesOf computes the bottom-k MinHash signature of data under the
// cluster configuration's sketch params — the query-side half of Similarity
// and of the verification harness's exact-vs-estimate comparison.
func MinHashesOf(data []byte, cfg Config) []uint64 {
	p := cfg.sketchParams()
	if p.K <= 0 || p.MinHashK <= 0 {
		return nil
	}
	s := sketch.New(sketch.Params{K: p.K, MinHashK: p.MinHashK, Kind: p.Kind})
	s.Add(data)
	return s.MinHashes()
}

// ExactJaccard computes the exact canonical k-mer Jaccard similarity of two
// sequences under the cluster configuration's sketch params, from their full
// distinct-hash sets. It is the ground truth the CI recall gate compares the
// MinHash estimates of Similarity against.
func ExactJaccard(a, b []byte, cfg Config) float64 {
	p := cfg.sketchParams()
	if p.K <= 0 {
		return 0
	}
	return sketch.JaccardBottomK(distinctHashes(a, p), distinctHashes(b, p), 0)
}

// distinctHashes returns the sorted distinct canonical k-mer hashes of data.
func distinctHashes(data []byte, p sketch.Params) []uint64 {
	set := make(map[uint64]struct{})
	sketch.Hashes(p.Kind, p.K, data, func(h uint64) { set[h] = struct{}{} })
	out := make([]uint64, 0, len(set))
	for h := range set {
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// updateSeqSketches computes and stores the per-sequence MinHash signatures
// of a newly indexed set (the database side of Similarity). Sketching is
// coordinator-side: the full sequences are in hand during Index, and the
// signatures persist in the manifest so Similarity works after LoadManifest
// without contacting any node.
func (c *Cluster) updateSeqSketches(set *seq.Set, base seq.ID) {
	p := c.cfg.sketchParams()
	if p.K <= 0 || p.MinHashK <= 0 {
		return
	}
	mp := sketch.Params{K: p.K, MinHashK: p.MinHashK, Kind: p.Kind}
	mins := make(map[seq.ID][]uint64, len(set.Seqs))
	for _, s := range set.Seqs {
		sk := sketch.New(mp)
		sk.Add(s.Data)
		mins[base+s.ID] = sk.MinHashes()
	}
	c.mu.Lock()
	for id, v := range mins {
		c.seqSketches[id] = v
	}
	c.mu.Unlock()
}
