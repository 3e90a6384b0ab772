// Package core is Mendel's primary contribution: the similarity-aware
// distributed storage framework tying the substrates together. It provides
// the ingest pipeline (§V-A: inverted index block creation, vp-prefix tree
// dispersion, node-local indexing) and the query evaluation pipeline
// (§V-B: sliding-window decomposition, group fan-out, two-stage anchor
// aggregation, gapped extension, E-value ranking).
//
// The architecture is symmetric: a Cluster value is a coordinator view that
// can live anywhere — a client, a CLI, or colocated with a storage node —
// and any instance produces identical results.
package core

import (
	"fmt"

	"mendel/internal/seq"
	"mendel/internal/sketch"
)

// Config fixes the cluster-wide constants shared by every node. They are
// established at bootstrap and immutable thereafter.
type Config struct {
	// Kind selects DNA or Protein mode; it decides the index metric
	// (Hamming vs the BLOSUM62-derived Mendel metric, §III-B).
	Kind seq.Kind
	// BlockLen is the inverted-index window length w (§V-A1).
	BlockLen int
	// Margin is the per-side context captured with each block for local
	// anchor extension.
	Margin int
	// Groups is the number of storage node groups (§IV-C; user-configurable).
	Groups int
	// DepthThreshold is the vp-prefix tree cutoff depth; 0 derives the
	// paper's default of half the tree depth from the sample size (§V-A2).
	DepthThreshold int
	// SampleSize bounds the number of blocks sampled to build the
	// vp-prefix tree.
	SampleSize int
	// BucketCap is the vp-tree leaf capacity of the benchmark harness's
	// offline replay (0 = default); storage nodes index with a screen,
	// which has no leaves.
	BucketCap int
	// QueryEps is the uncertainty radius used when hashing subqueries:
	// traversal branches into both children when the eps-ball straddles a
	// vantage boundary (§V-B). 0 derives a default of 1/8 of the maximum
	// possible window distance.
	QueryEps int
	// MaxGapped caps the number of anchors submitted to gapped extension
	// per query, keeping worst-case latency bounded.
	MaxGapped int
	// Replicas is the number of copies of every block (within its group)
	// and of every sequence-repository shard. 1 disables replication;
	// higher values implement the paper's fault-tolerance extension
	// (§VII-B): queries lose no recall while any replica survives.
	Replicas int
	// AllowPartial lets Search degrade to partial results when entire
	// groups or repository shards are unreachable: instead of failing the
	// query, the surviving groups' hits are returned and the outage is
	// reported in Trace.GroupsFailed / Trace.Partial. DefaultConfig turns
	// it on — a storage cluster built for commodity hardware should
	// degrade, not fail stop. When false, the first unreachable group
	// aborts the query (the pre-fault-tolerance behaviour).
	AllowPartial bool
	// SketchK is the k-mer length of the sketch prefilter tier (§DESIGN 14).
	// 0 derives the per-kind default (5 for protein, 11 for DNA); -1
	// disables sketching cluster-wide — nodes build no signatures and the
	// -prefilter flag becomes inert.
	SketchK int
	// SketchBloomBits sizes each node's Bloom signature in bits (rounded up
	// to a power of two). 0 derives the default (1 MiBit).
	SketchBloomBits int
	// SketchMinHashK is the bottom-k MinHash sketch size used by the
	// alignment-free Similarity mode and the minhash prefilter. 0 derives
	// the default (512).
	SketchMinHashK int
	// TraceSampleRate is the head-based sampling rate for distributed query
	// traces, in (0,1]: 1 traces every query, 0.01 one query in a hundred.
	// The zero value also traces every query — the pre-sampling behaviour,
	// so configs built before tracing keep their span coverage — and a
	// negative rate disables query tracing entirely. The decision is made
	// once at the system entry point and propagated cluster-wide, so either
	// every span of a query is recorded or none is.
	TraceSampleRate float64
	// Seed makes vantage selection and entry-point choice deterministic.
	Seed int64
}

// DefaultConfig returns the configuration used throughout the repository
// for the given molecule kind.
func DefaultConfig(kind seq.Kind) Config {
	return Config{
		Kind:            kind,
		BlockLen:        16,
		Margin:          32,
		Groups:          4,
		SampleSize:      2000,
		MaxGapped:       256,
		Replicas:        1,
		AllowPartial:    true,
		TraceSampleRate: 1,
		Seed:            1,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.BlockLen <= 0:
		return fmt.Errorf("core: BlockLen = %d", c.BlockLen)
	case c.Margin < 0:
		return fmt.Errorf("core: Margin = %d", c.Margin)
	case c.Groups <= 0:
		return fmt.Errorf("core: Groups = %d", c.Groups)
	case c.SampleSize <= 0:
		return fmt.Errorf("core: SampleSize = %d", c.SampleSize)
	case c.DepthThreshold < 0:
		return fmt.Errorf("core: DepthThreshold = %d", c.DepthThreshold)
	case c.QueryEps < 0:
		return fmt.Errorf("core: QueryEps = %d", c.QueryEps)
	case c.MaxGapped < 0:
		return fmt.Errorf("core: MaxGapped = %d", c.MaxGapped)
	case c.Replicas < 0:
		return fmt.Errorf("core: Replicas = %d", c.Replicas)
	case c.SketchK < -1:
		return fmt.Errorf("core: SketchK = %d", c.SketchK)
	case c.SketchBloomBits < 0:
		return fmt.Errorf("core: SketchBloomBits = %d", c.SketchBloomBits)
	case c.SketchMinHashK < 0:
		return fmt.Errorf("core: SketchMinHashK = %d", c.SketchMinHashK)
	case c.TraceSampleRate > 1:
		return fmt.Errorf("core: TraceSampleRate = %g, want <= 1", c.TraceSampleRate)
	}
	return nil
}

// traceSampleRate returns the effective trace sampling rate (the zero value
// means trace-all; negative disables).
func (c Config) traceSampleRate() float64 {
	if c.TraceSampleRate == 0 {
		return 1
	}
	return c.TraceSampleRate
}

// replicas returns the effective replica count (zero means one).
func (c Config) replicas() int {
	if c.Replicas < 1 {
		return 1
	}
	return c.Replicas
}

// sketchParams returns the effective sketch shape: the per-kind defaults
// with any configured overrides applied, or the zero Params (sketching
// disabled) when SketchK is -1.
func (c Config) sketchParams() sketch.Params {
	if c.SketchK < 0 {
		return sketch.Params{}
	}
	p := sketch.DefaultParams(c.Kind)
	if c.SketchK > 0 {
		p.K = c.SketchK
	}
	if c.SketchBloomBits > 0 {
		p.BloomBits = c.SketchBloomBits
	}
	if c.SketchMinHashK > 0 {
		p.MinHashK = c.SketchMinHashK
	}
	return p
}

// DefaultSearchBudget is the distance-evaluation budget of a vp-tree lookup
// in the benchmark harness's offline replay of node-local search, the
// budget storage nodes searched their vp-trees with before the screen
// (internal/node) made node-local candidates exact.
const DefaultSearchBudget = 4096
