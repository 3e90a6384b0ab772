// Package vptree implements the vantage point tree of Yianilos (SODA '93)
// over an arbitrary metric, with the two performance refinements the paper
// adopts (§III-D): bucketed leaves, and dynamic insertion with the
// four-case rebalancing scheme of Fu et al. so batches of new segments can
// be added without degrading the tree to linear scans.
//
// Internal vertices hold a vantage point (a copy of one element, used only
// for routing) and a radius mu chosen as the median distance, so elements
// closer than mu descend left and the rest descend right. Items live only
// in leaf buckets.
//
// Keys have one length per tree (fixed by the first item), so a leaf stores
// copies of its keys back to back in one byte slab, refs in a parallel slice:
// a bucket scan walks contiguous memory instead of one slice header per item.
// A bulk build goes one step further and leaves every leaf of the subtree it
// built as a sub-slice of one arena, in left-to-right order, so a depth-first
// lookup walks nearly sequential memory from leaf to leaf as well.
package vptree

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"

	"mendel/internal/metric"
)

// Item is an element of the tree: a fixed-length residue segment and an
// opaque reference that identifies the indexed block it came from.
type Item struct {
	Key []byte
	Ref uint64
}

// Result is a search hit with its distance from the query. Key is a view of
// the tree's own copy of the key and must not be modified.
type Result struct {
	Item
	Dist int
}

// Tree is a bucketed vantage point tree. It is not safe for concurrent
// mutation; storage nodes serialize writes and may serve reads concurrently
// with other reads.
type Tree struct {
	metric    metric.Metric
	bucketCap int
	stride    int // key length, fixed by the first item
	root      *node
	size      int
	rng       *rand.Rand
}

// slab is a run of items in leaf layout: key i is keys[i*stride:(i+1)*stride]
// and refs[i] is its reference.
type slab struct {
	keys []byte
	refs []uint64
}

// node is a vertex. A leaf holds its items in slab; an internal vertex holds
// its routing vantage point (a copy of an item key) in slab.keys and nil refs,
// so refs is non-nil iff leaf. The int32 fields keep a vertex at 76 bytes, in
// the 80-byte allocation class (TestVertexSize); a count of 2^31 items is far
// past what a node's heap holds.
type node struct {
	left, right *node
	slab
	mu, count, height int32 // count: items in the subtree; height: leaf = 0
}

// newSlab returns an empty slab with room for n keys of the tree's length.
func (t *Tree) newSlab(n int) slab {
	return slab{keys: make([]byte, 0, n*t.stride), refs: make([]uint64, 0, n)}
}

// key returns key i of a slab of stride-byte keys, capped so an append cannot
// reach its neighbour.
func (s slab) key(i, stride int) []byte {
	return s.keys[i*stride : (i+1)*stride : (i+1)*stride]
}

// slice returns items lo to hi of s as a slab of their own, capped so that
// appending to it copies them out instead of overwriting item hi.
func (s slab) slice(lo, hi, stride int) slab {
	return slab{keys: s.keys[lo*stride : hi*stride : hi*stride], refs: s.refs[lo:hi:hi]}
}

// add copies a caller's items onto s. Key lengths are a structural invariant
// of the index, not a runtime condition, so a mismatch panics as the metric
// would.
func (t *Tree) add(s *slab, items ...Item) {
	for _, it := range items {
		if len(it.Key) != t.stride {
			panic(fmt.Sprintf("vptree: key length %d, index keys are %d", len(it.Key), t.stride))
		}
		s.keys = append(s.keys, it.Key...)
		s.refs = append(s.refs, it.Ref)
	}
}

// DefaultBucketCap is the leaf capacity used when the caller passes 0.
const DefaultBucketCap = 32

// New creates an empty tree using the given metric. bucketCap <= 0 selects
// DefaultBucketCap. seed makes vantage selection deterministic, which keeps
// cluster nodes reproducible under test.
func New(m metric.Metric, bucketCap int, seed int64) *Tree {
	if bucketCap <= 0 {
		bucketCap = DefaultBucketCap
	}
	return &Tree{
		metric:    m,
		bucketCap: bucketCap,
		rng:       rand.New(rand.NewSource(seed)),
	}
}

// Build constructs a balanced tree over items in one pass, the preferred
// path when the dataset is known up front (§III-D: the original structure
// expects whole-dataset construction).
func Build(m metric.Metric, bucketCap int, seed int64, items []Item) *Tree {
	t := New(m, bucketCap, seed)
	t.root = t.build(t.collectWith(nil, items...))
	t.size = len(items)
	return t
}

// Size returns the number of items in the tree.
func (t *Tree) Size() int { return t.size }

// Height returns the height of the tree (a single leaf has height 0).
func (t *Tree) Height() int {
	if t.root == nil {
		return 0
	}
	return int(t.root.height)
}

// Leaves returns the number of leaf buckets.
func (t *Tree) Leaves() int {
	leaves := 0
	eachLeaf(t.root, func(slab) { leaves++ })
	return leaves
}

// build constructs a subtree. Items are consumed: they become the subtree's
// arena, every leaf a sub-slice of it.
//
// Construction is median-split: a vantage point is chosen, every item's
// distance to it is measured, and the median distance becomes the routing
// radius mu. The vantage RNG state of the whole construction derives from a
// single draw on the tree's rng, and every subtree derives its children's
// seeds deterministically, so the resulting shape is a pure function of the
// tree seed, the operation history and the item order — independent of how
// many goroutines the parallel build fans out to.
func (t *Tree) build(items slab) *node {
	n := len(items.refs)
	spare := slab{keys: make([]byte, len(items.keys)), refs: make([]uint64, n)}
	return t.buildSeeded(items, spare, make([]int, n), true, t.rng.Int63(), new(buildScratch), newBuildLimiter())
}

// buildScratch is one build goroutine's per-vertex working state. A vertex
// is done with all three before it recurses, so each vertex reseeds and
// refills them instead of allocating its own.
type buildScratch struct {
	rng    vertexRNG      // the vertex's vantage and child-seed draws
	prof   metric.Profile // of the vertex's vantage
	counts []int          // medianDistance's histogram
}

// parallelBuildMin is the subtree size below which recursion stays on the
// calling goroutine: small subtrees finish faster than a goroutine handoff.
const parallelBuildMin = 2048

// buildLimiter caps the extra goroutines one bulk build may fan out to. A
// nil limiter (single-core host) keeps construction fully serial.
type buildLimiter chan struct{}

func newBuildLimiter() buildLimiter {
	extra := runtime.GOMAXPROCS(0) - 1
	if extra <= 0 {
		return nil
	}
	return make(buildLimiter, extra)
}

func (l buildLimiter) tryAcquire() bool {
	if l == nil {
		return false
	}
	select {
	case l <- struct{}{}:
		return true
	default:
		return false
	}
}

func (l buildLimiter) release() { <-l }

// buildSeeded builds the subtree over items. spare and dist are the same
// range of the build's other item buffer and of its distance buffer: a vertex
// partitions its items into spare and the two swap roles one level down, so a
// build allocates two item buffers and one distance buffer, not a left and a
// right slab and a distance slice per vertex. inArena says which of the two
// items is; a leaf whose items ended up on the other side is copied across
// (same offsets), so the subtree's leaves tile the arena left to right. sc is
// the calling goroutine's scratch; a left subtree handed to a goroutine of its
// own gets a fresh one.
func (t *Tree) buildSeeded(items, spare slab, dist []int, inArena bool, seed int64, sc *buildScratch, lim buildLimiter) *node {
	count := len(items.refs)
	if count == 0 {
		return nil
	}
	if count <= t.bucketCap {
		return leafOf(items, spare, inArena)
	}
	sc.rng.seed(seed)
	vantage := t.selectVantage(&sc.rng, items)
	sc.prof = t.metric.Profile(vantage, sc.prof)
	t.distances(sc.prof, items, dist, lim)
	// Left takes d <= mu to guarantee the left side is non-empty and to keep
	// routing (d <= mu goes left) consistent.
	mu, nLeft := t.medianDistance(dist, sc)
	if nLeft == count {
		// Degenerate: every element within mu of the vantage (e.g. all
		// identical). An oversized leaf is the only consistent shape.
		return leafOf(items, spare, inArena)
	}
	// The partition is a stable scan, so child item order does not depend on
	// the median algorithm.
	l, r := 0, nLeft
	for i, d := range dist {
		at := &r
		if d <= mu {
			at = &l
		}
		copy(spare.keys[*at*t.stride:], items.key(i, t.stride))
		spare.refs[*at] = items.refs[i]
		*at++
	}
	leftSeed, rightSeed := sc.rng.Int63(), sc.rng.Int63()
	n := &node{slab: slab{keys: append([]byte(nil), vantage...)}, mu: int32(mu), count: int32(count)}
	leftItems, leftSpare := spare.slice(0, nLeft, t.stride), items.slice(0, nLeft, t.stride)
	var leftDone chan struct{}
	if nLeft >= parallelBuildMin && lim.tryAcquire() {
		leftDone = make(chan struct{})
		go func() {
			defer close(leftDone)
			defer lim.release()
			n.left = t.buildSeeded(leftItems, leftSpare, dist[:nLeft], !inArena, leftSeed, new(buildScratch), lim)
		}()
	} else {
		n.left = t.buildSeeded(leftItems, leftSpare, dist[:nLeft], !inArena, leftSeed, sc, lim)
	}
	n.right = t.buildSeeded(spare.slice(nLeft, count, t.stride), items.slice(nLeft, count, t.stride), dist[nLeft:], !inArena, rightSeed, sc, lim)
	if leftDone != nil {
		<-leftDone
	}
	n.height = 1 + max(subHeight(n.left), subHeight(n.right))
	return n
}

// leafOf makes a leaf of items, first copying them across to the arena side
// (spare) when they are not in it.
func leafOf(items, spare slab, inArena bool) *node {
	if !inArena {
		copy(spare.keys, items.keys)
		copy(spare.refs, items.refs)
		items = spare
	}
	return &node{slab: items, count: int32(len(items.refs))}
}

// distances fills dist[i] with the distance from the profiled vantage to item
// i, sharding the scan over spare cores for large inputs: the root level of a
// bulk build is a linear pass over the whole dataset and would otherwise
// serialize the entire construction (Amdahl's bottleneck). One vantage
// against many keys is a lookup's shape, so the pass runs the lookup's kernel.
func (t *Tree) distances(prof metric.Profile, items slab, dist []int, lim buildLimiter) {
	const chunk = 4096
	if lim == nil || len(dist) < 2*chunk {
		prof.Distances(dist, items.keys)
		return
	}
	var wg sync.WaitGroup
	for lo := 0; lo < len(dist); lo += chunk {
		hi := min(lo+chunk, len(dist))
		d, keys := dist[lo:hi], items.keys[lo*t.stride:hi*t.stride]
		if hi < len(dist) && lim.tryAcquire() {
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer lim.release()
				prof.Distances(d, keys)
			}()
			continue
		}
		prof.Distances(d, keys)
	}
	wg.Wait()
}

// medianDistance returns the element an ascending sort of dist would place at
// index len/2 — the routing radius of the classic vp-tree median split — and
// how many elements are no larger. Distances are small integers (at most the
// key length times the metric's per-residue maximum), so it counts them in
// sc's histogram instead of sorting a copy.
func (t *Tree) medianDistance(dist []int, sc *buildScratch) (mu, nLeft int) {
	if size := t.stride*t.metric.MaxPerResidue() + 1; len(sc.counts) != size {
		sc.counts = make([]int, size)
	} else {
		clear(sc.counts)
	}
	counts := sc.counts
	for _, d := range dist {
		counts[d]++
	}
	nLeft = counts[0]
	for nLeft <= len(dist)/2 {
		mu++
		nLeft += counts[mu]
	}
	return mu, nLeft
}

func subHeight(n *node) int32 {
	if n == nil {
		return -1
	}
	return n.height
}

// selectVantage picks a vantage point by sampling a few candidates and
// choosing the one whose distances to a probe sample have maximal spread
// (second moment about the median), per Yianilos' heuristic. It draws only
// from rng, so concurrent subtree builds stay deterministic. The probe
// distances are insertion-sorted as they arrive, for the median; the spread
// is a sum of integer squares, exact in any order.
func (t *Tree) selectVantage(rng *vertexRNG, items slab) []byte {
	const candidates, probes = 8, 24
	n := len(items.refs)
	if n == 1 {
		return items.key(0, t.stride)
	}
	best, bestSpread := items.key(0, t.stride), -1
	var ds [probes]int
	for c := 0; c < candidates && c < n; c++ {
		cand := items.key(rng.Intn(n), t.stride)
		for p := range ds {
			d := t.metric.Distance(cand, items.key(rng.Intn(n), t.stride))
			j := p
			for ; j > 0 && ds[j-1] > d; j-- {
				ds[j] = ds[j-1]
			}
			ds[j] = d
		}
		median := ds[probes/2]
		spread := 0
		for _, d := range ds {
			spread += (d - median) * (d - median)
		}
		if spread > bestSpread {
			best, bestSpread = cand, spread
		}
	}
	return best
}

// checkInvariants verifies structural invariants for tests: counts, heights,
// leaf placement and slab shape (count × stride key bytes, refs parallel),
// and the routing property (left subtree within mu of the vantage, right
// subtree beyond), measured through Metric.Distance rather than the profile
// kernel the build used.
func (t *Tree) checkInvariants() error {
	var walk func(n *node) (count int, err error)
	walk = func(n *node) (int, error) {
		if n == nil {
			return 0, nil
		}
		if n.refs != nil {
			if n.left != nil || n.right != nil {
				return 0, fmt.Errorf("vptree: leaf with children")
			}
			if int(n.count) != len(n.refs) {
				return 0, fmt.Errorf("vptree: leaf count %d != refs %d", n.count, len(n.refs))
			}
			if len(n.keys) != int(n.count)*t.stride {
				return 0, fmt.Errorf("vptree: leaf slab %d bytes != %d keys x stride %d", len(n.keys), n.count, t.stride)
			}
			return int(n.count), nil
		}
		if n.left == nil || n.right == nil {
			return 0, fmt.Errorf("vptree: internal node missing a child")
		}
		if len(n.keys) != t.stride {
			return 0, fmt.Errorf("vptree: internal node with a %d-byte vantage (stride %d)", len(n.keys), t.stride)
		}
		lc, err := walk(n.left)
		if err != nil {
			return 0, err
		}
		rc, err := walk(n.right)
		if err != nil {
			return 0, err
		}
		if int(n.count) != lc+rc {
			return 0, fmt.Errorf("vptree: count %d != %d+%d", n.count, lc, rc)
		}
		if want := 1 + max(subHeight(n.left), subHeight(n.right)); n.height != want {
			return 0, fmt.Errorf("vptree: height %d != %d", n.height, want)
		}
		var check func(m *node, left bool) error
		check = func(m *node, left bool) error {
			if m == nil {
				return nil
			}
			if m.refs != nil {
				for i := range m.refs {
					d := int32(t.metric.Distance(n.keys, m.key(i, t.stride)))
					if left && d > n.mu {
						return fmt.Errorf("vptree: left item at distance %d > mu %d", d, n.mu)
					}
					if !left && d <= n.mu {
						return fmt.Errorf("vptree: right item at distance %d <= mu %d", d, n.mu)
					}
				}
				return nil
			}
			if err := check(m.left, left); err != nil {
				return err
			}
			return check(m.right, left)
		}
		if err := check(n.left, true); err != nil {
			return 0, err
		}
		if err := check(n.right, false); err != nil {
			return 0, err
		}
		return int(n.count), nil
	}
	count, err := walk(t.root)
	if err != nil {
		return err
	}
	if count != t.size {
		return fmt.Errorf("vptree: size %d != walked %d", t.size, count)
	}
	return nil
}
