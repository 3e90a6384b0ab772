package vptree

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"mendel/internal/metric"
)

// resultHeap is a max-heap on distance so the worst of the current k-best
// sits at the top and can be evicted cheaply. The sift routines are manual
// (rather than container/heap) because the standard interface boxes every
// pushed and popped Result into an interface value — one heap allocation per
// candidate, on the hottest loop of every subquery.
type resultHeap []Result

func (h resultHeap) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if h[parent].Dist >= h[i].Dist {
			return
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
}

func (h resultHeap) siftDown(i int) {
	n := len(h)
	for {
		largest := i
		if l := 2*i + 1; l < n && h[l].Dist > h[largest].Dist {
			largest = l
		}
		if r := 2*i + 2; r < n && h[r].Dist > h[largest].Dist {
			largest = r
		}
		if largest == i {
			return
		}
		h[i], h[largest] = h[largest], h[i]
		i = largest
	}
}

// push adds r, evicting the current worst if the heap already holds k.
func (h *resultHeap) push(r Result, k int) {
	*h = append(*h, r)
	h.siftUp(len(*h) - 1)
	if len(*h) > k {
		h.popWorst()
	}
}

// popWorst removes and returns the root (largest distance).
func (h *resultHeap) popWorst() Result {
	old := *h
	top := old[0]
	last := len(old) - 1
	old[0] = old[last]
	*h = old[:last]
	h.siftDown(0)
	return top
}

// Nearest returns the k nearest items to query, closest first. The search
// maintains a shrinking radius tau around the query (the paper's §III-C):
// a subtree is visited only if the tau-ball can intersect its region, so the
// average traversal is logarithmic.
func (t *Tree) Nearest(query []byte, k int) []Result {
	return t.NearestBudget(query, k, 0)
}

// NearestBudget is Nearest with a bound on the number of distance
// evaluations (0 = unlimited, exact search). Metric-space pruning loses its
// bite on high-entropy segments (the curse of dimensionality makes every
// tau-ball straddle every boundary), so storage nodes cap per-lookup work:
// the traversal still descends nearest-region-first, which reaches genuine
// close neighbours long before the budget runs out, making the result an
// any-time approximation in the same spirit as the system's LSH tier.
func (t *Tree) NearestBudget(query []byte, k, budget int) []Result {
	out, _ := t.NearestBudgetVisits(query, k, budget)
	return out
}

// NearestBudgetVisits is NearestBudget plus the number of distance
// evaluations the traversal performed — the per-lookup work counter the
// observability layer records, and the quantity the budget caps.
func (t *Tree) NearestBudgetVisits(query []byte, k, budget int) ([]Result, int) {
	s := searchers.Get().(*Searcher)
	defer searchers.Put(s)
	return s.NearestEligible(t, query, k, budget, 0)
}

// Searcher is the reusable state of a lookup: the query's distance profile,
// the k-best heap and the traversal's counters. The zero value is ready to
// use; a caller issuing many lookups from one goroutine keeps one, so each
// lookup allocates only the results it returns. A Searcher must not be used
// by two goroutines at once.
type Searcher struct {
	query     []byte         // the lookup's query; not retained past it
	prof      metric.Profile // of query; not built when matches are the distance
	matchDist bool           // the metric is Hamming: a distance is the key length minus the matches
	minMatch  int
	buf       []int // one leaf's match counts or distances
	heap      resultHeap
	k         int
	tau       int // distance of the current k-th best; +inf until k are known
	remaining int // distance evaluations left in the budget
	visits    int
}

var searchers = sync.Pool{New: func() any { return new(Searcher) }}

// NearestEligible is Tree.NearestBudgetVisits on the caller's Searcher,
// restricted to eligible keys: those that hold the query's byte at minMatch or
// more positions. A storage node drops every candidate below the search's
// percent identity right after the lookup (§V-B), so it passes that threshold
// as a count and gets the k nearest keys that can survive, not k keys of
// which most cannot. The traversal is the unrestricted one — an ineligible
// key still costs one evaluation of the budget and counts as one visit — but
// a leaf scan screens keys by an exact match count (metric.MatchCounts) and
// pays for a distance only on the few that reach minMatch. tau is the k-th
// best eligible distance, so pruning never cuts a subtree that could hold a
// closer eligible key. minMatch 0 makes every key eligible.
func (s *Searcher) NearestEligible(t *Tree, query []byte, k, budget, minMatch int) ([]Result, int) {
	if k <= 0 || t.root == nil {
		return nil, 0
	}
	if len(query) != t.stride {
		panic(fmt.Sprintf("vptree: query length %d, index keys are %d", len(query), t.stride))
	}
	s.query, s.minMatch = query, minMatch
	if _, s.matchDist = t.metric.(metric.Hamming); !s.matchDist {
		s.prof = t.metric.Profile(query, s.prof)
	}
	s.heap = s.heap[:0]
	s.k, s.tau, s.visits = k, math.MaxInt, 0
	s.remaining = budget
	if budget <= 0 {
		s.remaining = math.MaxInt
	}
	s.visit(t.root)
	s.query = nil
	// Drain the heap into ascending order.
	out := make([]Result, len(s.heap))
	for i := len(out) - 1; i >= 0; i-- {
		out[i] = s.heap.popWorst()
	}
	return out, s.visits
}

// distance is the metric distance from the query to key.
func (s *Searcher) distance(key []byte) int {
	if s.matchDist {
		return len(key) - metric.MatchCount(s.query, key)
	}
	return s.prof.Distance(key)
}

func (s *Searcher) visit(n *node) {
	if n == nil || s.remaining <= 0 {
		return
	}
	if n.refs != nil {
		s.scan(n.slab)
		return
	}
	s.remaining--
	s.visits++
	d, mu := s.distance(n.keys), int(n.mu)
	if d <= mu {
		// Query inside the vantage ball: left first, and the right
		// subtree only if the tau-ball crosses the boundary
		// (case 3 of §III-C; cases 1 and 2 are the prunes).
		s.visit(n.left)
		if d+s.tau > mu || len(s.heap) < s.k {
			s.visit(n.right)
		}
	} else {
		s.visit(n.right)
		if d-s.tau <= mu || len(s.heap) < s.k {
			s.visit(n.left)
		}
	}
}

// scan evaluates a leaf's keys in slab order until the budget runs out.
// Unscreened, one pass of the distance kernel scores the whole leaf. Screened
// (or when matches are the distance), one pass counts matches; most leaves
// hold no eligible key and end there, in the others eligible keys get their
// distance and the rest +inf, which no tau admits.
func (s *Searcher) scan(leaf slab) {
	n := len(leaf.refs)
	if n > s.remaining {
		n = s.remaining
	}
	s.remaining -= n
	s.visits += n
	s.buf = slices.Grow(s.buf[:0], n)[:n]
	stride, tau := len(s.query), s.tau
	if s.minMatch == 0 && !s.matchDist {
		s.prof.Distances(s.buf, leaf.keys[:n*stride])
	} else {
		if metric.MatchCounts(s.buf, s.query, leaf.keys[:n*stride]) < s.minMatch {
			return
		}
		for i, matches := range s.buf {
			switch {
			case matches < s.minMatch:
				s.buf[i] = math.MaxInt
			case s.matchDist:
				s.buf[i] = stride - matches
			default:
				s.buf[i] = s.prof.Distance(leaf.key(i, stride))
			}
		}
	}
	for i, d := range s.buf {
		if d < tau { // tau is +inf while the heap holds fewer than k
			s.heap.push(Result{Item: Item{Key: leaf.key(i, stride), Ref: leaf.refs[i]}, Dist: d}, s.k)
			if len(s.heap) == s.k {
				tau = s.heap[0].Dist
			}
		}
	}
	s.tau = tau
}
