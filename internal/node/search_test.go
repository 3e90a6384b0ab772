package node

import (
	"context"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"mendel/internal/align"
	"mendel/internal/anchorset"
	"mendel/internal/matrix"
	"mendel/internal/metric"
	"mendel/internal/seq"
	"mendel/internal/wire"
)

// cScore is the paper's consecutivity score: of the matching positions, the
// fraction that sit in runs of at least two. For protein data a position
// "matches" when the scoring matrix gives the substitution a positive score
// (§V-B); exact equality always matches. A lookup reads this score from the
// screen's planes (screen.cScore); this byte form is the reference the tests
// hold it to.
func cScore(window, candidate []byte, m *matrix.Matrix) float64 {
	n := len(window)
	if n == 0 {
		return 0
	}
	matched := make([]bool, n)
	total := 0
	for i := 0; i < n; i++ {
		ok := window[i] == candidate[i] || m.Score(window[i], candidate[i]) > 0
		matched[i] = ok
		if ok {
			total++
		}
	}
	if total == 0 {
		return 0
	}
	consecutive := 0
	for i := 0; i < n; i++ {
		if !matched[i] {
			continue
		}
		if (i > 0 && matched[i-1]) || (i < n-1 && matched[i+1]) {
			consecutive++
		}
	}
	return float64(consecutive) / float64(total)
}

// TestMinMatchesIsTheIdentityFilter: for every window length, threshold and
// match count, "matches >= minMatches" decides exactly as the filter the
// lookup's screen replaced, float64(matches)/float64(w) >= identity.
func TestMinMatchesIsTheIdentityFilter(t *testing.T) {
	thresholds := []float64{0, 1e-9, 0.05, 0.25, 0.3, 0.3125, 1.0 / 3, 0.5, 0.7, 0.9999, 1, 1.5}
	for w := 1; w <= 33; w++ {
		for m := 0; m <= w; m++ {
			thresholds = append(thresholds, float64(m)/float64(w)) // exact boundaries
		}
	}
	for _, w := range []int{1, 7, 16, 19, 32, 33} {
		for _, identity := range thresholds {
			min := minMatches(identity, w)
			for matches := 0; matches <= w; matches++ {
				if want := float64(matches)/float64(w) >= identity; (matches >= min) != want {
					t.Fatalf("w=%d identity=%v: %d matches pass=%v, minMatches=%d", w, identity, matches, want, min)
				}
			}
		}
	}
	if got := minMatches(0.30, 16); got != 5 {
		t.Fatalf("default identity 0.30 over a 16-residue window needs %d matches, want 5", got)
	}
}

func TestCScoreExactRuns(t *testing.T) {
	m := matrix.DNAUnit
	// All matches consecutive: c = 1.
	if got := cScore([]byte("ACGTACGT"), []byte("ACGTACGT"), m); got != 1.0 {
		t.Fatalf("full match c-score = %f", got)
	}
	// Matches at alternating positions: no runs, c = 0.
	// window A C A C A C  vs  A G A G A G -> matches at 0,2,4 isolated.
	if got := cScore([]byte("ACACAC"), []byte("AGAGAG"), m); got != 0.0 {
		t.Fatalf("isolated matches c-score = %f", got)
	}
	// AACGTA vs AATGCA matches at 0,1 (a run), 3 and 5 (isolated):
	// 2 of 4 matched positions are consecutive -> 0.5.
	if got := cScore([]byte("AACGTA"), []byte("AATGCA"), m); got != 0.5 {
		t.Fatalf("mixed c-score = %f, want 0.5", got)
	}
	// No matches at all.
	if got := cScore([]byte("AAAA"), []byte("TTTT"), m); got != 0 {
		t.Fatalf("no-match c-score = %f", got)
	}
	if cScore(nil, nil, m) != 0 {
		t.Fatal("empty c-score should be 0")
	}
}

func TestCScorePositiveSubstitutionsCountForProtein(t *testing.T) {
	m := matrix.BLOSUM62
	// I/L scores +2: treated as successive match even though not equal.
	window := []byte("ILIL")
	cand := []byte("LILI")
	if got := cScore(window, cand, m); got != 1.0 {
		t.Fatalf("conservative substitution c-score = %f, want 1", got)
	}
	// W vs G scores negative: not a match.
	if got := cScore([]byte("WWWW"), []byte("GGGG"), m); got != 0 {
		t.Fatalf("radical substitution c-score = %f, want 0", got)
	}
}

func TestExtendAnchorCoordinates(t *testing.T) {
	// Block from subject positions [10,18) with context [6,22) (CtxOff 4).
	subject := []byte("TTTTTTGGACGTACGTGGCCTT")
	block := blockAt(subject, 5, 10, 8, 4)
	query := []byte("ACGTACGT")
	a := extendAnchor(query, 0, 8, block, matrix.DNAUnit)
	if a.Seq != 5 {
		t.Fatalf("seq = %d", a.Seq)
	}
	if a.SStart < 6 || a.SEnd > 22 {
		t.Fatalf("anchor escaped context: %+v", a)
	}
	if a.SStart > 10 || a.SEnd < 18 {
		t.Fatalf("anchor does not cover seed: %+v", a)
	}
	if a.QEnd-a.QStart != a.SEnd-a.SStart {
		t.Fatalf("ungapped anchor with unequal spans: %+v", a)
	}
}

// blockAt builds a wire.Block for subject[start:start+w] with margin residues
// of context on each side (clamped).
func blockAt(subject []byte, seqID seq.ID, start, w, margin int) wire.Block {
	ctxStart := start - margin
	if ctxStart < 0 {
		ctxStart = 0
	}
	ctxEnd := start + w + margin
	if ctxEnd > len(subject) {
		ctxEnd = len(subject)
	}
	return wire.Block{
		Seq:     seqID,
		Start:   start,
		Content: subject[start : start+w],
		Context: subject[ctxStart:ctxEnd],
		CtxOff:  start - ctxStart,
	}
}

// TestLocalSearchWorkers pins the pool-sizing rules: floored at one worker
// (single-core runners must not compute zero workers and hang), capped at
// the window count, and never more than half the cores.
func TestLocalSearchWorkers(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	runtime.GOMAXPROCS(1)
	if got := localSearchWorkers(100); got != 1 {
		t.Errorf("GOMAXPROCS=1: workers = %d, want 1", got)
	}
	runtime.GOMAXPROCS(8)
	if got := localSearchWorkers(100); got != 4 {
		t.Errorf("GOMAXPROCS=8: workers = %d, want 4", got)
	}
	if got := localSearchWorkers(2); got != 2 {
		t.Errorf("GOMAXPROCS=8, 2 offsets: workers = %d, want 2", got)
	}
	if got := localSearchWorkers(0); got != 0 {
		t.Errorf("0 offsets: workers = %d, want 0", got)
	}
}

// TestLocalSearchIsFilterThenExtend: with more neighbours asked for than
// blocks stored, a local search anchors exactly the blocks whose content
// passes the identity and c-score filters, computed here from the block
// store with float identities — so the screen's match count decides as the
// filter it replaced, and scoring a candidate's content is scoring the
// block's. S is a search parameter, and this test checks filter and
// extension: a DNA anchor reaches S's default 28 bits only past 14 matching
// residues, which few 8-mer anchors here do, so most cases set S to 0; the
// default-S cases apply the same gate to the anchors they expect.
func TestLocalSearchIsFilterThenExtend(t *testing.T) {
	const w = 8
	_, nodes, _ := testCluster(t, 1, w)
	n := nodes[0]
	ctx := context.Background()
	rng := rand.New(rand.NewSource(5))
	var blocks []wire.Block
	var first []byte
	for id := seq.ID(1); id <= 6; id++ {
		data := randDNA(rng, 90)
		if id == 1 {
			first = data
		}
		blocks = append(blocks, blocksFor(t, id, string(data), w)...)
	}
	if _, err := n.Handle(ctx, wire.IndexBlocks{Blocks: blocks}); err != nil {
		t.Fatal(err)
	}
	m, _ := matrix.ByName("DNA")
	kp, err := align.ParamsForMatrix(m)
	if err != nil {
		t.Fatal(err)
	}
	query := randDNA(rng, 40)
	offsets := []int{0, 7, 16, 32}
	copy(query, first[2:18])              // full matches at offsets 0 and 7 that extend to 16 residues
	copy(query[16:], blocks[200].Content) // and 7 of 8 at offset 16
	if query[19] == 'A' {
		query[19] = 'C'
	} else {
		query[19] = 'A'
	}
	defaultS := wire.DefaultParams().GappedS
	for _, c := range []struct {
		identity float64
		s        int
	}{{0, 0}, {0.3, 0}, {0.5, 0}, {0.625, 0}, {0.9, 0}, {0.3, defaultS}, {0.9, defaultS}} {
		params := wire.DefaultParams()
		params.Matrix, params.Identity, params.CScore, params.Neighbors, params.GappedS = "DNA", c.identity, 0.4, len(blocks)+1, c.s
		resp, err := n.Handle(ctx, wire.LocalSearch{Query: query, Offsets: offsets, WindowLen: w, Params: params})
		if err != nil {
			t.Fatal(err)
		}
		var want []wire.Anchor
		for _, off := range offsets {
			window := query[off : off+w]
			for _, b := range blocks {
				same := w - metric.Hamming{}.Distance(window, b.Content)
				if float64(same)/float64(w) < c.identity || cScore(window, b.Content, m) < params.CScore {
					continue
				}
				if a := extendAnchor(query, off, w, b, m); kp.BitScore(a.Score) >= float64(c.s) {
					want = append(want, a)
				}
			}
		}
		want = anchorset.Merge(want)
		got := resp.(wire.LocalSearchResult).Anchors
		if len(want) == 0 || !reflect.DeepEqual(got, want) {
			t.Fatalf("identity %v, S %d: %d anchors, filter-then-extend over the block store gives %d\n got  %+v\n want %+v", c.identity, c.s, len(got), len(want), got, want)
		}
	}
}

// TestLocalSearchShipsOnlyAnchorsAboveS: a node ships no anchor below the
// search's S, and what it ships is what an S gate after the merge would let
// through, one candidate per (sequence, diagonal) with the same best score —
// so the coordinator's gapped stage sees the same candidates as when every
// anchor crossed the wire.
func TestLocalSearchShipsOnlyAnchorsAboveS(t *testing.T) {
	const w = 8
	_, nodes, _ := testCluster(t, 1, w)
	n := nodes[0]
	ctx := context.Background()
	rng := rand.New(rand.NewSource(11))
	data := randDNA(rng, 400)
	if _, err := n.Handle(ctx, wire.IndexBlocks{Blocks: blocksFor(t, 1, string(data), w)}); err != nil {
		t.Fatal(err)
	}
	m, _ := matrix.ByName("DNA")
	kp, err := align.ParamsForMatrix(m)
	if err != nil {
		t.Fatal(err)
	}
	query := randDNA(rng, 120)
	copy(query[40:], data[200:230]) // one strong diagonal among chance hits
	var offsets []int
	for off := 0; off+w <= len(query); off += 4 {
		offsets = append(offsets, off)
	}
	search := func(s int) []wire.Anchor {
		t.Helper()
		params := wire.DefaultParams()
		params.Matrix, params.Identity, params.Neighbors, params.GappedS = "DNA", 0.5, 50, s
		resp, err := n.Handle(ctx, wire.LocalSearch{Query: query, Offsets: offsets, WindowLen: w, Params: params})
		if err != nil {
			t.Fatal(err)
		}
		return resp.(wire.LocalSearchResult).Anchors
	}
	all, shipped := search(0), search(wire.DefaultParams().GappedS)
	s := float64(wire.DefaultParams().GappedS)
	var above []wire.Anchor
	for _, a := range all {
		if kp.BitScore(a.Score) >= s {
			above = append(above, a)
		}
	}
	if len(shipped) == 0 || len(above) == len(all) {
		t.Fatalf("%d anchors without S, %d of them above it, %d shipped: the data does not test the gate", len(all), len(above), len(shipped))
	}
	for _, a := range shipped {
		if kp.BitScore(a.Score) < s {
			t.Fatalf("shipped anchor %+v scores %.1f bits, below S = %v", a, kp.BitScore(a.Score), s)
		}
	}
	if got, want := anchorset.PerDiagonal(shipped), anchorset.PerDiagonal(above); !sameCandidates(got, want) {
		t.Fatalf("gated on the node: %+v\ngated after the merge: %+v", got, want)
	}
}

// sameCandidates reports whether two PerDiagonal results name the same
// (sequence, diagonal, score) candidates.
func sameCandidates(a, b []wire.Anchor) bool {
	return slices.EqualFunc(a, b, func(x, y wire.Anchor) bool {
		return x.Seq == y.Seq && x.Diagonal() == y.Diagonal() && x.Score == y.Score
	})
}
