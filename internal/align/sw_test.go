package align

import (
	"math/rand"
	"testing"

	"mendel/internal/matrix"
)

// refLocalScore is an independent O(n*m) reference implementation of local
// affine-gap alignment scoring (score only, no traceback) used to validate
// the production DP.
func refLocalScore(q, s []byte, m *matrix.Matrix) int {
	openCost := m.GapOpen + m.GapExtend
	extCost := m.GapExtend
	qn, sn := len(q), len(s)
	H := make([][]int, qn+1)
	E := make([][]int, qn+1) // gap in subject (consumes query)
	F := make([][]int, qn+1) // gap in query (consumes subject)
	for i := range H {
		H[i] = make([]int, sn+1)
		E[i] = make([]int, sn+1)
		F[i] = make([]int, sn+1)
		for j := range E[i] {
			E[i][j] = negInf
			F[i][j] = negInf
		}
	}
	best := 0
	for i := 1; i <= qn; i++ {
		for j := 1; j <= sn; j++ {
			E[i][j] = max2(H[i-1][j]-openCost, E[i-1][j]-extCost)
			F[i][j] = max2(H[i][j-1]-openCost, F[i][j-1]-extCost)
			h := H[i-1][j-1] + m.Score(q[i-1], s[j-1])
			h = max2(h, E[i][j])
			h = max2(h, F[i][j])
			if h < 0 {
				h = 0
			}
			H[i][j] = h
			if h > best {
				best = h
			}
		}
	}
	return best
}

func max2(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// scoreFromOps recomputes an alignment's score from its traceback.
func scoreFromOps(a Alignment, q, s []byte, m *matrix.Matrix) int {
	score := 0
	qi, si := a.QStart, a.SStart
	for _, op := range a.Ops {
		switch op.Op {
		case OpMatch:
			for k := 0; k < op.Len; k++ {
				score += m.Score(q[qi], s[si])
				qi++
				si++
			}
		case OpInsert:
			score -= m.GapOpen + op.Len*m.GapExtend
			qi += op.Len
		case OpDelete:
			score -= m.GapOpen + op.Len*m.GapExtend
			si += op.Len
		}
	}
	return score
}

func randomProtein(rng *rand.Rand, n int) []byte {
	const standard = "ARNDCQEGHILKMFPSTWYV"
	out := make([]byte, n)
	for i := range out {
		out[i] = standard[rng.Intn(len(standard))]
	}
	return out
}

func mutate(rng *rand.Rand, in []byte, subs, indels int) []byte {
	out := append([]byte(nil), in...)
	const standard = "ARNDCQEGHILKMFPSTWYV"
	for k := 0; k < subs && len(out) > 0; k++ {
		out[rng.Intn(len(out))] = standard[rng.Intn(len(standard))]
	}
	for k := 0; k < indels && len(out) > 1; k++ {
		p := rng.Intn(len(out))
		if rng.Intn(2) == 0 {
			out = append(out[:p], out[p+1:]...)
		} else {
			out = append(out[:p], append([]byte{standard[rng.Intn(len(standard))]}, out[p:]...)...)
		}
	}
	return out
}

func TestSmithWatermanIdenticalSequences(t *testing.T) {
	q := []byte("MKVLAAGWTY")
	a := SmithWaterman(q, q, matrix.BLOSUM62)
	if a.QStart != 0 || a.QEnd != len(q) || a.SStart != 0 || a.SEnd != len(q) {
		t.Fatalf("self alignment span = %+v", a.Segment)
	}
	want := matrix.BLOSUM62.ScoreSegments(q, q)
	if a.Score != want {
		t.Fatalf("score = %d, want %d", a.Score, want)
	}
	if a.Identity(q, q) != 1.0 {
		t.Fatal("self identity != 1")
	}
}

func TestSmithWatermanNoPositiveAlignment(t *testing.T) {
	a := SmithWaterman([]byte("WWWW"), []byte("PPPP"), matrix.BLOSUM62)
	if a.Score != 0 || len(a.Ops) != 0 {
		t.Fatalf("expected empty alignment, got %+v", a)
	}
	if got := SmithWaterman(nil, []byte("AA"), matrix.BLOSUM62); got.Score != 0 {
		t.Fatal("empty query should produce empty alignment")
	}
}

func TestSmithWatermanKnownGap(t *testing.T) {
	// Query has a 3-residue deletion relative to the subject; with DNA
	// scoring (+1/-2, gaps 5/2) the best local alignment bridges the gap
	// when flanks are long enough.
	q := []byte("ACGTACGTACGTACGTACGTACGTACGTACGT")
	s := []byte("ACGTACGTACGTACGTTTTACGTACGTACGTACGT")
	a := SmithWaterman(q, s, matrix.DNAUnit)
	if err := a.consistent(); err != nil {
		t.Fatal(err)
	}
	if a.AlignedLength() == a.QLen() && a.AlignedLength() == a.SLen() {
		t.Fatalf("expected gapped alignment, got CIGAR %s", a.CIGAR())
	}
	if got := scoreFromOps(a, q, s, matrix.DNAUnit); got != a.Score {
		t.Fatalf("traceback score %d != DP score %d", got, a.Score)
	}
}

func TestSmithWatermanMatchesReferenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		q := randomProtein(rng, rng.Intn(40)+1)
		s := randomProtein(rng, rng.Intn(40)+1)
		// Half the trials plant a homologous region for positive scores.
		if trial%2 == 0 && len(q) > 10 {
			s = append(s, mutate(rng, q, 2, 1)...)
		}
		want := refLocalScore(q, s, matrix.BLOSUM62)
		a := SmithWaterman(q, s, matrix.BLOSUM62)
		if a.Score != want {
			t.Fatalf("trial %d: DP score %d, reference %d (q=%s s=%s)", trial, a.Score, want, q, s)
		}
		if err := a.consistent(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if a.Score > 0 {
			if got := scoreFromOps(a, q, s, matrix.BLOSUM62); got != a.Score {
				t.Fatalf("trial %d: traceback score %d != %d (CIGAR %s)", trial, got, a.Score, a.CIGAR())
			}
		}
	}
}

func TestSmithWatermanSymmetricScore(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 25; trial++ {
		q := randomProtein(rng, 30)
		s := mutate(rng, q, 4, 1)
		if SmithWaterman(q, s, matrix.BLOSUM62).Score != SmithWaterman(s, q, matrix.BLOSUM62).Score {
			t.Fatalf("trial %d: asymmetric SW score", trial)
		}
	}
}
