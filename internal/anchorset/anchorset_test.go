package anchorset

import (
	"math/rand"
	"testing"
	"testing/quick"

	"mendel/internal/seq"
	"mendel/internal/wire"
)

func a(seqID uint32, qs, qe, ss, se, score int) wire.Anchor {
	return wire.Anchor{Seq: 1, QStart: qs, QEnd: qe, SStart: ss, SEnd: se, Score: score}
}

func TestMergeOverlappingSameDiagonal(t *testing.T) {
	// Two anchors on diagonal +5 overlapping in subject space.
	in := []wire.Anchor{
		{Seq: 1, QStart: 0, QEnd: 10, SStart: 5, SEnd: 15, Score: 20},
		{Seq: 1, QStart: 8, QEnd: 20, SStart: 13, SEnd: 25, Score: 30},
	}
	out := Merge(in)
	if len(out) != 1 {
		t.Fatalf("merged = %d anchors", len(out))
	}
	m := out[0]
	if m.SStart != 5 || m.SEnd != 25 || m.QStart != 0 || m.QEnd != 20 {
		t.Fatalf("merged span = %+v", m)
	}
	if m.Score != 30 {
		t.Fatalf("merged score = %d", m.Score)
	}
}

func TestMergeTouchingAnchors(t *testing.T) {
	in := []wire.Anchor{
		{Seq: 1, QStart: 0, QEnd: 10, SStart: 0, SEnd: 10, Score: 10},
		{Seq: 1, QStart: 10, QEnd: 20, SStart: 10, SEnd: 20, Score: 12},
	}
	out := Merge(in)
	if len(out) != 1 || out[0].SEnd != 20 {
		t.Fatalf("merge of touching anchors = %+v", out)
	}
}

func TestMergeKeepsDistinctDiagonalsAndSeqs(t *testing.T) {
	in := []wire.Anchor{
		{Seq: 1, QStart: 0, QEnd: 10, SStart: 0, SEnd: 10, Score: 10},
		{Seq: 1, QStart: 0, QEnd: 10, SStart: 3, SEnd: 13, Score: 10},  // diag +3
		{Seq: 2, QStart: 0, QEnd: 10, SStart: 0, SEnd: 10, Score: 10},  // other seq
		{Seq: 1, QStart: 0, QEnd: 10, SStart: 50, SEnd: 60, Score: 10}, // disjoint... diag +50
	}
	out := Merge(in)
	if len(out) != 4 {
		t.Fatalf("merged = %d anchors, want 4", len(out))
	}
}

func TestMergeDisjointSameDiagonal(t *testing.T) {
	in := []wire.Anchor{
		{Seq: 1, QStart: 0, QEnd: 5, SStart: 0, SEnd: 5, Score: 8},
		{Seq: 1, QStart: 20, QEnd: 25, SStart: 20, SEnd: 25, Score: 9},
	}
	if out := Merge(in); len(out) != 2 {
		t.Fatalf("disjoint anchors merged: %+v", out)
	}
}

func TestMergeEmptyAndSingle(t *testing.T) {
	if Merge(nil) != nil {
		t.Fatal("Merge(nil) != nil")
	}
	one := []wire.Anchor{{Seq: 1, QEnd: 5, SEnd: 5, Score: 3}}
	if out := Merge(one); len(out) != 1 || out[0] != one[0] {
		t.Fatalf("single merge = %+v", out)
	}
}

func TestMergeIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func() bool {
		n := rng.Intn(30)
		in := make([]wire.Anchor, n)
		for i := range in {
			qs := rng.Intn(50)
			l := rng.Intn(20) + 1
			d := rng.Intn(10)
			in[i] = wire.Anchor{
				Seq: seq.ID(1 + rng.Intn(3)), QStart: qs, QEnd: qs + l,
				SStart: qs + d, SEnd: qs + d + l, Score: rng.Intn(100),
			}
		}
		once := Merge(in)
		twice := Merge(once)
		if len(once) != len(twice) {
			return false
		}
		for i := range once {
			if once[i] != twice[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMergeOrderInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	f := func() bool {
		n := rng.Intn(20) + 2
		in := make([]wire.Anchor, n)
		for i := range in {
			qs := rng.Intn(40)
			l := rng.Intn(15) + 1
			in[i] = wire.Anchor{Seq: 1, QStart: qs, QEnd: qs + l, SStart: qs + 5, SEnd: qs + 5 + l, Score: rng.Intn(50)}
		}
		shuffled := append([]wire.Anchor(nil), in...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		a, b := Merge(in), Merge(shuffled)
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBest(t *testing.T) {
	in := []wire.Anchor{
		{Seq: 1, SStart: 0, Score: 5},
		{Seq: 1, SStart: 1, Score: 50},
		{Seq: 1, SStart: 2, Score: 20},
	}
	best := Best(in, 2)
	if len(best) != 2 || best[0].Score != 50 || best[1].Score != 20 {
		t.Fatalf("best = %+v", best)
	}
	if got := Best(in, 0); got != nil {
		t.Fatal("Best(0) should be nil")
	}
	if got := Best(in, 10); len(got) != 3 {
		t.Fatal("Best clamping wrong")
	}
	// Input order preserved.
	if in[0].Score != 5 {
		t.Fatal("Best mutated input")
	}
}

// TestGateBeforeMergeKeepsCandidates: storage nodes drop anchors below the
// S threshold before their merge, not after the coordinator's. Over random
// anchors from a few nodes, gating first and merging at node, group and
// system level must leave the same (sequence, diagonal, best score)
// candidates after PerDiagonal as merging at every level and gating last.
// The gate is a raw score threshold: a bit score is monotone in it.
func TestGateBeforeMergeKeepsCandidates(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	gate := func(in []wire.Anchor, threshold int) []wire.Anchor {
		var out []wire.Anchor
		for _, a := range in {
			if a.Score >= threshold {
				out = append(out, a)
			}
		}
		return out
	}
	f := func() bool {
		threshold := rng.Intn(60)
		var early, late []wire.Anchor // what the group entry point receives
		for range rng.Intn(4) + 1 {
			in := make([]wire.Anchor, rng.Intn(40))
			for i := range in {
				qs, l, d := rng.Intn(60), rng.Intn(20)+1, rng.Intn(8)-4
				in[i] = wire.Anchor{Seq: seq.ID(1 + rng.Intn(3)), QStart: qs, QEnd: qs + l,
					SStart: qs + d, SEnd: qs + d + l, Score: rng.Intn(80) - 10}
			}
			early = append(early, Merge(gate(in, threshold))...)
			late = append(late, Merge(in)...)
		}
		a := PerDiagonal(Merge(Merge(early)))
		b := PerDiagonal(gate(Merge(Merge(late)), threshold))
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i].Seq != b[i].Seq || a[i].Diagonal() != b[i].Diagonal() || a[i].Score != b[i].Score {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestPerDiagonal(t *testing.T) {
	in := []wire.Anchor{
		{Seq: 1, QStart: 0, QEnd: 5, SStart: 10, SEnd: 15, Score: 7},
		{Seq: 2, QStart: 0, QEnd: 5, SStart: 10, SEnd: 15, Score: 9},
		{Seq: 1, QStart: 20, QEnd: 30, SStart: 30, SEnd: 40, Score: 12}, // diagonal 10 again
		{Seq: 1, QStart: 0, QEnd: 5, SStart: 11, SEnd: 16, Score: 3},
	}
	got := PerDiagonal(in)
	want := []wire.Anchor{in[2], in[3], in[1]}
	if len(got) != len(want) {
		t.Fatalf("PerDiagonal = %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("PerDiagonal = %+v, want %+v", got, want)
		}
	}
	if in[0].Score != 7 || PerDiagonal(nil) != nil {
		t.Fatal("PerDiagonal modified its input or made candidates from none")
	}
}
