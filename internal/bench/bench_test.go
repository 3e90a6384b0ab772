package bench

import (
	"strings"
	"testing"
)

func TestScaleValidate(t *testing.T) {
	if err := DefaultScale().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := TestScale().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := TestScale()
	bad.Nodes = 1
	bad.Groups = 2
	if err := bad.Validate(); err == nil {
		t.Error("nodes < groups accepted")
	}
	bad = TestScale()
	bad.QueriesPerPoint = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero queries accepted")
	}
}

func TestTableI(t *testing.T) {
	out := TableI()
	for _, param := range []string{"k", "n", "i", "c", "M", "S", "l", "E", "BLOSUM62"} {
		if !strings.Contains(out, param) {
			t.Errorf("Table I missing %q:\n%s", param, out)
		}
	}
}

func TestFig5ShapesHold(t *testing.T) {
	res, err := RunFig5(TestScale())
	if err != nil {
		t.Fatal(err)
	}
	s := TestScale()
	if len(res.Nodes) != s.Nodes {
		t.Fatalf("nodes = %d", len(res.Nodes))
	}
	sumFlat, sumTwo := 0.0, 0.0
	for i := range res.Nodes {
		sumFlat += res.FlatPct[i]
		sumTwo += res.TwoTierPct[i]
	}
	if sumFlat < 99.9 || sumFlat > 100.1 || sumTwo < 99.9 || sumTwo > 100.1 {
		t.Fatalf("shares do not sum to 100: flat=%f two-tier=%f", sumFlat, sumTwo)
	}
	// The flat hash is the balance gold standard; two-tier should not be
	// catastrophically worse (the paper reports <=1pp gap at 50 nodes;
	// tiny scales are noisier so assert a loose bound).
	if Spread(res.TwoTierPct) > 20*Spread(res.FlatPct)+25 {
		t.Fatalf("two-tier spread %f implausibly worse than flat %f",
			Spread(res.TwoTierPct), Spread(res.FlatPct))
	}
	out := res.Render()
	if !strings.Contains(out, "two-tier") || !strings.Contains(out, "spread") {
		t.Fatalf("render:\n%s", out)
	}
}

func TestSpreadAndStdev(t *testing.T) {
	if Spread(nil) != 0 || Stdev(nil) != 0 {
		t.Fatal("empty series")
	}
	if got := Spread([]float64{1, 5, 3}); got != 4 {
		t.Fatalf("spread = %f", got)
	}
	if got := Stdev([]float64{2, 2, 2}); got != 0 {
		t.Fatalf("stdev = %f", got)
	}
}

func TestFig6aRuns(t *testing.T) {
	res, err := RunFig6a(TestScale(), []int{64, 128})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("points = %d", len(res.Points))
	}
	for _, p := range res.Points {
		if p.MendelMS < 0 || p.BlastMS < 0 {
			t.Fatalf("negative time: %+v", p)
		}
		// The queries were sampled from the database: both systems should
		// find their homolog.
		if p.MendelHits == 0 {
			t.Fatalf("mendel found nothing at length %.0f", p.X)
		}
		if p.BlastHits == 0 {
			t.Fatalf("blast found nothing at length %.0f", p.X)
		}
	}
	if !strings.Contains(res.Render(), "query len") {
		t.Fatal("render missing x label")
	}
}

func TestFig6bRuns(t *testing.T) {
	res, err := RunFig6b(TestScale(), []int{10, 20}, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("points = %d", len(res.Points))
	}
	if res.Points[1].X <= res.Points[0].X {
		t.Fatal("db sizes not increasing")
	}
}

func TestFig6cRuns(t *testing.T) {
	res, err := RunFig6c(TestScale(), []int{2, 4}, 64)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 || res.Points[0].Nodes != 2 || res.Points[1].Nodes != 4 {
		t.Fatalf("points = %+v", res.Points)
	}
	if !strings.Contains(res.Render(), "cluster size") {
		t.Fatal("render wrong")
	}
}

func TestFig6dRecallShape(t *testing.T) {
	s := TestScale()
	s.DBSequences = 10
	res, err := RunFig6d(s, []float64{0.9, 0.5}, 5, 300)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("points = %d", len(res.Points))
	}
	high := res.Points[0]
	if high.MendelRecall < 0.99 {
		t.Fatalf("mendel recall at 90%% similarity = %f, want ~1", high.MendelRecall)
	}
	if high.BlastRecall < 0.99 {
		t.Fatalf("blast recall at 90%% similarity = %f, want ~1", high.BlastRecall)
	}
	for _, p := range res.Points {
		if p.MendelRecall < 0 || p.MendelRecall > 1 || p.BlastRecall < 0 || p.BlastRecall > 1 {
			t.Fatalf("recall out of range: %+v", p)
		}
	}
	if !strings.Contains(res.Render(), "sensitivity") {
		t.Fatal("render wrong")
	}
}

func TestAblateDepth(t *testing.T) {
	res, err := RunAblateDepth(TestScale(), []int{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("points = %d", len(res.Points))
	}
	for _, p := range res.Points {
		if p.HashNS <= 0 {
			t.Fatalf("hash cost = %f", p.HashNS)
		}
		if p.SpreadPct < 0 || p.SpreadPct > 100 {
			t.Fatalf("spread = %f", p.SpreadPct)
		}
	}
	if !strings.Contains(res.Render(), "depth") {
		t.Fatal("render wrong")
	}
}

func TestAblateTier2ShowsParallelismLoss(t *testing.T) {
	res, err := RunAblateTier2(TestScale())
	if err != nil {
		t.Fatal(err)
	}
	// The flat hash should spread each block neighbourhood across at least
	// as many nodes as the similarity-grouping vp placement — that is the
	// paper's §V-A2 argument for keeping SHA-1 inside groups.
	if res.FlatTouchedAvg < res.VPTouchedAvg {
		t.Fatalf("flat touches %.2f nodes < vp %.2f — ablation contradicts the design rationale",
			res.FlatTouchedAvg, res.VPTouchedAvg)
	}
	if !strings.Contains(res.Render(), "SHA-1") {
		t.Fatal("render wrong")
	}
}

func TestAblateInsert(t *testing.T) {
	s := TestScale()
	s.DBSequences = 5 // 500 items
	res, err := RunAblateInsert(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Items != 500 {
		t.Fatalf("items = %d", res.Items)
	}
	if res.Build <= 0 || res.Batched <= 0 || res.OneByOne <= 0 {
		t.Fatal("missing timings")
	}
	if !strings.Contains(res.Render(), "bulk build") {
		t.Fatal("render wrong")
	}
}

func TestAblateBucket(t *testing.T) {
	s := TestScale()
	s.DBSequences = 5
	res, err := RunAblateBucket(s, []int{1, 32})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("points = %d", len(res.Points))
	}
	// Bigger buckets make shorter trees.
	if res.Points[1].Height >= res.Points[0].Height {
		t.Fatalf("bucket 32 height %d >= bucket 1 height %d",
			res.Points[1].Height, res.Points[0].Height)
	}
}

func TestTableRendering(t *testing.T) {
	out := table([]string{"a", "long-header"}, [][]string{{"xxxxxx", "1"}, {"y", "22"}})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d", len(lines))
	}
	if len(lines[0]) != len(lines[1]) {
		t.Fatalf("header and separator misaligned:\n%s", out)
	}
}
