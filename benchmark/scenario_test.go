package main

import (
	"bytes"
	"testing"
)

func TestScenarioIsAFunctionOfTheSeed(t *testing.T) {
	for _, name := range workloadNames {
		a, err := buildScenario(name, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := buildScenario(name, 7)
		c, _ := buildScenario(name, 8)
		if a.Blocks != b.Blocks || len(a.Queries) != len(b.Queries) {
			t.Fatalf("%s: same seed, different shape", name)
		}
		for i := range a.Queries {
			if !bytes.Equal(a.Queries[i].Seq, b.Queries[i].Seq) || a.Queries[i].Source != b.Queries[i].Source {
				t.Fatalf("%s: same seed, query %d differs", name, i)
			}
		}
		if bytes.Equal(a.DB.Seqs[0].Data, c.DB.Seqs[0].Data) {
			t.Errorf("%s: seeds 7 and 8 generate the same database", name)
		}
		if !bytes.Equal(a.write(3).Seqs[0].Data, b.write(3).Seqs[0].Data) || bytes.Equal(a.write(3).Seqs[0].Data, a.write(4).Seqs[0].Data) {
			t.Errorf("%s: writes are not a function of (seed, index)", name)
		}
		planted := 0
		for i := range a.Queries {
			if q := &a.Queries[i]; q.Planted {
				planted++
				if q.SrcEnd-q.SrcStart != len(q.Seq) {
					t.Fatalf("%s: query %d coordinates do not span its length", name, i)
				}
			}
		}
		if planted == 0 || len(a.Probes) != 3*strataEach {
			t.Errorf("%s: %d planted queries, %d probes", name, planted, len(a.Probes))
		}
	}
	if _, err := buildScenario("nope", 1); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestFoundNeedsTheSourceAndAnOverlap(t *testing.T) {
	q := query{Planted: true, Source: "fam03_", SrcStart: 100, SrcEnd: 200}
	for _, c := range []struct {
		hit  hitRef
		want bool
	}{
		{hitRef{"fam03_s80_004", 150, 260}, true},
		{hitRef{"fam03_s80_004", 200, 260}, false}, // touches, does not overlap
		{hitRef{"fam04_s80_000", 150, 260}, false},
		{hitRef{"bg000003", 100, 200}, false},
	} {
		if got := q.found([]hitRef{c.hit}); got != c.want {
			t.Errorf("found(%+v) = %v, want %v", c.hit, got, c.want)
		}
	}
	if q.found(nil) {
		t.Error("found with no hits")
	}
}
