package wire

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"testing"
	"testing/quick"

	"mendel/internal/seq"
)

func TestDefaultParamsValid(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestParamsValidateRanges(t *testing.T) {
	mutations := []func(*Params){
		func(p *Params) { p.Step = 0 },
		func(p *Params) { p.Neighbors = 0 },
		func(p *Params) { p.Identity = -0.1 },
		func(p *Params) { p.Identity = 1.1 },
		func(p *Params) { p.CScore = -0.1 },
		func(p *Params) { p.CScore = 1.5 },
		func(p *Params) { p.Matrix = "" },
		func(p *Params) { p.GappedS = -1 },
		func(p *Params) { p.Band = -1 },
		func(p *Params) { p.MaxE = -1 },
	}
	for i, mutate := range mutations {
		p := DefaultParams()
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestAnchorDiagonal(t *testing.T) {
	a := Anchor{QStart: 10, SStart: 25}
	if a.Diagonal() != 15 {
		t.Fatalf("diagonal = %d", a.Diagonal())
	}
	b := Anchor{QStart: 25, SStart: 10}
	if b.Diagonal() != -15 {
		t.Fatalf("negative diagonal = %d", b.Diagonal())
	}
}

// TestAllMessagesGobRoundTrip ensures every registered message survives the
// envelope encoding both transports rely on.
func TestAllMessagesGobRoundTrip(t *testing.T) {
	messages := []any{
		Ping{},
		Pong{Node: "n1"},
		Bootstrap{HashTree: []byte{1, 2}, Metric: "hamming", BlockLen: 16, Margin: 8, Groups: [][]string{{"a"}, {"b"}}},
		BootstrapAck{},
		IndexBlocks{Blocks: []Block{{Seq: 1, Start: 2, Content: []byte("ACGT"), Context: []byte("AACGTT"), CtxOff: 1}}},
		IndexBlocksAck{Accepted: 7},
		StoreSequences{IDs: []seq.ID{1, 2, 3}, Names: []string{"x", "y", "z"}, Data: [][]byte{{65}, {67}, {71}}},
		StoreSequencesAck{},
		FetchRegion{Seq: 9, Start: 1, End: 5},
		Region{Seq: 9, Start: 1, Data: []byte("CGT"), Len: 100},
		LocalSearch{Query: []byte("ACGTACGT"), Offsets: []int{0, 4}, WindowLen: 4, Params: DefaultParams()},
		LocalSearchResult{Anchors: []Anchor{{Seq: 1, QStart: 0, QEnd: 4, SStart: 2, SEnd: 6, Score: 8}}},
		GroupSearch{Group: 2, Query: []byte("ACGT"), Offsets: []int{0}, WindowLen: 4, Params: DefaultParams()},
		GroupSearchResult{},
		Stats{},
		StatsResult{Node: "n", Blocks: 1, Residues: 16, Sequences: 1, TreeSize: 1},
	}
	for _, msg := range messages {
		var buf bytes.Buffer
		box := struct{ V any }{msg}
		if err := gob.NewEncoder(&buf).Encode(&box); err != nil {
			t.Fatalf("%T: encode: %v", msg, err)
		}
		var out struct{ V any }
		if err := gob.NewDecoder(&buf).Decode(&out); err != nil {
			t.Fatalf("%T: decode: %v", msg, err)
		}
		if out.V == nil {
			t.Fatalf("%T: decoded nil", msg)
		}
	}
}

func TestParamsGobRoundTripProperty(t *testing.T) {
	f := func(step, neighbors uint8, identity, cscore float64) bool {
		p := Params{
			Step:      int(step),
			Neighbors: int(neighbors),
			Identity:  identity,
			CScore:    cscore,
			Matrix:    "BLOSUM62",
			GappedS:   28,
			Band:      8,
			MaxE:      10,
		}
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(p); err != nil {
			return false
		}
		var back Params
		if err := gob.NewDecoder(&buf).Decode(&back); err != nil {
			return false
		}
		// gob omits zero-value fields; reflexive equality still must hold
		// for our field types.
		return back.Matrix == p.Matrix && back.Step == p.Step && back.Identity == p.Identity
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBatchRuns(t *testing.T) {
	run := func(keys int) Run { return Run{Keys: make([]int, keys)} }
	runs := []Run{run(3), run(5), run(1), run(4), run(6), run(2)}
	var got [][]int
	for _, b := range BatchRuns(runs, 6) {
		var sizes []int
		for _, r := range b {
			sizes = append(sizes, len(r.Keys))
		}
		got = append(got, sizes)
	}
	if want := [][]int{{3, 5}, {1, 4, 6}, {2}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("batches of key counts %v, want %v", got, want)
	}
	if b := BatchRuns(nil, 6); b != nil {
		t.Fatalf("no runs: %v", b)
	}
}
