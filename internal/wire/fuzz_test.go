package wire

import (
	"bytes"
	"testing"

	"mendel/internal/obs"
	"mendel/internal/seq"
)

// sampleMessages returns one representative value per registered wire type,
// the seed corpus for FuzzDecode and the fixture for TestMarshalRoundTrip.
func sampleMessages() []any {
	return []any{
		Ping{},
		Pong{Node: "node-007", Booted: true},
		Bootstrap{
			HashTree: []byte{1, 2, 3},
			Metric:   "hamming",
			BlockLen: 16,
			Margin:   32,
			Groups:   [][]string{{"a", "b"}, {"c"}},
			Kind:     1,
		},
		BootstrapAck{},
		UpdateTopology{Groups: [][]string{{"a"}, {"b", "c"}}},
		UpdateTopologyAck{},
		IndexBlocks{Blocks: []Block{{
			Seq: 7, Start: 160, Content: []byte("ACGTACGTACGTACGT"),
			Context: []byte("TTACGTACGTACGTACGTAA"), CtxOff: 2,
		}}},
		IndexBlocks{Stage: true, Runs: []Run{
			{Seq: 7, Start: 128, Residues: []byte("TTACGTACGTACGTACGTAACGT"), Keys: []int{0, 1, 5, 7}},
			{Seq: 9, Residues: []byte("ACGTACGTACGTACGT"), Keys: []int{0}},
		}},
		IndexBlocksAck{Accepted: 1},
		BuildIndex{},
		BuildIndexAck{Items: 4096},
		StoreSequences{IDs: []seq.ID{1}, Names: []string{"chr1"}, Data: [][]byte{[]byte("ACGT")}},
		StoreSequencesAck{},
		FetchRegion{Seq: 3, Start: 10, End: 90},
		Region{Seq: 3, Start: 10, Data: []byte("ACGTACGT"), Len: 1000},
		LocalSearch{Query: []byte("MKVLAT"), Offsets: []int{0, 16}, WindowLen: 16, Params: DefaultParams()},
		LocalSearchResult{
			Anchors: []Anchor{{Seq: 1, QStart: 0, QEnd: 16, SStart: 100, SEnd: 116, Score: 42}},
			KNNNs:   1234, ExtendNs: 567, Visits: 89,
		},
		GroupSearch{Group: 1, Query: []byte("MKVLAT"), Offsets: []int{0}, WindowLen: 16, Params: DefaultParams()},
		GroupSearchResult{
			Anchors: []Anchor{{Seq: 2, QEnd: 16, SStart: 5, SEnd: 21, Score: 33}},
			KNNNs:   1, ExtendNs: 2, Visits: 3, MergeNs: 4,
		},
		GroupSearchBatch{
			Group: 1,
			Items: []GroupSearch{
				{Group: 1, Query: []byte("MKVLAT"), Offsets: []int{0}, WindowLen: 16, Params: DefaultParams()},
				{Group: 1, Query: []byte("TALVKM"), Offsets: []int{0, 16}, WindowLen: 16, Params: DefaultParams()},
			},
		},
		GroupSearchBatchResult{
			Items: []GroupSearchResult{{
				Anchors: []Anchor{{Seq: 2, QEnd: 16, SStart: 5, SEnd: 21, Score: 33}},
			}, {}},
			Errs: []string{"", "node node-001: every member of group 1 unreachable"},
		},
		Metrics{},
		MetricsResult{Node: "node-001"},
		Stats{},
		StatsResult{Node: "node-001", Blocks: 10, Residues: 160, Sequences: 2, TreeSize: 10, TopoNodes: 6},
		BlockManifest{},
		BlockManifestResult{
			Node: "node-002",
			Refs: []uint64{1 << 20, 2 << 20},
			Seqs: []seq.ID{1, 3},
		},
		PushBlocks{Target: "node-003", Refs: []uint64{42, 43}},
		PushBlocksAck{Pushed: 2, Missing: 1},
		PushSequences{Target: "node-004", IDs: []seq.ID{7}},
		PushSequencesAck{Pushed: 1},
		SketchFetch{},
		SketchFetchResult{Node: "node-005", Sketch: []byte{1, 1, 5, 0x80, 0x80, 4, 8, 0, 0}},
	}
}

// TestMarshalRoundTrip pins the codec on every registered message type.
func TestMarshalRoundTrip(t *testing.T) {
	for _, msg := range sampleMessages() {
		data, err := Marshal(msg)
		if err != nil {
			t.Fatalf("Marshal(%T): %v", msg, err)
		}
		out, err := Unmarshal(data)
		if err != nil {
			t.Fatalf("Unmarshal(%T): %v", msg, err)
		}
		// gob does not distinguish nil from empty slices, so compare via a
		// second encoding rather than reflect.DeepEqual.
		again, err := Marshal(out)
		if err != nil {
			t.Fatalf("re-Marshal(%T): %v", out, err)
		}
		if !bytes.Equal(data, again) {
			t.Errorf("%T: round trip changed encoding\n  first:  %x\n  second: %x", msg, data, again)
		}
	}
}

// FuzzCodecEquivalence is the differential fuzz target for the binary
// codec. Inputs are interpreted two ways:
//
//  1. As a gob envelope: if Unmarshal accepts the input and yields a hot
//     message, that message is binary-encoded and decoded, and the result
//     must be exactly the value a gob round trip produces (compared via
//     re-encoding, which sidesteps nil-vs-empty and NaN pitfalls).
//  2. As a raw binary codec payload: DecodeHot must never panic, and
//     anything it accepts must re-encode and re-decode to a stable value.
//
// The corpus is seeded with the existing gob fuzz samples plus their binary
// encodings, so both interpretations start from meaningful inputs.
func FuzzCodecEquivalence(f *testing.F) {
	for _, msg := range sampleMessages() {
		data, err := Marshal(msg)
		if err != nil {
			f.Fatalf("seeding corpus with %T: %v", msg, err)
		}
		f.Add(data)
		if bin, ok := AppendHot(nil, msg); ok {
			f.Add(bin)
		}
	}
	f.Add([]byte{})
	f.Add([]byte{0x01})
	f.Add([]byte{0xFF, 0x03, 'b', 'o', 'o'})
	f.Fuzz(func(t *testing.T, data []byte) {
		// Differential leg: gob-decodable hot messages must round-trip
		// identically through both codecs.
		if msg, err := Unmarshal(data); err == nil && isHot(msg) {
			viaGobBytes, err := Marshal(msg)
			if err != nil {
				t.Fatalf("re-encoding gob-decoded %T: %v", msg, err)
			}
			bin, ok := AppendHot(nil, msg)
			if !ok {
				t.Fatalf("hot message %T refused by AppendHot", msg)
			}
			out, err := DecodeHot(bin)
			if err != nil {
				t.Fatalf("binary decode of own encoding of %T: %v", msg, err)
			}
			viaBinBytes, err := Marshal(out)
			if err != nil {
				t.Fatalf("re-encoding binary-decoded %T: %v", out, err)
			}
			if !bytes.Equal(viaGobBytes, viaBinBytes) {
				t.Errorf("codec divergence for %T:\n  gob:    %x\n  binary: %x", msg, viaGobBytes, viaBinBytes)
			}
		}
		// Robustness leg: the binary decoder must reject or round-trip
		// arbitrary input without panicking.
		if msg, err := DecodeHot(data); err == nil {
			bin, ok := AppendHot(nil, msg)
			if !ok {
				t.Fatalf("DecodeHot produced non-hot %T", msg)
			}
			again, err := DecodeHot(bin)
			if err != nil {
				t.Fatalf("unstable binary round trip for %T: %v", msg, err)
			}
			a, _ := Marshal(msg)
			b, _ := Marshal(again)
			if !bytes.Equal(a, b) {
				t.Errorf("binary re-decode changed %T", msg)
			}
		}
	})
}

// coldSamples holds one value of each cold request type (no binary codec):
// FuzzDecode seeds each one's ColdTag encoding.
func coldSamples() []any {
	return []any{
		Ping{},
		Bootstrap{HashTree: []byte{1, 2, 3}, Metric: "hamming", BlockLen: 16, Groups: [][]string{{"a", "b"}, {"c"}}},
		Stats{},
		Metrics{},
		MetricsHistory{WindowNS: 30e9},
		TraceFetch{TraceID: "00000000000000010000000000000002"},
		UpdateTopology{Groups: [][]string{{"a"}, {"b", "c"}}},
		BlockManifest{},
	}
}

// FuzzDecode feeds arbitrary bytes to every decoder a received frame or a
// stored envelope reaches — Unmarshal, DecodeMessage, DecodeRequest and
// DecodeResponse. None may panic, and any input one accepts must re-encode
// with its own encoder and decode again to the same value (compared via
// Marshal, which also sidesteps NaN != NaN under DeepEqual).
func FuzzDecode(f *testing.F) {
	for _, msg := range sampleMessages() {
		data, err := Marshal(msg)
		if err != nil {
			f.Fatalf("seeding corpus with %T: %v", msg, err)
		}
		f.Add(data)
	}
	f.Add([]byte{})
	f.Add([]byte{0x00})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	for _, msg := range coldSamples() {
		data, err := AppendMessage(nil, msg)
		if err != nil {
			f.Fatalf("seeding corpus with %T: %v", msg, err)
		}
		f.Add(data)
	}
	req, err := AppendRequest(nil, obs.TraceContext{TraceHi: 1, TraceLo: 2, SpanID: 3, Sampled: true}, Ping{})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(req)
	f.Add(AppendErrorResponse(nil, "node n1: boom"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if msg, err := Unmarshal(data); err == nil {
			out, err := Marshal(msg)
			if err != nil {
				t.Fatalf("decoded %T but cannot re-encode it: %v", msg, err)
			}
			again, err := Unmarshal(out)
			if err != nil {
				t.Fatalf("re-decoding own encoding of %T: %v", msg, err)
			}
			sameMessage(t, "envelope", msg, again)
		}
		if msg, err := DecodeMessage(data); err == nil {
			if m, ok := msg.(IndexBlocks); ok {
				// count bounds every slice by the input: a run takes at
				// least 4 bytes and a key at least 1.
				keys := 0
				for _, r := range m.Runs {
					keys += len(r.Keys)
				}
				if 4*len(m.Runs) > len(data) || keys > len(data) {
					t.Fatalf("%d bytes decoded to %d runs of %d keys", len(data), len(m.Runs), keys)
				}
			}
			out, err := AppendMessage(nil, msg)
			if err != nil {
				t.Fatalf("decoded %T but cannot re-encode it: %v", msg, err)
			}
			again, err := DecodeMessage(out)
			if err != nil {
				t.Fatalf("re-decoding own encoding of %T: %v", msg, err)
			}
			sameMessage(t, "message", msg, again)
		}
		if tc, msg, err := DecodeRequest(data); err == nil {
			out, err := AppendRequest(nil, tc, msg)
			if err != nil {
				t.Fatalf("decoded request %T but cannot re-encode it: %v", msg, err)
			}
			tc2, again, err := DecodeRequest(out)
			if err != nil || tc2 != tc {
				t.Fatalf("unstable request round trip for %T: tc %+v -> %+v, err %v", msg, tc, tc2, err)
			}
			sameMessage(t, "request", msg, again)
		}
		if msg, errMsg, err := DecodeResponse(data); err == nil {
			out := AppendErrorResponse(nil, errMsg)
			if errMsg == "" {
				if out, err = AppendMessage(nil, msg); err != nil {
					t.Fatalf("decoded response %T but cannot re-encode it: %v", msg, err)
				}
			}
			again, errMsg2, err := DecodeResponse(out)
			if err != nil || errMsg2 != errMsg {
				t.Fatalf("unstable response round trip: %q -> %q, err %v", errMsg, errMsg2, err)
			}
			sameMessage(t, "response", msg, again)
		}
	})
}

// sameMessage fails t unless a and b have identical gob envelopes.
func sameMessage(t *testing.T, what string, a, b any) {
	t.Helper()
	ea, err := Marshal(a)
	if err != nil {
		t.Fatalf("%s: re-encoding %T: %v", what, a, err)
	}
	eb, err := Marshal(b)
	if err != nil {
		t.Fatalf("%s: re-encoding %T: %v", what, b, err)
	}
	if !bytes.Equal(ea, eb) {
		t.Errorf("%s: unstable round trip for %T:\n  first:  %x\n  second: %x", what, a, ea, eb)
	}
}
