package wire

import (
	"bytes"
	"testing"

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
		StatsResult{Node: "node-001", Blocks: 10, Residues: 160, Sequences: 2, TreeSize: 10, BusyNS: 999, TopoNodes: 6},
		BlockManifest{},
		BlockManifestResult{
			Node:   "node-002",
			Refs:   []uint64{1 << 20, 2 << 20},
			Hashes: []uint64{0xdeadbeef, 0xcafef00d},
			Seqs:   []seq.ID{1, 3},
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
//  2. As raw binary codec payloads: DecodeHot, DecodeRequest and
//     DecodeResponse must never panic, and anything they accept must
//     re-encode and re-decode to a stable value.
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
		if msg, err := Unmarshal(data); err == nil && IsHot(msg) {
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
		// Robustness leg: the binary decoders must reject or round-trip
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
		if tc, msg, err := DecodeRequest(data); err == nil {
			payload, ok := AppendRequest(nil, tc, msg)
			if !ok {
				t.Fatalf("DecodeRequest produced non-hot %T", msg)
			}
			if _, _, err := DecodeRequest(payload); err != nil {
				t.Fatalf("unstable request round trip for %T: %v", msg, err)
			}
		}
		if msg, errMsg, err := DecodeResponse(data); err == nil {
			var payload []byte
			if errMsg != "" {
				payload = AppendErrorResponse(nil, errMsg)
			} else {
				var ok bool
				if payload, ok = AppendResponse(nil, msg); !ok {
					t.Fatalf("DecodeResponse produced non-hot %T", msg)
				}
			}
			if _, _, err := DecodeResponse(payload); err != nil {
				t.Fatalf("unstable response round trip: %v", err)
			}
		}
	})
}

// FuzzDecode feeds arbitrary bytes to Unmarshal: it must never panic, and
// any input it accepts must re-encode and re-decode to a stable value.
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
	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := Unmarshal(data)
		if err != nil {
			return // rejected input is fine; panicking is not
		}
		// Accepted input must round-trip: the decoded value re-encodes
		// (byte-identical, which also sidesteps NaN != NaN under DeepEqual)
		// and decodes again without error.
		out, err := Marshal(msg)
		if err != nil {
			t.Fatalf("decoded %T but cannot re-encode it: %v", msg, err)
		}
		again, err := Unmarshal(out)
		if err != nil {
			t.Fatalf("re-decoding own encoding of %T: %v", msg, err)
		}
		out2, err := Marshal(again)
		if err != nil {
			t.Fatalf("re-encoding %T: %v", again, err)
		}
		if !bytes.Equal(out, out2) {
			t.Errorf("unstable round trip for %T:\n  first:  %x\n  second: %x", msg, out, out2)
		}
	})
}
