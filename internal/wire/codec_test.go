package wire

import (
	"bytes"
	"strings"
	"testing"

	"mendel/internal/obs"
	"mendel/internal/seq"
)

// isHot reports whether msg has a binary codec.
func isHot(msg any) bool {
	_, ok := AppendHot(nil, msg)
	return ok
}

// hotSampleMessages filters sampleMessages down to the types the binary
// codec covers, plus extra cases that stress its edges (empty slices, zero
// values, negative ints, span blobs, batch items).
func hotSampleMessages() []any {
	var hot []any
	for _, m := range sampleMessages() {
		if isHot(m) {
			hot = append(hot, m)
		}
	}
	return append(hot,
		GroupSearch{},
		GroupSearchResult{},
		GroupSearchBatch{},
		GroupSearchBatchResult{},
		LocalSearch{},
		LocalSearchResult{},
		IndexBlocks{},
		IndexBlocks{Stage: true, Blocks: []Block{{}}},
		IndexBlocks{Runs: []Run{{}, {Keys: []int{}}}},
		IndexBlocks{Runs: []Run{{Seq: 1 << 31, Start: -7, Residues: []byte("AC"), Keys: []int{3, -2, 1 << 30, 0}}}},
		FetchRegion{},
		Region{},
		PushBlocks{},
		PushSequences{},
		BuildIndexAck{Items: -1},
		StoreSequences{},
		StoreSequences{
			IDs:   []seq.ID{0, 1<<32 - 1},
			Names: []string{"", "chr2 with spaces"},
			Data:  [][]byte{{}, bytes.Repeat([]byte("MKV"), 100)},
		},
		LocalSearchResult{
			Anchors: []Anchor{{Seq: 3, QStart: -5, QEnd: -1, SStart: -100, SEnd: -90, Score: -42}},
			Spans: []obs.SpanSnapshot{{
				TraceID: "00000000000000010000000000000002",
				SpanID:  7, Node: "n1", Name: "local_search", NS: 123,
				Attrs:    []obs.Attr{{Key: "visits", Value: 9}},
				Children: []obs.SpanSnapshot{{Name: "knn", NS: 45}},
			}},
		},
		GroupSearchResult{
			Anchors: []Anchor{{Seq: 1 << 30, QStart: 1 << 40, SStart: -(1 << 40)}},
			Spans:   []obs.SpanSnapshot{{Name: "group_search"}},
		},
		GroupSearchBatch{
			Group: -1,
			Items: []GroupSearch{{Query: []byte("ACGT")}, {}},
			TCs: []obs.TraceContext{
				{TraceHi: 1, TraceLo: 2, SpanID: 3, Sampled: true},
				{},
			},
		},
		LocalSearch{Query: []byte{}, Offsets: []int{}, Params: Params{Matrix: "PAM250"}},
		LocalSearch{Params: Params{Matrix: "custom-matrix", BothStrands: true, Mask: true}},
		Region{Seq: 4294967295, Start: -1, Data: bytes.Repeat([]byte("ACGT"), 64), Len: 1 << 31},
		PushBlocks{Target: "node:with:colons", Refs: []uint64{0, 1<<64 - 1}},
	)
}

// gobRoundTripValue runs v through the self-contained gob envelope cold
// messages travel in, yielding gob's canonical post-decode form
// (empty slices become nil, etc.).
func gobRoundTripValue(t *testing.T, v any) any {
	t.Helper()
	data, err := Marshal(v)
	if err != nil {
		t.Fatalf("gob marshal %T: %v", v, err)
	}
	out, err := Unmarshal(data)
	if err != nil {
		t.Fatalf("gob unmarshal %T: %v", v, err)
	}
	return out
}

// binaryRoundTripValue runs v through the binary codec.
func binaryRoundTripValue(t *testing.T, v any) any {
	t.Helper()
	data, ok := AppendHot(nil, v)
	if !ok {
		t.Fatalf("AppendHot(%T): not a hot message", v)
	}
	out, err := DecodeHot(data)
	if err != nil {
		t.Fatalf("DecodeHot(%T): %v", v, err)
	}
	return out
}

// TestCodecGobEquivalence is the codec's core contract: for every hot
// message, a binary round trip must produce exactly the value a gob round
// trip produces. Values are compared via their gob encodings, which
// sidesteps nil-vs-empty and NaN DeepEqual pitfalls the same way the
// existing round-trip tests do.
func TestCodecGobEquivalence(t *testing.T) {
	for _, msg := range hotSampleMessages() {
		viaGob := gobRoundTripValue(t, msg)
		viaBin := binaryRoundTripValue(t, msg)
		gobBytes, err := Marshal(viaGob)
		if err != nil {
			t.Fatalf("re-marshal gob result %T: %v", viaGob, err)
		}
		binBytes, err := Marshal(viaBin)
		if err != nil {
			t.Fatalf("re-marshal binary result %T: %v", viaBin, err)
		}
		if !bytes.Equal(gobBytes, binBytes) {
			t.Errorf("%T: binary round trip diverges from gob round trip\n  gob:    %x\n  binary: %x",
				msg, gobBytes, binBytes)
		}
	}
}

// TestCodecRequestResponseRoundTrip covers the transport-facing payload
// helpers on hot and cold messages, trace context included.
func TestCodecRequestResponseRoundTrip(t *testing.T) {
	tcs := []obs.TraceContext{
		{},
		obs.UnsampledContext(),
		{TraceHi: 0xdeadbeef, TraceLo: 0xcafef00d, SpanID: 42, Sampled: true},
	}
	msgs := append(hotSampleMessages(), sampleMessages()...)
	for _, tc := range tcs {
		for _, msg := range msgs {
			payload, err := AppendRequest(nil, tc, msg)
			if err != nil {
				t.Fatalf("AppendRequest(%T): %v", msg, err)
			}
			gotTC, gotMsg, err := DecodeRequest(payload)
			if err != nil {
				t.Fatalf("DecodeRequest(%T): %v", msg, err)
			}
			if gotTC != tc {
				t.Fatalf("%T: trace context changed: %+v != %+v", msg, gotTC, tc)
			}
			a, _ := Marshal(gobRoundTripValue(t, msg))
			b, _ := Marshal(gotMsg)
			if !bytes.Equal(a, b) {
				t.Errorf("%T: request round trip diverged", msg)
			}
		}
	}

	// Response payloads: hot and cold messages, and errors.
	for _, want := range []any{IndexBlocksAck{Accepted: 3}, Pong{Node: "n1", Booted: true}} {
		payload, err := AppendMessage(nil, want)
		if err != nil {
			t.Fatal(err)
		}
		msg, errMsg, err := DecodeResponse(payload)
		if err != nil || errMsg != "" || msg != want {
			t.Fatalf("DecodeResponse(%T): msg=%#v errMsg=%q err=%v", want, msg, errMsg, err)
		}
	}
	ep := AppendErrorResponse(nil, "node n1: boom")
	msg, errMsg, err := DecodeResponse(ep)
	if err != nil || msg != nil || errMsg != "node n1: boom" {
		t.Fatalf("error response round trip: msg=%v errMsg=%q err=%v", msg, errMsg, err)
	}
}

// TestColdMessageEncoding pins the cold half of AppendMessage: ColdTag, then
// exactly the Marshal envelope, with nothing accepted after it.
func TestColdMessageEncoding(t *testing.T) {
	for _, m := range sampleMessages() {
		if isHot(m) {
			continue
		}
		got, err := AppendMessage(nil, m)
		if err != nil {
			t.Fatalf("AppendMessage(%T): %v", m, err)
		}
		env, _ := Marshal(m)
		if want := append([]byte{ColdTag}, env...); !bytes.Equal(got, want) {
			t.Fatalf("%T: cold encoding %x, want ColdTag + Marshal %x", m, got, want)
		}
		if _, err := DecodeMessage(append(got, 0)); err == nil {
			t.Fatalf("%T: trailing byte after a cold message accepted", m)
		}
	}
}

// TestCodecRejectsCorruptInput pins the failure modes: truncation, trailing
// garbage, unknown tags, and adversarial slice lengths must all error
// without panicking or allocating huge slices.
func TestCodecRejectsCorruptInput(t *testing.T) {
	good, _ := AppendHot(nil, GroupSearch{Query: []byte("MKVLAT"), Offsets: []int{0, 16}, Params: DefaultParams()})
	for cut := 0; cut < len(good); cut++ {
		if _, err := DecodeHot(good[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	if _, err := DecodeHot(append(append([]byte(nil), good...), 0x01)); err == nil {
		t.Fatal("trailing garbage accepted")
	}
	if _, err := DecodeHot([]byte{0x7E, 1, 2, 3}); err == nil {
		t.Fatal("unknown tag accepted")
	}
	if _, err := DecodeHot(nil); err == nil {
		t.Fatal("empty input accepted")
	}
	// A frame claiming 2^40 anchors but carrying 3 bytes must be rejected
	// before allocation.
	evil := []byte{tagLocalSearchResult}
	evil = appendUvarint(evil, 1<<40)
	evil = append(evil, 1, 2, 3)
	if _, err := DecodeHot(evil); err == nil || !strings.Contains(err.Error(), "exceeds remaining") {
		t.Fatalf("adversarial anchor count: err = %v", err)
	}
}

// TestCodecZeroCopyAliasing documents the aliasing contract: byte fields of
// a decoded message, a block's Content and a run's Residues among them, are
// views into the input buffer.
func TestCodecZeroCopyAliasing(t *testing.T) {
	in := IndexBlocks{
		Blocks: []Block{{Seq: 1, Content: []byte("ACGTACGTACGTACGT")}},
		Runs:   []Run{{Seq: 2, Residues: []byte("MKVLATGGHHPW"), Keys: []int{0, 3}}},
	}
	data, _ := AppendHot(nil, in)
	out, err := DecodeHot(data)
	if err != nil {
		t.Fatal(err)
	}
	m := out.(IndexBlocks)
	for _, c := range []struct {
		name      string
		got, want []byte
	}{
		{"block Content", m.Blocks[0].Content, in.Blocks[0].Content},
		{"run Residues", m.Runs[0].Residues, in.Runs[0].Residues},
	} {
		if !bytes.Equal(c.got, c.want) {
			t.Fatalf("%s changed: %q", c.name, c.got)
		}
		data[bytes.Index(data, c.want)+len(c.want)-1] ^= 0xFF
		if bytes.Equal(c.got, c.want) {
			t.Fatalf("decoded %s does not alias the input buffer; zero-copy contract broken", c.name)
		}
	}
}

// TestStoreSequencesDecodeCopies pins the one exception to zero-copy: a
// node keeps StoreSequences data for good, so the decode must not alias
// (and thereby pin) the frame.
func TestStoreSequencesDecodeCopies(t *testing.T) {
	in := StoreSequences{IDs: []seq.ID{9}, Names: []string{"s"}, Data: [][]byte{[]byte("MKVLATGG")}}
	data, _ := AppendHot(nil, in)
	out, err := DecodeHot(data)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		data[i] ^= 0xFF
	}
	if got := out.(StoreSequences).Data[0]; !bytes.Equal(got, in.Data[0]) {
		t.Fatalf("decoded Data aliases the input buffer: %q", got)
	}
}

// TestCodecSizeReduction pins the acceptance criterion of the codec PR:
// binary encodings of the query-path messages are at least 2x smaller than
// their self-contained gob counterparts.
func TestCodecSizeReduction(t *testing.T) {
	msgs := []any{
		GroupSearch{Group: 3, Query: bytes.Repeat([]byte("MKVLAT"), 20), Offsets: []int{0, 16, 32, 48, 64, 80, 96}, WindowLen: 16, Params: DefaultParams()},
		LocalSearchResult{Anchors: make([]Anchor, 24), KNNNs: 12345, ExtendNs: 678, Visits: 90},
	}
	for _, msg := range msgs {
		gobBytes, err := Marshal(msg)
		if err != nil {
			t.Fatal(err)
		}
		binBytes, _ := AppendHot(nil, msg)
		if len(binBytes)*2 > len(gobBytes) {
			t.Errorf("%T: binary %dB vs gob %dB — less than the required 2x reduction",
				msg, len(binBytes), len(gobBytes))
		}
	}
}

// TestFramePool covers the encode-side scratch pool.
func TestFramePool(t *testing.T) {
	fp := GetFrame()
	if len(*fp) != 0 {
		t.Fatalf("GetFrame returned non-empty buffer (len %d)", len(*fp))
	}
	b, _ := AppendHot(*fp, FetchRegion{Seq: 1, Start: 2, End: 3})
	*fp = b
	PutFrame(fp)
	fp2 := GetFrame()
	if len(*fp2) != 0 {
		t.Fatalf("recycled frame not reset (len %d)", len(*fp2))
	}
	PutFrame(fp2)
}

// TestMatrixInterning ensures the known scoring matrix names decode without
// retaining the input buffer (interned constants, not views).
func TestMatrixInterning(t *testing.T) {
	for _, name := range []string{"BLOSUM62", "PAM250", "DNA"} {
		data, _ := AppendHot(nil, LocalSearch{Params: Params{Matrix: name}})
		out, err := DecodeHot(data)
		if err != nil {
			t.Fatal(err)
		}
		got := out.(LocalSearch).Params.Matrix
		if got != name {
			t.Fatalf("matrix %q decoded as %q", name, got)
		}
	}
}

// TestIsHotAndCompressible pins which messages are cold (gob envelopes on
// the wire) and that every message of a steady-state write is hot.
func TestIsHotAndCompressible(t *testing.T) {
	for _, m := range []any{Ping{}, Bootstrap{}, Stats{}, Metrics{}, TraceFetch{}, UpdateTopology{}, BlockManifest{}} {
		if isHot(m) {
			t.Errorf("%T unexpectedly binary-encoded", m)
		}
	}
	for _, m := range []any{IndexBlocks{}, IndexBlocksAck{}, BuildIndex{}, BuildIndexAck{}, StoreSequences{}, StoreSequencesAck{}} {
		if !isHot(m) {
			t.Errorf("write-path message %T reported cold", m)
		}
	}
}
