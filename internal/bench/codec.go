package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"testing"

	"mendel/internal/seq"
	"mendel/internal/wire"
)

// CodecABRow is one message type's gob-vs-binary comparison: encoded sizes
// and Marshal/Unmarshal latencies under both codecs.
type CodecABRow struct {
	Message        string  `json:"message"`
	GobBytes       int     `json:"gob_bytes"`
	BinaryBytes    int     `json:"binary_bytes"`
	SizeRatio      float64 `json:"size_ratio"` // gob/binary; >= 2 is the PR's acceptance bar
	GobMarshalNs   int64   `json:"gob_marshal_ns_per_op"`
	BinMarshalNs   int64   `json:"binary_marshal_ns_per_op"`
	GobUnmarshalNs int64   `json:"gob_unmarshal_ns_per_op"`
	BinUnmarshalNs int64   `json:"binary_unmarshal_ns_per_op"`
}

// CodecABResult is the machine-readable codec A/B behind
// `mendel-bench codec -json` and the BENCH_6.json artifact.
type CodecABResult struct {
	GOMAXPROCS int          `json:"gomaxprocs"`
	Rows       []CodecABRow `json:"rows"`
}

// codecABMessages builds realistic hot-path payloads: a multi-window
// subquery, results with a few dozen anchors, a 32-block transfer batch,
// and a coalesced 8-item search batch — the shapes the query and ingest
// fan-outs actually put on the wire.
func codecABMessages() []struct {
	name string
	msg  any
} {
	gs := wire.GroupSearch{
		Group:     3,
		Query:     bytes.Repeat([]byte("MKVLATGQW"), 14),
		Offsets:   []int{0, 16, 32, 48, 64, 80, 96, 112},
		WindowLen: 16,
		Params:    wire.DefaultParams(),
	}
	anchors := make([]wire.Anchor, 24)
	for i := range anchors {
		anchors[i] = wire.Anchor{Seq: seq.ID(i), QStart: i * 16, QEnd: i*16 + 16,
			SStart: i * 100, SEnd: i*100 + 16, Score: 40 + i}
	}
	blocks := make([]wire.Block, 32)
	for i := range blocks {
		blocks[i] = wire.Block{Seq: seq.ID(i % 4), Start: i * 16,
			Content: bytes.Repeat([]byte("ACGT"), 4),
			Context: bytes.Repeat([]byte("ACGT"), 8), CtxOff: 8}
	}
	items := make([]wire.GroupSearch, 8)
	for i := range items {
		items[i] = gs
	}
	return []struct {
		name string
		msg  any
	}{
		{"GroupSearch", gs},
		{"GroupSearchResult", wire.GroupSearchResult{Anchors: anchors, KNNNs: 123456, ExtendNs: 7890, Visits: 321}},
		{"LocalSearch", wire.LocalSearch{Query: gs.Query, Offsets: gs.Offsets, WindowLen: 16, Params: gs.Params}},
		{"LocalSearchResult", wire.LocalSearchResult{Anchors: anchors, KNNNs: 123456, ExtendNs: 7890, Visits: 321}},
		{"IndexBlocks", wire.IndexBlocks{Blocks: blocks}},
		{"GroupSearchBatch", wire.GroupSearchBatch{Group: 3, Items: items}},
		{"FetchRegion", wire.FetchRegion{Seq: 7, Start: 1000, End: 1400}},
		{"Region", wire.Region{Seq: 7, Start: 1000, Data: bytes.Repeat([]byte("ACGT"), 100), Len: 5000}},
	}
}

// RunCodecAB measures every hot message type under both codecs: the
// self-contained gob envelope (what cold messages still travel as) against
// the hand-rolled binary codec the transport uses for hot ones.
func RunCodecAB() (*CodecABResult, error) {
	res := &CodecABResult{GOMAXPROCS: runtime.GOMAXPROCS(0)}
	for _, m := range codecABMessages() {
		gobData, err := wire.Marshal(m.msg)
		if err != nil {
			return nil, fmt.Errorf("bench: gob marshal %s: %w", m.name, err)
		}
		binData, ok := wire.AppendHot(nil, m.msg)
		if !ok {
			return nil, fmt.Errorf("bench: %s is not covered by the binary codec", m.name)
		}
		row := CodecABRow{
			Message:     m.name,
			GobBytes:    len(gobData),
			BinaryBytes: len(binData),
			SizeRatio:   float64(len(gobData)) / float64(len(binData)),
		}
		msg := m.msg
		row.GobMarshalNs = testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := wire.Marshal(msg); err != nil {
					b.Fatal(err)
				}
			}
		}).NsPerOp()
		row.BinMarshalNs = testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				fp := wire.GetFrame()
				out, _ := wire.AppendHot(*fp, msg)
				*fp = out
				wire.PutFrame(fp)
			}
		}).NsPerOp()
		row.GobUnmarshalNs = testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := wire.Unmarshal(gobData); err != nil {
					b.Fatal(err)
				}
			}
		}).NsPerOp()
		row.BinUnmarshalNs = testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := wire.DecodeHot(binData); err != nil {
					b.Fatal(err)
				}
			}
		}).NsPerOp()
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// JSON renders the result for the BENCH_6.json artifact.
func (r *CodecABResult) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// Render prints the human-readable table.
func (r *CodecABResult) Render() string {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Message,
			fmt.Sprintf("%d B", row.GobBytes),
			fmt.Sprintf("%d B", row.BinaryBytes),
			fmt.Sprintf("%.1fx", row.SizeRatio),
			fmt.Sprintf("%d / %d ns", row.GobMarshalNs, row.BinMarshalNs),
			fmt.Sprintf("%d / %d ns", row.GobUnmarshalNs, row.BinUnmarshalNs),
		})
	}
	return "Wire codec A/B (gob vs binary, per message)\n" +
		table([]string{"message", "gob", "binary", "size", "marshal g/b", "unmarshal g/b"}, rows)
}
