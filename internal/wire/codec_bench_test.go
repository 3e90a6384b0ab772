package wire

import (
	"bytes"
	"testing"

	"mendel/internal/seq"
)

// Benchmark fixtures sized like real traffic: a multi-window subquery, a
// result with a few dozen anchors, an ingest batch, and a coalesced search
// batch.
func benchGroupSearch() GroupSearch {
	return GroupSearch{
		Group:     3,
		Query:     bytes.Repeat([]byte("MKVLATGQW"), 14),
		Offsets:   []int{0, 16, 32, 48, 64, 80, 96, 112},
		WindowLen: 16,
		Params:    DefaultParams(),
	}
}

func benchLocalSearchResult() LocalSearchResult {
	anchors := make([]Anchor, 24)
	for i := range anchors {
		anchors[i] = Anchor{Seq: seq.ID(i), QStart: i * 16, QEnd: i*16 + 16,
			SStart: i * 100, SEnd: i*100 + 16, Score: 40 + i}
	}
	return LocalSearchResult{Anchors: anchors, KNNNs: 123456, ExtendNs: 7890, Visits: 321}
}

// benchIndexBlocks is a batch of 4096 keys in the run form ingest ships: 64
// runs of 336 residues, each holding 64 of the blocks in its stretch, about
// what one node of a 20-node cluster gets of one 256-residue region.
func benchIndexBlocks() IndexBlocks {
	runs := make([]Run, 64)
	residues := bytes.Repeat([]byte("MKVLATGQWHEDRPSY"), 21)
	for i := range runs {
		keys := make([]int, 64)
		for j := range keys {
			keys[j] = 32 + j*4 + j%3
		}
		runs[i] = Run{Seq: seq.ID(i), Start: 256 * (i % 5), Residues: residues, Keys: keys}
	}
	return IndexBlocks{Runs: runs, Stage: true}
}

// indexBlocksKeys is the number of keys (blocks) an IndexBlocks carries.
func indexBlocksKeys(m IndexBlocks) int {
	n := len(m.Blocks)
	for _, r := range m.Runs {
		n += len(r.Keys)
	}
	return n
}

// reportPerKey adds per-key figures to a codec benchmark of msg.
func reportPerKey(b *testing.B, msg IndexBlocks) {
	b.Helper()
	data, _ := AppendHot(nil, msg)
	keys := float64(indexBlocksKeys(msg))
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/keys, "ns/key")
	b.ReportMetric(float64(len(data))/keys, "wire-B/key")
}

func benchGroupSearchBatch() GroupSearchBatch {
	items := make([]GroupSearch, 8)
	for i := range items {
		items[i] = benchGroupSearch()
	}
	return GroupSearchBatch{Group: 3, Items: items}
}

// benchmarkMarshal measures binary encoding into a pooled scratch frame —
// exactly the transport's send path — and reports the encoded size.
func benchmarkMarshal(b *testing.B, msg any) {
	b.Helper()
	data, ok := AppendHot(nil, msg)
	if !ok {
		b.Fatalf("%T is not hot", msg)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fp := GetFrame()
		out, _ := AppendHot(*fp, msg)
		*fp = out
		PutFrame(fp)
	}
	b.ReportMetric(float64(len(data)), "wire-bytes")
}

// benchmarkUnmarshal measures binary decoding from a pre-encoded frame —
// the transport's receive path, minus the per-frame buffer allocation that
// real receives pay for retention safety.
func benchmarkUnmarshal(b *testing.B, msg any) {
	b.Helper()
	data, ok := AppendHot(nil, msg)
	if !ok {
		b.Fatalf("%T is not hot", msg)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeHot(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMarshalGroupSearch(b *testing.B)   { benchmarkMarshal(b, benchGroupSearch()) }
func BenchmarkUnmarshalGroupSearch(b *testing.B) { benchmarkUnmarshal(b, benchGroupSearch()) }

func BenchmarkMarshalLocalSearchResult(b *testing.B) { benchmarkMarshal(b, benchLocalSearchResult()) }
func BenchmarkUnmarshalLocalSearchResult(b *testing.B) {
	benchmarkUnmarshal(b, benchLocalSearchResult())
}

func BenchmarkMarshalIndexBlocks(b *testing.B) {
	msg := benchIndexBlocks()
	benchmarkMarshal(b, msg)
	reportPerKey(b, msg)
}

func BenchmarkUnmarshalIndexBlocks(b *testing.B) {
	msg := benchIndexBlocks()
	benchmarkUnmarshal(b, msg)
	reportPerKey(b, msg)
}

func BenchmarkMarshalGroupSearchBatch(b *testing.B) { benchmarkMarshal(b, benchGroupSearchBatch()) }
func BenchmarkUnmarshalGroupSearchBatch(b *testing.B) {
	benchmarkUnmarshal(b, benchGroupSearchBatch())
}
