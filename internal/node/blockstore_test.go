package node

import (
	"bytes"
	"context"
	"crypto/sha1"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"mendel/internal/dht"
	"mendel/internal/invindex"
	"mendel/internal/seq"
	"mendel/internal/transport"
	"mendel/internal/wire"
)

// wireBlocks fragments one random DNA sequence of the given length into
// stride-1 wire blocks.
func wireBlocks(rng *rand.Rand, id seq.ID, length int, cfg invindex.Config) []wire.Block {
	return toWire(seq.MustNew(id, "ref", seq.DNA, string(randDNA(rng, length))), cfg)
}

func mustStore(t *testing.T, blockLen, margin int) *blockStore {
	t.Helper()
	s, err := newBlockStore(seq.DNA, blockLen, margin)
	if err != nil {
		t.Fatal(err)
	}
	return &s
}

// mustAdd checks and adds every block, failing on a refusal.
func mustAdd(t *testing.T, s *blockStore, blocks []wire.Block) {
	t.Helper()
	for i := range blocks {
		if err := s.check(&blocks[i]); err != nil {
			t.Fatal(err)
		}
		if _, ok := s.add(&blocks[i]); !ok {
			t.Fatalf("block seq=%d start=%d refused", blocks[i].Seq, blocks[i].Start)
		}
	}
}

// wantBlocks asserts that the store returns every block exactly as given.
func wantBlocks(t *testing.T, s *blockStore, blocks []wire.Block) {
	t.Helper()
	for _, want := range blocks {
		got, ok := s.get(invindex.PackRef(want.Seq, want.Start))
		if !ok {
			t.Fatalf("block seq=%d start=%d missing", want.Seq, want.Start)
		}
		if got.Seq != want.Seq || got.Start != want.Start || got.CtxOff != want.CtxOff ||
			!bytes.Equal(got.Content, want.Content) || !bytes.Equal(got.Context, want.Context) {
			t.Fatalf("block seq=%d start=%d: got %+v, want %+v", want.Seq, want.Start, got, want)
		}
	}
}

func TestBlockStoreRoundTrip(t *testing.T) {
	cases := []struct {
		name                     string
		blockLen, margin, seqLen int
	}{
		{"full and truncated margins", 16, 32, 200}, // first and last 32 blocks are clipped
		{"no margin", 16, 0, 60},
		{"sequence shorter than one context", 16, 32, 40}, // every context clipped on both sides
		{"sequence of one block", 8, 8, 8},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			blocks := wireBlocks(rand.New(rand.NewSource(1)), 9, tc.seqLen, invindex.Config{BlockLen: tc.blockLen, Margin: tc.margin})
			if want := tc.seqLen - tc.blockLen + 1; len(blocks) != want {
				t.Fatalf("%d blocks, want %d", len(blocks), want)
			}
			s := mustStore(t, tc.blockLen, tc.margin)
			mustAdd(t, s, blocks)
			if s.len() != len(blocks) {
				t.Fatalf("len = %d, want %d", s.len(), len(blocks))
			}
			wantBlocks(t, s, blocks)
			refs := s.refs()
			for i := range refs {
				if want := invindex.PackRef(9, i); refs[i] != want {
					t.Fatalf("refs[%d] = %#x, want %#x", i, refs[i], want)
				}
			}
		})
	}
}

func TestBlockStoreChunkRollOver(t *testing.T) {
	// 64-byte contexts fill a chunk exactly; 80-byte ones leave 16 bytes the
	// next context must not straddle. Every block names its own sequence, so
	// no two share a byte.
	for _, margin := range []int{24, 32} {
		ctxLen := 16 + 2*margin
		perChunk := chunkBytes / ctxLen
		blocks := wireBlocks(rand.New(rand.NewSource(2)), 1, 2*perChunk+ctxLen+100, invindex.Config{BlockLen: 16, Margin: margin})
		full := blocks[margin : margin+2*perChunk+1] // full-margin contexts only
		for i := range full {
			full[i].Seq = seq.ID(i + 1)
		}
		s := mustStore(t, 16, margin)
		mustAdd(t, s, full[:perChunk])
		if len(s.chunks) != 1 || len(s.chunks[0]) != perChunk*ctxLen {
			t.Fatalf("margin %d: %d chunks, first holds %d bytes after %d blocks", margin, len(s.chunks), len(s.chunks[0]), perChunk)
		}
		mustAdd(t, s, full[perChunk:perChunk+1])
		if len(s.chunks) != 2 || len(s.chunks[0]) != perChunk*ctxLen || len(s.chunks[1]) != ctxLen {
			t.Fatalf("margin %d: block %d did not open the second chunk", margin, perChunk)
		}
		mustAdd(t, s, full[perChunk+1:])
		if len(s.chunks) != 3 {
			t.Fatalf("margin %d: %d chunks after %d blocks, want 3", margin, len(s.chunks), len(full))
		}
		wantBlocks(t, s, full)
		if want := 3*chunkBytes + 16*len(full); s.bytes() != want {
			t.Fatalf("margin %d: bytes = %d, want %d", margin, s.bytes(), want)
		}
	}
}

// chunkBytesUsed is the context bytes a store holds, without chunk slack.
func chunkBytesUsed(s *blockStore) (n int) {
	for _, c := range s.chunks {
		n += len(c)
	}
	return n
}

// runBytes is what a run of ascending blocks of one sequence stores when
// every block after the first shares: the residues from the first context's
// start to the last context's end.
func runBytes(run []wire.Block) int {
	first, last := run[0], run[len(run)-1]
	return last.Start - last.CtxOff + len(last.Context) - (first.Start - first.CtxOff)
}

func TestBlockStoreSharesSpans(t *testing.T) {
	const seqLen, longLen = 300, chunkBytes + 4000
	cfg := invindex.Config{BlockLen: 16, Margin: 32} // 80-byte contexts
	rng := rand.New(rand.NewSource(7))
	a, b := wireBlocks(rng, 1, seqLen, cfg), wireBlocks(rng, 2, seqLen, cfg)
	long := wireBlocks(rng, 3, longLen, cfg)
	var alternating []wire.Block
	whole := 0 // every context stored in full
	for i := range a {
		alternating = append(alternating, a[i], b[i])
		whole += len(a[i].Context) + len(b[i].Context)
	}
	descending := slices.Clone(a[32:253]) // full 80-byte contexts only
	slices.Reverse(descending)
	// disagree copies blk with its context changed at offset i, outside the
	// content, so it still passes check.
	disagree := func(blk wire.Block, i int) wire.Block {
		blk.Context = slices.Clone(blk.Context)
		blk.Context[i] = "CAAA"[strings.IndexByte("ACGT", blk.Context[i])]
		blk.Content = blk.Context[blk.CtxOff : blk.CtxOff+16]
		return blk
	}
	cases := []struct {
		name   string
		blocks []wire.Block
		chunks []int // bytes held by each chunk
		tail   int   // first residue of the final tail span
	}{
		{"stride-1 run stores each residue once", a, []int{seqLen}, 0},
		{"two sequences in runs", slices.Concat(a[:100], b[:100], a[100:], b[100:]),
			[]int{runBytes(a[:100]) + runBytes(b[:100]) + runBytes(a[100:]) + runBytes(b[100:])}, 68},
		{"two sequences alternating share nothing", alternating, []int{whole}, 252},
		{"gap of 2·Margin continues the span", slices.Concat(a[:10], a[89:100]), []int{runBytes(a[:100])}, 0},
		{"gap wider than 2·Margin starts a span", slices.Concat(a[:10], a[90:100]), []int{runBytes(a[:10]) + runBytes(a[90:100])}, 58},
		{"first overlapping byte disagrees", slices.Concat(a[:50], []wire.Block{disagree(a[50], 0)}, a[51:]),
			[]int{runBytes(a[:50]) + runBytes(a[50:])}, 18},
		{"last overlapping byte disagrees", slices.Concat(a[:50], []wire.Block{disagree(a[50], 78)}, a[51:]),
			[]int{runBytes(a[:50]) + 80 + runBytes(a[51:])}, 19},
		{"suffix past the chunk opens a chunk with the full context", long,
			[]int{chunkBytes, longLen - (chunkBytes - 79)}, chunkBytes - 79},
		{"descending blocks share nothing", descending, []int{80 * len(descending)}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := mustStore(t, 16, 32)
			mustAdd(t, s, tc.blocks)
			wantBlocks(t, s, tc.blocks)
			var got []int
			for _, c := range s.chunks {
				got = append(got, len(c))
			}
			if !slices.Equal(got, tc.chunks) || s.tail.start != tc.tail {
				t.Fatalf("chunks hold %v bytes, tail span from %d; want %v, %d", got, s.tail.start, tc.chunks, tc.tail)
			}
			if want := len(tc.chunks)*chunkBytes + 16*len(tc.blocks); s.bytes() != want {
				t.Fatalf("bytes = %d, want %d", s.bytes(), want)
			}
		})
	}
	t.Run("duplicate refs change nothing", func(t *testing.T) {
		s := mustStore(t, 16, 32)
		mustAdd(t, s, a[:100])
		tail, used := s.tail, len(s.chunks[0])
		for _, dup := range []wire.Block{a[50], disagree(a[60], 0), a[99]} {
			if _, ok := s.add(&dup); ok {
				t.Fatalf("duplicate of start %d accepted", dup.Start)
			}
		}
		if s.tail != tail || len(s.chunks[0]) != used {
			t.Fatal("refused add changed the store")
		}
		mustAdd(t, s, a[100:]) // the run still shares after the refusals
		if len(s.chunks[0]) != seqLen {
			t.Fatalf("chunk holds %d bytes, want %d", len(s.chunks[0]), seqLen)
		}
		wantBlocks(t, s, a)
	})
}

// FuzzBlockStore adds blocks of three sequences, each in two versions that
// disagree every 499 residues, in the order the input names them: every
// three bytes pick a sequence, a version and a start, and the first byte's
// high bit seals the directory before the add. After every seal the store
// must hold exactly the blocks of a plain-map model, every get must return
// the block first added under its reference, every view taken on add must
// read the same bytes after all later adds and seals, and bytes must never
// exceed what the same adds cost with one whole context per block.
func FuzzBlockStore(f *testing.F) {
	const blockLen, margin, seqLen = 8, 2000, 5000 // ~16 contexts per chunk
	cfg := invindex.Config{BlockLen: blockLen, Margin: margin}
	rng := rand.New(rand.NewSource(8))
	var versions [3][2][]wire.Block
	for i := range versions {
		data := randDNA(rng, seqLen)
		other := slices.Clone(data)
		for j := 0; j < seqLen; j += 499 {
			other[j] = "CAAA"[strings.IndexByte("ACGT", other[j])]
		}
		versions[i][0] = toWire(seq.MustNew(seq.ID(i), "ref", seq.DNA, string(data)), cfg)
		versions[i][1] = toWire(seq.MustNew(seq.ID(i), "ref", seq.DNA, string(other)), cfg)
	}
	op := func(pick byte, start int) []byte { return []byte{pick, byte(start >> 8), byte(start)} }
	var ascending, mixed, sealing []byte
	for start := 0; start < seqLen; start += 150 {
		ascending = append(ascending, op(0, start)...)
		mixed = append(mixed, op(byte(start/150%6), start)...)
		// Every fourth op seals; starts hop across the sequence.
		sealing = append(sealing, op(byte(start/150%6)|byte(start/150%4/3)<<7, (start*7)%seqLen)...)
	}
	f.Add(ascending)
	f.Add(mixed)
	f.Add(sealing)
	f.Add(slices.Concat(op(0, 100), op(3, 300), op(0x80, 500), op(0, 100), op(1, 4000), op(0x80, 4000)))
	f.Fuzz(func(t *testing.T, ops []byte) {
		s := mustStore(t, blockLen, margin)
		model := make(map[uint64]wire.Block)
		var added, views []wire.Block
		oldChunks, oldLast := 0, chunkBytes // the one-context-per-block layout
		for ; len(ops) >= 3; ops = ops[3:] {
			if ops[0]&0x80 != 0 {
				s.seal()
				wantHeld(t, s, model)
			}
			pick := ops[0] & 0x7f
			blocks := versions[pick%3][pick/3%2]
			b := blocks[(int(ops[1])<<8|int(ops[2]))%len(blocks)]
			if err := s.check(&b); err != nil {
				t.Fatal(err)
			}
			ref := invindex.PackRef(b.Seq, b.Start)
			pos, ok := s.add(&b)
			if _, held := model[ref]; ok == held {
				t.Fatalf("add of block seq=%d start=%d: held %v, added %v", b.Seq, b.Start, held, ok)
			}
			if !ok {
				continue
			}
			if got := content(s.chunks, pos, blockLen); !bytes.Equal(got, b.Content) {
				t.Fatalf("add of block seq=%d start=%d: content position reads %q, want %q", b.Seq, b.Start, got, b.Content)
			}
			model[ref] = b
			view, _ := s.get(ref)
			added, views = append(added, b), append(views, view)
			if oldLast+len(b.Context) > chunkBytes {
				oldChunks, oldLast = oldChunks+1, 0
			}
			oldLast += len(b.Context)
			if old := oldChunks*chunkBytes + 16*len(added); s.bytes() > old {
				t.Fatalf("bytes = %d after %d blocks, one context per block needs %d", s.bytes(), len(added), old)
			}
		}
		wantHeld(t, s, model)
		for i, v := range views {
			if !bytes.Equal(v.Context, added[i].Context) || !bytes.Equal(v.Content, added[i].Content) {
				t.Fatalf("view of block seq=%d start=%d changed by later adds", v.Seq, v.Start)
			}
		}
	})
}

// FuzzRunStore stores runs cut from FuzzBlockStore's sequence versions and
// checks them against a model store that adds the same blocks one at a time.
// Every five bytes of input are one run: the first picks a sequence and a
// version, its high bit sealing both stores first; the next two a start; the
// fourth a stride of 1 to 11; and the fifth the keys held, bit i for the
// block at start + i·stride. The run is the residues from the first key's
// context start to the last key's context end, as ingest cuts it. After
// every run both stores hold the same references, every get returns the same
// block from both, and the run store never holds more bytes than the model.
func FuzzRunStore(f *testing.F) {
	const blockLen, margin, seqLen = 8, 2000, 5000
	cfg := invindex.Config{BlockLen: blockLen, Margin: margin}
	rng := rand.New(rand.NewSource(8))
	var versions [3][2][]byte
	var blocks [3][2][]wire.Block // what the model adds
	for i := range versions {
		data := randDNA(rng, seqLen)
		other := slices.Clone(data)
		for j := 0; j < seqLen; j += 499 {
			other[j] = "CAAA"[strings.IndexByte("ACGT", other[j])]
		}
		versions[i] = [2][]byte{data, other}
		for v, d := range versions[i] {
			blocks[i][v] = toWire(seq.MustNew(seq.ID(i), "ref", seq.DNA, string(d)), cfg)
		}
	}
	op := func(pick byte, start, stride int, keys byte) []byte {
		return []byte{pick, byte(start >> 8), byte(start), byte(stride - 1), keys}
	}
	var ascending, mixed, sealing []byte
	for start := 0; start < seqLen; start += 150 {
		ascending = append(ascending, op(0, start, 1, 0xff)...)
		mixed = append(mixed, op(byte(start/150%6), start, 1+start%11, byte(start))...)
		sealing = append(sealing, op(byte(start/150%6)|byte(start/150%4/3)<<7, (start*7)%seqLen, 3, 0xa5)...)
	}
	f.Add(ascending)
	f.Add(mixed)
	f.Add(sealing)
	f.Add(slices.Concat(op(0, 100, 1, 0x0f), op(3, 100, 2, 0xff), op(0x80, 104, 1, 0xff), op(0, 90, 11, 0x81), op(1, 4990, 1, 0xff)))
	// A run whose first key matches a tail span that earlier blocks of the
	// same sequence extended past it with another version's residues: a
	// later key of the run reaches those residues and must not share them.
	f.Add(slices.Concat(op(3, 486, 1, 0x01), op(0, 4000, 1, 0x01), op(3, 480, 10, 0x03)))
	f.Fuzz(func(t *testing.T, ops []byte) {
		s, model := mustStore(t, blockLen, margin), mustStore(t, blockLen, margin)
		for ; len(ops) >= 5; ops = ops[5:] {
			if ops[0]&0x80 != 0 {
				s.seal()
				model.seal()
			}
			pick := ops[0] & 0x7f
			id, data, blocks := seq.ID(pick%3), versions[pick%3][pick/3%2], blocks[pick%3][pick/3%2]
			start, stride := (int(ops[1])<<8|int(ops[2]))%seqLen, 1+int(ops[3])%11
			var keys []int
			for i := range 8 {
				if k := start + i*stride; ops[4]>>i&1 != 0 && k+blockLen <= seqLen {
					keys = append(keys, k)
				}
			}
			if len(keys) == 0 {
				continue
			}
			lo, hi := max(0, keys[0]-margin), min(seqLen, keys[len(keys)-1]+blockLen+margin)
			run := wire.Run{Seq: id, Start: lo, Residues: data[lo:hi]}
			for _, k := range keys {
				run.Keys = append(run.Keys, k-lo)
			}
			if err := s.checkRun(&run); err != nil {
				t.Fatal(err)
			}
			slots := s.addRun(&run, nil)
			added := 0
			for _, k := range keys {
				if _, ok := model.add(&blocks[k]); ok {
					added++
				}
			}
			if len(slots) != added {
				t.Fatalf("run of %d keys at %d stored %d blocks, the model %d", len(keys), start, len(slots), added)
			}
			for _, sl := range slots {
				_, k := invindex.UnpackRef(sl.ref)
				if got := content(s.chunks, sl.pos, blockLen); !bytes.Equal(got, blocks[k].Content) {
					t.Fatalf("block seq=%d start=%d: content position reads %q, want %q", id, k, got, blocks[k].Content)
				}
			}
			if s.bytes() > model.bytes() {
				t.Fatalf("bytes = %d, the model holds %d", s.bytes(), model.bytes())
			}
		}
		refs := model.refs()
		if !slices.Equal(s.refs(), refs) {
			t.Fatalf("run store holds %d refs, the model %d", s.len(), len(refs))
		}
		for _, ref := range refs {
			got, _ := s.get(ref)
			want, _ := model.get(ref)
			if got.CtxOff != want.CtxOff || !bytes.Equal(got.Context, want.Context) || !bytes.Equal(got.Content, want.Content) {
				t.Fatalf("block %#x: context (%d bytes, content at %d) differs from the model's (%d bytes, content at %d)", ref, len(got.Context), got.CtxOff, len(want.Context), want.CtxOff)
			}
		}
	})
}

// wantHeld asserts that the store holds exactly the model's blocks: as many,
// refs lists their references ascending, and get returns each as given.
func wantHeld(t *testing.T, s *blockStore, model map[uint64]wire.Block) {
	t.Helper()
	refs := make([]uint64, 0, len(model))
	blocks := make([]wire.Block, 0, len(model))
	for ref, b := range model {
		refs, blocks = append(refs, ref), append(blocks, b)
	}
	slices.Sort(refs)
	if s.len() != len(model) || !slices.Equal(s.refs(), refs) {
		t.Fatalf("store holds %d blocks, refs %v; want %d, %v", s.len(), s.refs(), len(model), refs)
	}
	wantBlocks(t, s, blocks)
}

// TestBlockDirectory drives the directory through a node: a bulk build seals
// it, six-block writes stay in recent until recent reaches an eighth of it,
// duplicates are refused from either half, and neither a seal nor a snapshot
// reload changes what the store returns.
func TestBlockDirectory(t *testing.T) {
	_, nodes, _ := testCluster(t, 1, 16)
	n, ctx := nodes[0], context.Background()
	s := &n.blocks
	rng := rand.New(rand.NewSource(9))
	cfg := invindex.Config{BlockLen: 16, Margin: 8}
	// Writes come from sequence 2, so their refs fall between the bulk load's.
	bulk := slices.Concat(wireBlocks(rng, 1, 200, cfg), wireBlocks(rng, 3, 200, cfg))
	writes := wireBlocks(rng, 2, 200, cfg)
	model := make(map[uint64]wire.Block)
	write := func(to *Node, blocks []wire.Block, stage bool) (accepted int) {
		t.Helper()
		resp, err := to.Handle(ctx, wire.IndexBlocks{Blocks: blocks, Stage: stage})
		if err == nil && stage {
			_, err = to.Handle(ctx, wire.BuildIndex{})
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range blocks {
			if ref := invindex.PackRef(b.Seq, b.Start); model[ref].Context == nil {
				model[ref] = b
			}
		}
		return resp.(wire.IndexBlocksAck).Accepted
	}
	wantState := func(s *blockStore, sealed, recent int) {
		t.Helper()
		if len(s.sealed) != sealed || len(s.recent) != recent || (recent == 0) != (s.recent == nil) {
			t.Fatalf("%d sealed and %d recent blocks, want %d and %d", len(s.sealed), len(s.recent), sealed, recent)
		}
	}

	write(n, bulk, true)
	wantState(s, len(bulk), 0)
	i := 0
	for ; 8*(i+6) < len(bulk); i += 6 {
		write(n, writes[i:i+6], true)
		wantState(s, len(bulk), i+6)
	}
	wantHeld(t, s, model)
	for _, dup := range []wire.Block{bulk[5], writes[3]} { // sealed, recent
		if write(n, []wire.Block{dup}, true) != 0 {
			t.Fatalf("duplicate of seq=%d start=%d accepted", dup.Seq, dup.Start)
		}
	}
	var views []wire.Block
	for _, ref := range s.refs() {
		v, _ := s.get(ref)
		views = append(views, v)
	}
	write(n, writes[i:i+6], true) // recent reaches an eighth: seals
	wantState(s, len(bulk)+i+6, 0)
	wantBlocks(t, s, views)
	wantHeld(t, s, model)

	write(n, writes[i+6:i+12], true)
	wantState(s, len(bulk)+i+6, 6)
	var snap bytes.Buffer
	if err := n.SaveTo(&snap); err != nil {
		t.Fatal(err)
	}
	loaded := New("n0", transport.NewMemNetwork())
	if err := loaded.LoadFrom(&snap); err != nil {
		t.Fatal(err)
	}
	wantState(&loaded.blocks, len(model), 0)
	wantHeld(t, &loaded.blocks, model)
	// The unstaged branch seals too, here past the eighth in one write.
	write(loaded, writes[i+12:], false)
	wantState(&loaded.blocks, len(model), 0)
	wantHeld(t, &loaded.blocks, model)
}

func TestBlockStoreViewsSurviveGrowth(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cfg := invindex.Config{BlockLen: 16, Margin: 32}
	first := wireBlocks(rng, 1, 300, cfg)
	s := mustStore(t, 16, 32)
	mustAdd(t, s, first)
	views := make([]wire.Block, len(first))
	for i, b := range first {
		views[i], _ = s.get(invindex.PackRef(b.Seq, b.Start))
	}
	mustAdd(t, s, wireBlocks(rng, 2, 10000+15, cfg))
	for i, want := range first {
		if !bytes.Equal(views[i].Context, want.Context) || !bytes.Equal(views[i].Content, want.Content) {
			t.Fatalf("view of block %d changed after 10000 further adds", i)
		}
	}
	// A view is capped: appending to it cannot reach the next context.
	v := views[0]
	if _ = append(v.Context, 'X'); !bytes.Equal(views[1].Context, first[1].Context) {
		t.Fatal("append to a view overwrote its neighbour")
	}
}

func TestBlockStoreDuplicateAddChangesNothing(t *testing.T) {
	blocks := wireBlocks(rand.New(rand.NewSource(4)), 1, 120, invindex.Config{BlockLen: 16, Margin: 32})
	s := mustStore(t, 16, 32)
	mustAdd(t, s, blocks)
	n, size, used := s.len(), s.bytes(), len(s.chunks[0])
	// Same reference, different bytes: the stored block must win.
	dup := wire.Block{Seq: blocks[5].Seq, Start: blocks[5].Start, Content: bytes.Repeat([]byte("T"), 16), Context: bytes.Repeat([]byte("T"), 16)}
	if err := s.check(&dup); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.add(&dup); ok {
		t.Fatal("duplicate reference accepted")
	}
	if _, ok := s.add(&blocks[7]); ok {
		t.Fatal("duplicate reference accepted")
	}
	if s.len() != n || s.bytes() != size || len(s.chunks[0]) != used {
		t.Fatal("refused add changed the store")
	}
	wantBlocks(t, s, blocks)
}

func TestBlockStoreRefusesGeometryItCannotAddress(t *testing.T) {
	for _, g := range [][2]int{{0, 8}, {-1, 8}, {16, -1}, {16, 1 << 15}} {
		if _, err := newBlockStore(seq.DNA, g[0], g[1]); err == nil {
			t.Errorf("block length %d, margin %d accepted", g[0], g[1])
		}
	}
	s := mustStore(t, 1<<15, 1<<14-1) // 65534-byte contexts: one per chunk
	if !s.room(maxChunks) || s.room(maxChunks+1) {
		t.Fatal("room miscounts one-block chunks")
	}
}

// TestMalformedBlocksAreRejected drives every geometry violation through
// Node.Handle: before the check, the second to fourth were stored and
// panicked a later localSearch worker inside align.ExtendUngapped.
func TestMalformedBlocksAreRejected(t *testing.T) {
	good := blocksFor(t, 4, "ACGTACGTGGCCTTAAGGCCTTACGTACGT", 8) // margin 8: contexts up to 24
	mid := good[10]
	cases := map[string]func(b *wire.Block){
		"short content":        func(b *wire.Block) { b.Content = b.Content[:7] },
		"negative CtxOff":      func(b *wire.Block) { b.CtxOff = -1 },
		"content past context": func(b *wire.Block) { b.CtxOff = len(b.Context) - 7 },
		"context too long":     func(b *wire.Block) { b.Context = append(append([]byte{}, b.Context...), 'A') },
		"content not in context": func(b *wire.Block) {
			b.Content = append([]byte{}, b.Content...)
			b.Content[0] ^= 'A' ^ 'C'
		},
		"negative start": func(b *wire.Block) { b.Start = -1 },
	}
	for name, corrupt := range cases {
		t.Run(name, func(t *testing.T) {
			_, nodes, _ := testCluster(t, 1, 8)
			n, ctx := nodes[0], context.Background()
			bad := mid
			corrupt(&bad)
			batch := append(append([]wire.Block{}, good[:3]...), bad)
			_, err := n.Handle(ctx, wire.IndexBlocks{Blocks: batch})
			if err == nil {
				t.Fatal("malformed block accepted")
			}
			if name != "negative start" {
				if want := fmt.Sprintf("%#x", invindex.PackRef(bad.Seq, bad.Start)); !bytes.Contains([]byte(err.Error()), []byte(want)) {
					t.Fatalf("error %q does not name ref %s", err, want)
				}
			}
			// The batch is refused whole: nothing stored without a tree entry.
			if st := n.stats(); st.Blocks != 0 || st.TreeSize != 0 {
				t.Fatalf("refused batch left %+v", st)
			}

			// The same block in a doctored snapshot is refused on load.
			if _, err := n.Handle(ctx, wire.IndexBlocks{Blocks: good}); err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := n.SaveTo(&buf); err != nil {
				t.Fatal(err)
			}
			snap := decodeSnapshot(t, buf.Bytes())
			corrupt(&snap.Blocks[10])
			if err := New("n0", transport.NewMemNetwork()).LoadFrom(bytes.NewReader(encodeSnapshot(t, snap))); err == nil {
				t.Fatal("doctored snapshot accepted")
			}
		})
	}
}

// TestMalformedRunsAreRejected drives every run violation through
// Node.Handle: the batch is refused whole, and the error names the packed
// reference of the bad run's start.
func TestMalformedRunsAreRejected(t *testing.T) {
	const data = "ACGTACGTGGCCTTAAGGCCTTACGTACGT"
	good := wire.Run{Seq: 4, Start: 0, Residues: []byte(data), Keys: []int{0, 5, 6, 22}}
	cases := map[string]func(r *wire.Run){
		"keys not ascending":     func(r *wire.Run) { r.Keys = []int{0, 6, 5} },
		"duplicate key":          func(r *wire.Run) { r.Keys = []int{5, 5} },
		"negative key":           func(r *wire.Run) { r.Keys = []int{-1, 4} },
		"key past the run's end": func(r *wire.Run) { r.Keys = []int{0, len(data) - 7} },
		"non-letter byte": func(r *wire.Run) {
			r.Residues = []byte(data)
			r.Residues[17] = 'X'
		},
		"run over the cap": func(r *wire.Run) {
			r.Residues = bytes.Repeat([]byte("ACGT"), wire.MaxRunResidues/4+1)
		},
		"negative start":                 func(r *wire.Run) { r.Start = -3 },
		"start overflows the packed ref": func(r *wire.Run) { r.Start = math.MaxInt - 10 },
		// The largest start that unpacks: 2^32 − 1, or 2^31 − 1 where int has 32 bits.
		"last key overflows the packed ref": func(r *wire.Run) { r.Start = int(min(uint64(math.MaxInt), math.MaxUint32)) - 8 },
	}
	for name, corrupt := range cases {
		t.Run(name, func(t *testing.T) {
			_, nodes, _ := testCluster(t, 1, 8)
			n, ctx := nodes[0], context.Background()
			bad := good
			bad.Seq = 5
			corrupt(&bad)
			_, err := n.Handle(ctx, wire.IndexBlocks{Runs: []wire.Run{good, bad}})
			if err == nil {
				t.Fatal("malformed run accepted")
			}
			if want := fmt.Sprintf("%#x", invindex.PackRef(bad.Seq, bad.Start)); !strings.Contains(err.Error(), want) {
				t.Fatalf("error %q does not name ref %s", err, want)
			}
			if st := n.stats(); st.Blocks != 0 || st.TreeSize != 0 {
				t.Fatalf("refused batch left %+v", st)
			}
		})
	}
	t.Run("a key's last block ends the run", func(t *testing.T) {
		_, nodes, _ := testCluster(t, 1, 8)
		run := good
		run.Keys = []int{0, len(data) - 8}
		if _, err := nodes[0].Handle(context.Background(), wire.IndexBlocks{Runs: []wire.Run{run}}); err != nil {
			t.Fatal(err)
		}
	})
}

// TestViewsReadableWhileWriterAdds is the pushBlocks pattern under the race
// detector: readers take views under the node's read lock, release it, and
// only then read the bytes, while a writer keeps adding.
func TestViewsReadableWhileWriterAdds(t *testing.T) {
	_, nodes, _ := testCluster(t, 1, 16)
	n, ctx := nodes[0], context.Background()
	rng := rand.New(rand.NewSource(5))
	cfg := invindex.Config{BlockLen: 16, Margin: 8}
	seed := wireBlocks(rng, 1, 500, cfg)
	if _, err := n.Handle(ctx, wire.IndexBlocks{Blocks: seed, Stage: true}); err != nil {
		t.Fatal(err)
	}
	batches := make([][]wire.Block, 40)
	for i := range batches {
		batches[i] = wireBlocks(rng, seq.ID(2+i), 300, cfg) // 40 × 285 × 32 B: several chunks
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := r; ; i = (i + 7) % len(seed) {
				select {
				case <-stop:
					return
				default:
				}
				want := seed[i]
				got, ok := n.blockByRef(invindex.PackRef(want.Seq, want.Start)) // lock released on return
				if !ok || !bytes.Equal(got.Context, want.Context) || !bytes.Equal(got.Content, want.Content) {
					t.Errorf("reader %d: block %d read back wrong", r, i)
					return
				}
			}
		}(r)
	}
	for _, b := range batches {
		if _, err := n.Handle(ctx, wire.IndexBlocks{Blocks: b, Stage: true}); err != nil {
			t.Error(err)
		}
	}
	close(stop)
	wg.Wait()
	if _, err := n.Handle(ctx, wire.BuildIndex{}); err != nil {
		t.Fatal(err)
	}
	if st := n.stats(); st.Blocks != len(seed)+40*285 || st.TreeSize != st.Blocks {
		t.Fatalf("stats = %+v", st)
	}
}

// hotFrames returns n synthetic protein-geometry blocks (16-residue blocks,
// 32-residue margins, 400-residue sequences) as the payloads the
// coordinator's ingest sends to one node: wire.AppendHot frames of perFrame
// staged blocks. Of each sequence's stride-1 blocks it keeps one in 20 by a
// SHA-1 of the content: the scattered layout a node of a 20-node cluster held
// when placement hashed content, and the worst case for context sharing
// (the shipped placement by region shares more).
func hotFrames(tb testing.TB, n, perFrame int) [][]byte {
	tb.Helper()
	rng := rand.New(rand.NewSource(6))
	var blocks []wire.Block
	for id := seq.ID(1); len(blocks) < n; id++ {
		for _, b := range wireBlocks(rng, id, 400, invindex.DefaultConfig) {
			if h := sha1.Sum(b.Content); binary.BigEndian.Uint64(h[:8])%20 == 0 {
				blocks = append(blocks, b)
			}
		}
	}
	blocks = blocks[:n]
	var frames [][]byte
	for len(blocks) > 0 {
		k := perFrame
		if k > len(blocks) {
			k = len(blocks)
		}
		frame, ok := wire.AppendHot(nil, wire.IndexBlocks{Blocks: blocks[:k], Stage: true})
		if !ok {
			tb.Fatal("IndexBlocks has no binary codec")
		}
		frames = append(frames, frame)
		blocks = blocks[k:]
	}
	return frames
}

// ingestFrames boots a one-node cluster for hotFrames' geometry and feeds it
// the frames the way the TCP server does: a fresh copy of each payload,
// decoded zero-copy, handled, dropped; then one BuildIndex.
func ingestFrames(tb testing.TB, frames [][]byte) *Node {
	tb.Helper()
	n := New("solo", transport.NewMemNetwork())
	ctx := context.Background()
	boot := wire.Bootstrap{Metric: "hamming", BlockLen: 16, Margin: 32, Groups: [][]string{{"solo"}}, Kind: seq.DNA}
	if _, err := n.Handle(ctx, boot); err != nil {
		tb.Fatal(err)
	}
	for _, frame := range frames {
		req, err := wire.DecodeHot(append([]byte(nil), frame...))
		if err != nil {
			tb.Fatal(err)
		}
		if _, err := n.Handle(ctx, req); err != nil {
			tb.Fatal(err)
		}
	}
	if _, err := n.Handle(ctx, wire.BuildIndex{}); err != nil {
		tb.Fatal(err)
	}
	return n
}

// runFrames is hotFrames in the run form ingest ships, for a node of a
// 20-node cluster in 4 groups under region placement: it keeps n blocks of
// 400-residue sequences, those of one 256-residue region in 5 (by a SHA-1 of
// sequence and region) whose content one in 4 hashes to (the node's group),
// and cuts runs from them as the coordinator does, perFrame blocks or a run
// more to a frame.
func runFrames(tb testing.TB, n, perFrame int) [][]byte {
	tb.Helper()
	rng := rand.New(rand.NewSource(6))
	cfg := invindex.DefaultConfig
	var msg wire.IndexBlocks
	var frames [][]byte
	flush := func() {
		frame, ok := wire.AppendHot(nil, wire.IndexBlocks{Runs: msg.Runs, Stage: true})
		if !ok {
			tb.Fatal("IndexBlocks has no binary codec")
		}
		frames, msg.Runs = append(frames, frame), nil
	}
	kept := 0
	for id := seq.ID(1); kept < n; id++ {
		data := randDNA(rng, 400)
		for start := 0; start+cfg.BlockLen <= len(data) && kept < n; start++ {
			region := sha1.Sum(binary.BigEndian.AppendUint64(nil, uint64(id)<<32|uint64(start>>dht.RegionShift)))
			if content := sha1.Sum(data[start : start+cfg.BlockLen]); binary.BigEndian.Uint64(region[:8])%5 != 0 || binary.BigEndian.Uint64(content[:8])%4 != 0 {
				continue
			}
			lo, hi := max(0, start-cfg.Margin), min(len(data), start+cfg.BlockLen+cfg.Margin)
			if r := len(msg.Runs) - 1; r >= 0 && msg.Runs[r].Seq == id && lo <= msg.Runs[r].Start+len(msg.Runs[r].Residues) {
				msg.Runs[r].Residues = data[msg.Runs[r].Start:hi]
				msg.Runs[r].Keys = append(msg.Runs[r].Keys, start-msg.Runs[r].Start)
			} else {
				if kept >= (len(frames)+1)*perFrame {
					flush()
				}
				msg.Runs = append(msg.Runs, wire.Run{Seq: id, Start: lo, Residues: data[lo:hi], Keys: []int{start - lo}})
			}
			kept++
		}
	}
	flush()
	return frames
}

// BenchmarkNodeIndexBlocks is the node's share of bulk ingest: staged
// batches of about 4096 blocks in runs, decoded from real frames, then the
// bulk build. B/key is what allocation the ingest costs, not what stays
// resident (the budget test bounds that); wire-B/key is the frames' size.
func BenchmarkNodeIndexBlocks(b *testing.B) {
	const keys = 5 * 4096
	frames := runFrames(b, keys, 4096)
	size := 0
	for _, f := range frames {
		size += len(f)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if n := ingestFrames(b, frames); n.stats().TreeSize != keys {
			b.Fatalf("tree holds %d of %d blocks", n.stats().TreeSize, keys)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*keys), "ns/key")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(b.N*keys), "B/key")
	b.ReportMetric(float64(size)/keys, "wire-B/key")
}
