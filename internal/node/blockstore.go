package node

import (
	"bytes"
	"cmp"
	"fmt"
	"math"
	"slices"

	"mendel/internal/invindex"
	"mendel/internal/seq"
	"mendel/internal/wire"
)

// Contexts live in fixed-capacity chunks addressed by a 32-bit position,
// chunk index in the high half and byte offset in the low half.
const (
	chunkShift = 16
	chunkBytes = 1 << chunkShift
	maxChunks  = 1 << (32 - chunkShift)
)

// blockLoc locates one stored block: where its context starts, how long the
// context is and where the block's content sits inside it.
type blockLoc struct {
	pos            uint32
	ctxLen, ctxOff uint16
}

// blockStore is a node's resident inverted-index blocks. A block's context is
// copied into the last chunk on add, never straddles two chunks, and a chunk
// is never reallocated or rewritten below its length, so a view returned by
// add or get stays valid for ever, also after the node lock is released.
// Content is a view into the context, and Seq and Start are the packed
// reference that keys the directory: sealed references ascending with their
// 8-byte blockLocs at the same index of locs, plus recent, the blocks added
// since the last seal (nil when none). Blocks of one sequence added in
// ascending order share the residues their contexts overlap: see add.
// Guarded by Node.mu.
type blockStore struct {
	blockLen, maxCtx int
	codes            *[256]uint8 // the kind's stored letters: see check
	chunks           [][]byte
	sealed           []uint64
	locs             []blockLoc
	recent           map[uint64]blockLoc
	tail             span
}

// span is the residue run the last chunk ends with: residues [start, end) of
// sequence seq, stored from chunk offset off.
type span struct {
	seq             seq.ID
	start, end, off int
}

func newBlockStore(kind seq.Kind, blockLen, margin int) (blockStore, error) {
	maxCtx := blockLen + 2*margin
	if blockLen <= 0 || margin < 0 || maxCtx > math.MaxUint16 {
		return blockStore{}, fmt.Errorf("bad block geometry: length %d, margin %d", blockLen, margin)
	}
	return blockStore{blockLen: blockLen, maxCtx: maxCtx, codes: codesFor(kind)}, nil
}

func (s *blockStore) len() int { return len(s.sealed) + len(s.recent) }

// bytes is the memory the store holds for its blocks: chunk capacity plus
// 16 bytes of directory per block (recent's hashing overhead not counted).
func (s *blockStore) bytes() int { return len(s.chunks)*chunkBytes + 16*s.len() }

// lookup binary-searches the sorted arrays for ref, then checks recent.
func (s *blockStore) lookup(ref uint64) (blockLoc, bool) {
	if i, ok := slices.BinarySearch(s.sealed, ref); ok {
		return s.locs[i], true
	}
	loc, ok := s.recent[ref]
	return loc, ok
}

// seal merges recent into the sorted arrays once it holds at least an eighth
// as many blocks as they do: a bulk load seals once, and a single write does
// not copy the whole directory.
func (s *blockStore) seal() {
	if len(s.recent) > 0 && 8*len(s.recent) >= len(s.sealed) {
		s.sealed, s.locs = s.merged()
		s.recent = nil
	}
}

// merged returns the directory with recent merged in, as fresh arrays of
// exact length.
func (s *blockStore) merged() ([]uint64, []blockLoc) {
	type entry struct {
		ref uint64
		loc blockLoc
	}
	add := make([]entry, 0, len(s.recent))
	for ref, loc := range s.recent {
		add = append(add, entry{ref, loc})
	}
	slices.SortFunc(add, func(a, b entry) int { return cmp.Compare(a.ref, b.ref) })
	refs, locs := make([]uint64, 0, s.len()), make([]blockLoc, 0, s.len())
	i := 0 // s.sealed[:i] is copied
	for _, e := range add {
		j, _ := slices.BinarySearch(s.sealed[i:], e.ref)
		refs = append(append(refs, s.sealed[i:i+j]...), e.ref)
		locs = append(append(locs, s.locs[i:i+j]...), e.loc)
		i += j
	}
	return append(refs, s.sealed[i:]...), append(locs, s.locs[i:]...)
}

// check rejects a block the store cannot hold or a search could not extend:
// everything get and align.ExtendUngapped later index without looking, and
// any byte that is not one of the kind's stored letters, which the screen
// could not code.
func (s *blockStore) check(b *wire.Block) error {
	ref := invindex.PackRef(b.Seq, b.Start)
	switch _, start := invindex.UnpackRef(ref); {
	case b.Start < 0 || start != b.Start: // where int has 32 bits a negative start survives the round trip
		return fmt.Errorf("block seq=%d: start %d does not fit a packed reference", b.Seq, b.Start)
	case len(b.Content) != s.blockLen:
		return fmt.Errorf("block %#x: block length %d, expected %d", ref, len(b.Content), s.blockLen)
	case len(b.Context) > s.maxCtx:
		return fmt.Errorf("block %#x: context of %d bytes, at most %d", ref, len(b.Context), s.maxCtx)
	case b.CtxOff < 0 || b.CtxOff+s.blockLen > len(b.Context):
		return fmt.Errorf("block %#x: content at [%d:%d] of a %d-byte context", ref, b.CtxOff, b.CtxOff+s.blockLen, len(b.Context))
	case !bytes.Equal(b.Context[b.CtxOff:b.CtxOff+s.blockLen], b.Content):
		return fmt.Errorf("block %#x: content differs from its context at offset %d", ref, b.CtxOff)
	}
	for i, c := range b.Context {
		if s.codes[c] == noCode {
			return fmt.Errorf("block %#x: byte %q at context offset %d is not a stored residue", ref, c, i)
		}
	}
	return nil
}

// room reports whether n more checked blocks are certain to fit: a chunk
// holds at least chunkBytes/maxCtx of them and a position names maxChunks.
func (s *blockStore) room(n int) bool {
	perChunk := chunkBytes / s.maxCtx
	return len(s.chunks)+(n+perChunk-1)/perChunk <= maxChunks
}

// add stores a checked block and returns the position of its content, or
// false, changing nothing, when the reference is already held. A context that
// extends the tail span (see shares) appends only its residues past the
// span's end and points into the span; any other context is appended whole
// and becomes the new tail span.
func (s *blockStore) add(b *wire.Block) (uint32, bool) {
	ref := invindex.PackRef(b.Seq, b.Start)
	if _, dup := s.lookup(ref); dup {
		return 0, false
	}
	lo := b.Start - b.CtxOff // the context's first residue in its sequence
	hi := lo + len(b.Context)
	last, t := len(s.chunks)-1, &s.tail
	if !s.shares(b, lo, hi) {
		if last < 0 || chunkBytes-len(s.chunks[last]) < len(b.Context) {
			s.chunks = append(s.chunks, make([]byte, 0, chunkBytes))
			last++
		}
		*t = span{seq: b.Seq, start: lo, end: lo, off: len(s.chunks[last])}
	}
	if hi > t.end {
		s.chunks[last] = append(s.chunks[last], b.Context[t.end-lo:]...)
		t.end = hi
	}
	loc := blockLoc{pos: uint32(last<<chunkShift | (t.off + lo - t.start)), ctxLen: uint16(len(b.Context)), ctxOff: uint16(b.CtxOff)}
	if s.recent == nil {
		s.recent = make(map[uint64]blockLoc)
	}
	s.recent[ref] = loc
	return loc.pos + uint32(loc.ctxOff), true
}

// shares reports whether b's context, residues [lo, hi) of its sequence, can
// point into the tail span: it starts inside the span or right after it, its
// bytes equal every stored byte they overlap, and the residues past the
// span's end fit the last chunk.
func (s *blockStore) shares(b *wire.Block, lo, hi int) bool {
	t := s.tail
	if len(s.chunks) == 0 || b.Seq != t.seq || lo < t.start || lo > t.end {
		return false
	}
	last := s.chunks[len(s.chunks)-1]
	stored := last[t.off+lo-t.start:] // the span ends the chunk
	n := min(len(stored), len(b.Context))
	return bytes.Equal(stored[:n], b.Context[:n]) && len(last)+max(hi-t.end, 0) <= chunkBytes
}

func (s *blockStore) get(ref uint64) (wire.Block, bool) {
	loc, ok := s.lookup(ref)
	if !ok {
		return wire.Block{}, false
	}
	return s.view(ref, loc), true
}

// content returns the w bytes at position pos of chunks: a block's content,
// by the position add returned for it.
func content(chunks [][]byte, pos uint32, w int) []byte {
	off := int(pos & (chunkBytes - 1))
	return chunks[pos>>chunkShift][off : off+w : off+w]
}

func (s *blockStore) view(ref uint64, loc blockLoc) wire.Block {
	off := int(loc.pos & (chunkBytes - 1))
	end := off + int(loc.ctxLen)
	ctx := s.chunks[loc.pos>>chunkShift][off:end:end]
	id, start := invindex.UnpackRef(ref)
	cOff := int(loc.ctxOff)
	return wire.Block{Seq: id, Start: start, Content: ctx[cOff : cOff+s.blockLen : cOff+s.blockLen], Context: ctx, CtxOff: cOff}
}

// refs returns every held reference in ascending order, the order snapshots
// and manifests are written in.
func (s *blockStore) refs() []uint64 {
	refs, _ := s.merged()
	return refs
}
