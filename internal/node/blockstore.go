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
// ascending order share the residues their contexts overlap: see addRun.
// Guarded by Node.mu.
type blockStore struct {
	blockLen, margin int
	maxCtx           int
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
	return blockStore{blockLen: blockLen, margin: margin, maxCtx: maxCtx, codes: codesFor(kind)}, nil
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
// everything get and align.ExtendUngapped later index without looking, a
// context reaching more than the margin past its content (add cuts every
// context to the margin: see addRun), and any byte that is not one of the
// kind's stored letters, which the screen could not code.
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
	case b.CtxOff > s.margin || len(b.Context)-b.CtxOff-s.blockLen > s.margin:
		return fmt.Errorf("block %#x: context reaches more than %d residues past the content at [%d:%d]", ref, s.margin, b.CtxOff, b.CtxOff+s.blockLen)
	case !bytes.Equal(b.Context[b.CtxOff:b.CtxOff+s.blockLen], b.Content):
		return fmt.Errorf("block %#x: content differs from its context at offset %d", ref, b.CtxOff)
	}
	return s.checkLetters(ref, "block", b.Context)
}

// checkRun rejects a run the store cannot hold or a search could not
// extend: one over wire.MaxRunResidues, keys that are not ascending or whose
// block does not lie inside the run, a key whose packed reference would not
// unpack to its start, and any residue that is not a stored letter. Errors
// name the packed reference of the run's start.
func (s *blockStore) checkRun(r *wire.Run) error {
	ref := invindex.PackRef(r.Seq, r.Start)
	if len(r.Residues) > wire.MaxRunResidues {
		return fmt.Errorf("run %#x: %d residues, at most %d", ref, len(r.Residues), wire.MaxRunResidues)
	}
	prev := -1
	for _, k := range r.Keys {
		if k <= prev || k > len(r.Residues)-s.blockLen {
			return fmt.Errorf("run %#x: key %d after key %d in a run of %d residues", ref, k, prev, len(r.Residues))
		}
		prev = k
	}
	if prev >= 0 {
		// Keys ascend from 0, so every key's start is representable when the
		// run's start and its last key's are.
		last := r.Start + prev
		if _, start := invindex.UnpackRef(invindex.PackRef(r.Seq, last)); r.Start < 0 || last < r.Start || start != last {
			return fmt.Errorf("run %#x: start %d and key %d do not fit a packed reference", ref, r.Start, prev)
		}
	}
	return s.checkLetters(ref, "run", r.Residues)
}

// checkLetters rejects residues with a byte that is not a stored letter.
func (s *blockStore) checkLetters(ref uint64, what string, residues []byte) error {
	for i, c := range residues {
		if s.codes[c] == noCode {
			return fmt.Errorf("%s %#x: byte %q at offset %d is not a stored residue", what, ref, c, i)
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
// false, changing nothing, when the reference is already held: the block as
// a run of one key (see addRun).
func (s *blockStore) add(b *wire.Block) (uint32, bool) {
	key := [1]int{b.CtxOff}
	var slots [1]slot
	if len(s.addRun(&wire.Run{Seq: b.Seq, Start: b.Start - b.CtxOff, Residues: b.Context, Keys: key[:]}, slots[:0])) == 0 {
		return 0, false
	}
	return slots[0].pos, true
}

// addRun stores the blocks of a checked run that the store does not hold
// yet and appends their slots to dst. The block at key k has the content
// r.Residues[k:k+w] and the context r.Residues[max(0,k−margin):
// min(len,k+w+margin)]. Blocks are stored one at a time in key order: a
// context that extends the tail span (see shares) appends only its residues
// past the span's end and points into the span; any other context is
// appended whole and becomes the new tail span. A block compares its bytes
// with the span until one of the run's blocks ends the span: from then on
// the span holds this run's residues from that block's context start, and
// every later context starts no earlier.
func (s *blockStore) addRun(r *wire.Run, dst []slot) []slot {
	compare := true
	for _, k := range r.Keys {
		ref := invindex.PackRef(r.Seq, r.Start+k)
		if _, dup := s.lookup(ref); dup {
			continue // already held: hint replay, repair push or retry
		}
		lo, hi := max(0, k-s.margin), min(len(r.Residues), k+s.blockLen+s.margin)
		ctx := r.Residues[lo:hi]
		lo, hi = r.Start+lo, r.Start+hi // the context's residues in its sequence
		last, t := len(s.chunks)-1, &s.tail
		if !s.shares(r.Seq, lo, ctx, compare) {
			if last < 0 || chunkBytes-len(s.chunks[last]) < len(ctx) {
				s.chunks = append(s.chunks, make([]byte, 0, chunkBytes))
				last++
			}
			*t = span{seq: r.Seq, start: lo, end: lo, off: len(s.chunks[last])}
		}
		if hi > t.end {
			s.chunks[last] = append(s.chunks[last], ctx[t.end-lo:]...)
			t.end = hi
		}
		compare = t.end > hi // stored residues past this context are not checked yet
		loc := blockLoc{pos: uint32(last<<chunkShift | (t.off + lo - t.start)), ctxLen: uint16(len(ctx)), ctxOff: uint16(r.Start + k - lo)}
		if s.recent == nil {
			s.recent = make(map[uint64]blockLoc)
		}
		s.recent[ref] = loc
		dst = append(dst, slot{ref: ref, pos: loc.pos + uint32(loc.ctxOff)})
	}
	return dst
}

// shares reports whether ctx, the context starting at residue lo of
// sequence id, can point into the tail span: it starts inside the span or
// right after it, the residues past the span's end fit the last chunk, and,
// when compare is set, its bytes equal every stored byte they overlap.
func (s *blockStore) shares(id seq.ID, lo int, ctx []byte, compare bool) bool {
	t := s.tail
	if len(s.chunks) == 0 || id != t.seq || lo < t.start || lo > t.end {
		return false
	}
	last := s.chunks[len(s.chunks)-1]
	if len(last)+max(lo+len(ctx)-t.end, 0) > chunkBytes {
		return false
	}
	if !compare {
		return true
	}
	stored := last[t.off+lo-t.start:] // the span ends the chunk
	n := min(len(stored), len(ctx))
	return bytes.Equal(stored[:n], ctx[:n])
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
