package node

import (
	"cmp"
	"math/bits"
	"slices"

	"mendel/internal/metric"
	"mendel/internal/seq"
)

// noCode marks a byte that is not one of a kind's stored letters.
const noCode = 0xff

// residueCodes maps every byte to its dense alphabet index, noCode for a byte
// outside the kind's letters (lower case included: stored residues are upper
// case), one table per seq.Kind.
var residueCodes = func() (t [2][256]uint8) {
	for k, kind := range []seq.Kind{seq.DNA, seq.Protein} {
		for c := range t[k] {
			t[k][c] = noCode
		}
		for i, c := range seq.AlphabetFor(kind).Letters() {
			t[k][c] = uint8(i)
		}
	}
	return t
}()

// codesFor returns the residue code table of a kind; any kind that is not
// DNA stores protein letters, as seq.AlphabetFor does.
func codesFor(kind seq.Kind) *[256]uint8 {
	if kind == seq.DNA {
		return &residueCodes[0]
	}
	return &residueCodes[1]
}

// screen is a node's search index: the content of every indexed block, cut
// into bit-planes and tested whole against a query window by the paper's
// identity criterion (§V-B), the COBS bit-sliced layout applied to one
// exact-match test per position. Keys sit in groups of 64; per key position
// a group has one 64-bit word per bit of the residue's dense code, so a
// 16-residue protein key costs 5 words' worth of bits, 10 bytes. Beside the
// bits each key slot keeps its block reference and the position of its
// content in the block store's chunks, from where the few keys that pass the
// screen are read for their distance; the screen holds no key copy.
// Guarded by Node.mu.
type screen struct {
	w, planes int
	codes     *[256]uint8
	words     []uint64 // group g's word for position i, plane p at g*w*planes + i*planes + p
	refs      []uint64
	pos       []uint32
}

// newScreen sizes the planes to code one more value than the kind has
// letters: a window byte outside them takes the all-ones code, which no key
// holds (for 24 protein letters 5 planes, for 5 DNA letters 3).
func newScreen(kind seq.Kind, w int) screen {
	letters := seq.AlphabetFor(kind).Len()
	return screen{w: w, planes: bits.Len(uint(letters)), codes: codesFor(kind)}
}

func (s *screen) len() int { return len(s.refs) }

// reserve makes room for n more keys; into an empty screen, a bulk build,
// it sizes the arrays exactly.
func (s *screen) reserve(n int) {
	total := s.len() + n
	stride := s.w * s.planes
	s.words = slices.Grow(s.words, (total+63)/64*stride-len(s.words))
	s.refs = slices.Grow(s.refs, n)
	s.pos = slices.Grow(s.pos, n)
}

// add appends a key whose bytes all have a code (blockStore.check refused
// every other) under its reference and content position.
func (s *screen) add(key []byte, ref uint64, pos uint32) {
	j, stride := s.len(), s.w*s.planes
	if j%64 == 0 {
		s.words = append(s.words, make([]uint64, stride)...)
	}
	group, bit := s.words[len(s.words)-stride:], uint64(1)<<(j%64)
	for i, c := range key {
		code := s.codes[c]
		for p := range s.planes {
			group[i*s.planes+p] |= uint64(code>>p&1) * bit
		}
	}
	s.refs = append(s.refs, ref)
	s.pos = append(s.pos, pos)
}

// candidate is a key that passed the screen: its distance to the query
// window, its block reference and its content position.
type candidate struct {
	dist int
	ref  uint64
	pos  uint32
}

// worse orders candidates by (distance, reference), the order a lookup keeps
// the n nearest in.
func worse(a, b candidate) bool { return a.dist > b.dist || a.dist == b.dist && a.ref > b.ref }

// screenSearch is one worker's lookup state, reused across its lookups: the
// query window's code masks, its distance profile, the bit-sliced match
// counter and the n-best heap. Not for concurrent use.
type screenSearch struct {
	mask []uint64 // per (position, plane): all ones where the window's code has the bit
	hi   []uint64 // a group's match counts from bit 5 up, bit-sliced: see atLeast
	prof metric.Profile
	heap []candidate
}

// nearest returns the n keys nearest to window by (distance, reference) among
// those that hold window's byte at minMatch or more positions, nearest first,
// and how many keys passed that screen (each cost one distance). minMatch 0
// passes every key; minMatch above the key length passes none. The result is
// a function of the set of keys alone, not of the order they were added in,
// and stays valid until the next lookup on st. chunks are the block store's.
func (s *screen) nearest(st *screenSearch, met metric.Metric, chunks [][]byte, window []byte, n, minMatch int) ([]candidate, int) {
	st.heap = st.heap[:0]
	if n <= 0 || minMatch > s.w || s.len() == 0 {
		return nil, 0
	}
	stride := s.w * s.planes
	st.mask = slices.Grow(st.mask[:0], stride)[:stride]
	for i, c := range window {
		code := s.codes[c] // noCode sets every plane: the spare code no key has
		for p := range s.planes {
			st.mask[i*s.planes+p] = -uint64(code >> p & 1)
		}
	}
	nhi := max(bits.Len(uint(s.w))-5, 0) // a count is at most w
	st.hi = slices.Grow(st.hi[:0], nhi)[:nhi]
	st.prof = met.Profile(window, st.prof)
	eligible := 0
	for g := 0; g*64 < s.len(); g++ {
		pass := ^uint64(0)
		if rest := s.len() - g*64; rest < 64 {
			pass = 1<<rest - 1 // the last group's empty slots never pass
		}
		if minMatch > 0 {
			pass &= s.atLeast(st, s.words[g*stride:(g+1)*stride], minMatch)
		}
		for ; pass != 0; pass &= pass - 1 {
			k := g*64 + bits.TrailingZeros64(pass)
			c := candidate{st.prof.Distance(content(chunks, s.pos[k], s.w)), s.refs[k], s.pos[k]}
			eligible++
			st.push(c, n)
		}
	}
	slices.SortFunc(st.heap, func(a, b candidate) int {
		return cmp.Or(cmp.Compare(a.dist, b.dist), cmp.Compare(a.ref, b.ref))
	})
	return st.heap, eligible
}

// atLeast returns the group's keys that match the window (st.mask) at
// minMatch or more positions, one bit per key. Per position, a key matches
// when no plane differs from the window's: XOR each plane with the window's
// mask and NOR the results. A Harley–Seal carry-save adder sums eight such
// match words at a time into bit-sliced counts — ones to sixteens in
// registers, bits from 32 up, which only keys of 32 or more positions reach,
// in st.hi — and a bit-sliced comparison against minMatch leaves the keys
// that reach it.
func (s *screen) atLeast(st *screenSearch, group []uint64, minMatch int) uint64 {
	mask, planes, hi := st.mask[:len(group)], s.planes, st.hi
	clear(hi)
	var ones, twos, fours, eights, sixteens uint64
	for i := 0; i < s.w; i += 8 {
		var m [8]uint64
		if planes == 5 && i+8 <= s.w { // protein, eight whole positions
			g, q := (*[40]uint64)(group[5*i:]), (*[40]uint64)(mask[5*i:])
			for k := range 8 {
				m[k] = ^((g[5*k] ^ q[5*k]) | (g[5*k+1] ^ q[5*k+1]) | (g[5*k+2] ^ q[5*k+2]) | (g[5*k+3] ^ q[5*k+3]) | (g[5*k+4] ^ q[5*k+4]))
			}
		} else {
			for k := range min(8, s.w-i) {
				var diff uint64
				for p := (i + k) * planes; p < (i+k+1)*planes; p++ {
					diff |= group[p] ^ mask[p]
				}
				m[k] = ^diff
			}
		}
		var twosA, twosB, foursA, foursB, carry uint64
		twosA, ones = csa(ones, m[0], m[1])
		twosB, ones = csa(ones, m[2], m[3])
		foursA, twos = csa(twos, twosA, twosB)
		twosA, ones = csa(ones, m[4], m[5])
		twosB, ones = csa(ones, m[6], m[7])
		foursB, twos = csa(twos, twosA, twosB)
		carry, fours = csa(fours, foursA, foursB)
		carry, eights = eights&carry, eights^carry
		carry, sixteens = sixteens&carry, sixteens^carry
		for b := 0; carry != 0; b++ {
			hi[b], carry = hi[b]^carry, hi[b]&carry
		}
	}
	// Walk the count bits from the top: a key is above minMatch once a bit
	// set in its count is clear in minMatch while every higher bit agreed.
	var above uint64
	equal := ^uint64(0)
	bit := func(b int, count uint64) {
		want := -uint64(minMatch >> b & 1)
		above |= equal & count &^ want
		equal &^= count ^ want
	}
	for b := len(hi) - 1; b >= 0; b-- {
		bit(5+b, hi[b])
	}
	bit(4, sixteens)
	bit(3, eights)
	bit(2, fours)
	bit(1, twos)
	bit(0, ones)
	return above | equal
}

// csa is a carry-save adder: it adds three bit vectors lane by lane and
// returns the carries and the sums.
func csa(a, b, c uint64) (carry, sum uint64) {
	u := a ^ b
	return a&b | u&c, u ^ c
}

// push keeps c if it is among the n best seen: st.heap is a max-heap under
// worse, so its root is the first to go.
func (st *screenSearch) push(c candidate, n int) {
	h := st.heap
	if len(h) < n {
		h = append(h, c)
		for i := len(h) - 1; i > 0; {
			parent := (i - 1) / 2
			if !worse(h[i], h[parent]) {
				break
			}
			h[i], h[parent] = h[parent], h[i]
			i = parent
		}
		st.heap = h
		return
	}
	if !worse(h[0], c) {
		return
	}
	h[0] = c
	for i := 0; ; {
		largest := i
		if l := 2*i + 1; l < len(h) && worse(h[l], h[largest]) {
			largest = l
		}
		if r := 2*i + 2; r < len(h) && worse(h[r], h[largest]) {
			largest = r
		}
		if largest == i {
			return
		}
		h[i], h[largest] = h[largest], h[i]
		i = largest
	}
}
