package node

import (
	"cmp"
	"math/bits"
	"slices"

	"mendel/internal/matrix"
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
// 16-residue protein key costs 5 words' worth of bits, 10 bytes, and its
// block reference 8 more. The planes are the only copy of the keys a lookup
// reads: a key that passes the screen has its codes decoded from them for its
// distance and, if it is a candidate, its c-score. Guarded by Node.mu.
type screen struct {
	w, planes int
	codes     *[256]uint8
	letters   []byte          // the kind's stored letters by code
	met       metric.Metric   // summed over positions, as Metric.Profile requires
	dist      *[32][32]uint16 // met's distance between the letters of two codes
	words     []uint64        // group g's word for position i, plane p at g*w*planes + i*planes + p
	refs      []uint64
}

// newScreen sizes the planes to code one more value than the kind has
// letters: a window byte outside them takes the all-ones code, which no key
// holds (for 24 protein letters 5 planes, for 5 DNA letters 3). It tabulates
// met between every pair of letters by code.
func newScreen(kind seq.Kind, w int, met metric.Metric) screen {
	letters := seq.AlphabetFor(kind).Letters()
	s := screen{w: w, planes: bits.Len(uint(len(letters))), codes: codesFor(kind), letters: letters, met: met, dist: new([32][32]uint16)}
	for code, letter := range letters {
		s.distRow(&s.dist[code], letter, new([2]byte))
	}
	return s
}

// distRow sets row to met's distance between c and the letter of each code;
// pair is scratch.
func (s *screen) distRow(row *[32]uint16, c byte, pair *[2]byte) {
	pair[0] = c
	for code, letter := range s.letters {
		pair[1] = letter
		row[code] = uint16(s.met.Distance(pair[:1], pair[1:]))
	}
}

func (s *screen) len() int { return len(s.refs) }

// reserve makes room for n more keys; into an empty screen, a bulk build,
// it sizes the arrays exactly.
func (s *screen) reserve(n int) {
	total := s.len() + n
	stride := s.w * s.planes
	s.words = slices.Grow(s.words, (total+63)/64*stride-len(s.words))
	s.refs = slices.Grow(s.refs, n)
}

// add appends a key whose bytes all have a code (blockStore.check refused
// every other) under its reference.
func (s *screen) add(key []byte, ref uint64) {
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
}

// decode returns the w residue codes key k holds, read from the planes into
// codes' storage: unrolled for 5 planes (protein) and 3 (DNA), a loop over
// the planes for any other count.
func (s *screen) decode(k int, codes []uint8) []uint8 {
	planes, bit := s.planes, uint(k%64)
	words := s.words[k/64*s.w*planes:][:s.w*planes]
	codes = slices.Grow(codes[:0], s.w)[:s.w]
	switch planes {
	case 5:
		for i := range codes {
			g := (*[5]uint64)(words[5*i:])
			codes[i] = uint8(g[0]>>bit&1 | g[1]>>bit&1<<1 | g[2]>>bit&1<<2 | g[3]>>bit&1<<3 | g[4]>>bit&1<<4)
		}
	case 3:
		for i := range codes {
			g := (*[3]uint64)(words[3*i:])
			codes[i] = uint8(g[0]>>bit&1 | g[1]>>bit&1<<1 | g[2]>>bit&1<<2)
		}
	default:
		for i := range codes {
			var c uint8
			for p, word := range words[i*planes : (i+1)*planes] {
				c |= uint8(word>>bit&1) << p
			}
			codes[i] = c
		}
	}
	return codes
}

// matchCodes sets st.match to window's c-score table: per position the key
// codes cScore counts as a match to the window's byte, a letter equal to it
// or one m scores above zero.
func (s *screen) matchCodes(st *screenSearch, window []byte, m *matrix.Matrix) {
	st.match = slices.Grow(st.match[:0], len(window))[:len(window)]
	for i, a := range window {
		var set uint32
		for c, letter := range s.letters {
			if a == letter || m.Score(a, letter) > 0 {
				set |= 1 << c
			}
		}
		st.match[i] = set
	}
}

// cScore is the paper's consecutivity score (§V-B) of key k against the
// window st.match was set for: of the positions that match, the fraction in
// runs of at least two, with the key's codes decoded from the planes.
func (s *screen) cScore(st *screenSearch, k int) float64 {
	st.keyCodes = s.decode(k, st.keyCodes)
	match, codes := st.match, st.keyCodes
	total, consecutive := 0, 0
	prev, cur := false, match[0]>>codes[0]&1 != 0
	for i := range s.w {
		next := i+1 < s.w && match[i+1]>>codes[i+1]&1 != 0
		if cur {
			total++
			if prev || next {
				consecutive++
			}
		}
		prev, cur = cur, next
	}
	if total == 0 {
		return 0
	}
	return float64(consecutive) / float64(total)
}

// candidate is a key that passed the screen: its distance to the query
// window, its block reference and its index in the screen.
type candidate struct {
	dist int
	ref  uint64
	key  int
}

// worse orders candidates by (distance, reference), the order a lookup keeps
// the n nearest in.
func worse(a, b candidate) bool { return a.dist > b.dist || a.dist == b.dist && a.ref > b.ref }

// screenSearch is one worker's lookup state, reused across its lookups: the
// query window's code masks, its distance and c-score tables, a key's decoded
// codes and the n-best heap. Not for concurrent use.
type screenSearch struct {
	mask     []uint64     // per (position, plane): all ones where the window's code has the bit
	hi       []uint64     // count bits from 32 up, for keys of 32 or more positions: see atLeast
	dist     [][32]uint16 // per position and key code: the distance to the window's byte
	keyCodes []uint8      // the codes of the key last decoded
	match    []uint32     // per position: the key codes cScore counts as a match, bit by code
	pair     [2]byte      // scratch for distRow
	heap     []candidate
}

// nearest returns the n keys nearest to window by (distance, reference) among
// those that hold window's byte at minMatch or more positions, nearest first,
// and how many keys passed the screen (each cost one distance). minMatch 0
// passes every key; minMatch above the key length passes none. The result is
// a function of the set of keys alone, not of the order they were added in,
// and stays valid until the next lookup on st. A key's distance is summed
// from its codes, decoded from the planes, in a table of window position by
// key code copied from s.dist (computed, for a byte that is not a letter):
// as the metric sums over positions, it equals the metric's
// Distance(window, key). A metric's distances are integers and zero only
// between equal letters, so where every window byte is a letter, or a byte the
// metric puts at distance 1 or more from every letter, each position a key
// misses costs at least 1 and d >= w - matches (with equality under Hamming
// distance). Then once the heap holds n keys with worst distance d* the
// screen of every later 64-key group asks for w - d* matches: a key with
// fewer is farther than d* and cannot enter, while a key at d* still competes
// on its reference. The candidates are the same; the count of keys that
// passed falls where the raise binds. A window byte at distance 0 from some
// letter (lower case, under a matrix metric) turns the raise off.
func (s *screen) nearest(st *screenSearch, window []byte, n, minMatch int) ([]candidate, int) {
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
	nhi := max(bits.Len(uint(s.w))-5, 0)
	st.hi = slices.Grow(st.hi[:0], nhi)[:nhi]
	window = window[:s.w]
	st.dist = slices.Grow(st.dist[:0], s.w)[:s.w]
	raise := true // every position a key misses costs at least 1
	for i, c := range window {
		if code := s.codes[c]; code != noCode {
			st.dist[i] = s.dist[code]
		} else {
			s.distRow(&st.dist[i], c, &st.pair)
			raise = raise && !slices.Contains(st.dist[i][:len(s.letters)], 0)
		}
	}
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
			st.keyCodes = s.decode(k, st.keyCodes)
			d := 0
			for i, c := range st.keyCodes {
				d += int(st.dist[i][c])
			}
			eligible++
			st.push(candidate{d, s.refs[k], k}, n)
		}
		if raise && len(st.heap) == n {
			minMatch = max(minMatch, s.w-st.heap[0].dist)
		}
	}
	slices.SortFunc(st.heap, func(a, b candidate) int {
		return cmp.Or(cmp.Compare(a.dist, b.dist), cmp.Compare(a.ref, b.ref))
	})
	return st.heap, eligible
}

// atLeast returns the group's keys that match the window (st.mask) at
// minMatch (1 to w) or more positions, one bit per key. Per position, a key
// matches when no plane differs from the window's: XOR each plane with the
// window's mask and NOR the results. For the shipped shapes, 3 planes (DNA)
// and 5 (protein), the match words of sixteen positions at a time go through
// one unrolled Harley–Seal carry-save tree into bit-sliced counts held in
// registers, ones to sixteens; any other position is added alone. Every lane
// starts at 2^K - minMatch, K the width of a count (5, or bits.Len(w) for
// keys of 32 or more positions, whose count bits from 32 up live in st.hi),
// so a key reaches minMatch exactly when its lane carries out of bit K-1:
// that carry is the comparison, and as the sum stays below 2^(K+1) it
// happens at most once.
func (s *screen) atLeast(st *screenSearch, group []uint64, minMatch int) uint64 {
	planes, w, hi := s.planes, s.w, st.hi
	mask := st.mask[:len(group)]
	start := uint64(1)<<(5+len(hi)) - uint64(minMatch)
	ones, twos, fours, eights, sixteens := -(start & 1), -(start >> 1 & 1), -(start >> 2 & 1), -(start >> 3 & 1), -(start >> 4 & 1)
	for b := range hi {
		hi[b] = -(start >> (5 + b) & 1)
	}
	var pass uint64
	i := 0
	for ; i+16 <= w && (planes == 3 || planes == 5); i += 16 {
		g, q := group[i*planes:(i+16)*planes], mask[i*planes:(i+16)*planes]
		var m0, m1, m2, m3, m4, m5, m6, m7, m8, m9, m10, m11, m12, m13, m14, m15 uint64
		if planes == 5 {
			m0, m1, m2, m3, m4, m5, m6, m7, m8, m9, m10, m11, m12, m13, m14, m15 = match16x5((*[80]uint64)(g), (*[80]uint64)(q))
		} else {
			m0, m1, m2, m3, m4, m5, m6, m7, m8, m9, m10, m11, m12, m13, m14, m15 = match16x3((*[48]uint64)(g), (*[48]uint64)(q))
		}
		var twosA, twosB, foursA, foursB, eightsA, eightsB, carry uint64
		twosA, ones = csa(ones, m0, m1)
		twosB, ones = csa(ones, m2, m3)
		foursA, twos = csa(twos, twosA, twosB)
		twosA, ones = csa(ones, m4, m5)
		twosB, ones = csa(ones, m6, m7)
		foursB, twos = csa(twos, twosA, twosB)
		eightsA, fours = csa(fours, foursA, foursB)
		twosA, ones = csa(ones, m8, m9)
		twosB, ones = csa(ones, m10, m11)
		foursA, twos = csa(twos, twosA, twosB)
		twosA, ones = csa(ones, m12, m13)
		twosB, ones = csa(ones, m14, m15)
		foursB, twos = csa(twos, twosA, twosB)
		eightsB, fours = csa(fours, foursA, foursB)
		carry, eights = csa(eights, eightsA, eightsB)
		carry, sixteens = sixteens&carry, sixteens^carry
		for b := range hi {
			carry, hi[b] = hi[b]&carry, hi[b]^carry
		}
		pass |= carry
	}
	for ; i < w; i++ {
		var diff uint64
		for p := i * planes; p < (i+1)*planes; p++ {
			diff |= group[p] ^ mask[p]
		}
		carry := ^diff
		carry, ones = ones&carry, ones^carry
		carry, twos = twos&carry, twos^carry
		carry, fours = fours&carry, fours^carry
		carry, eights = eights&carry, eights^carry
		carry, sixteens = sixteens&carry, sixteens^carry
		for b := range hi {
			carry, hi[b] = hi[b]&carry, hi[b]^carry
		}
		pass |= carry
	}
	return pass
}

// match16x5 returns, for sixteen positions of 5 planes each, the keys whose
// code equals the window's (q) at each position.
func match16x5(g, q *[80]uint64) (m0, m1, m2, m3, m4, m5, m6, m7, m8, m9, m10, m11, m12, m13, m14, m15 uint64) {
	m := func(k int) uint64 {
		return ^((g[k] ^ q[k]) | (g[k+1] ^ q[k+1]) | (g[k+2] ^ q[k+2]) | (g[k+3] ^ q[k+3]) | (g[k+4] ^ q[k+4]))
	}
	return m(0), m(5), m(10), m(15), m(20), m(25), m(30), m(35), m(40), m(45), m(50), m(55), m(60), m(65), m(70), m(75)
}

// match16x3 is match16x5 for 3 planes.
func match16x3(g, q *[48]uint64) (m0, m1, m2, m3, m4, m5, m6, m7, m8, m9, m10, m11, m12, m13, m14, m15 uint64) {
	m := func(k int) uint64 { return ^((g[k] ^ q[k]) | (g[k+1] ^ q[k+1]) | (g[k+2] ^ q[k+2])) }
	return m(0), m(3), m(6), m(9), m(12), m(15), m(18), m(21), m(24), m(27), m(30), m(33), m(36), m(39), m(42), m(45)
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
