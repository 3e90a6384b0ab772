package vptree

import "math/rand"

// vertexRNG is the generator of rand.New(rand.NewSource(seed)) — math/rand's
// additive lagged Fibonacci source — with a seeding step that allocates
// nothing and has no sequential chain. Int63 and Intn return exactly what a
// math/rand generator seeded alike returns, draw for draw, so a build that
// reseeds one vertexRNG at each vertex cuts the trees a fresh rand.NewSource
// per vertex cut (TestVertexRNGMatchesMathRand, TestBuildShapeGolden).
//
// math/rand seeds word i of its 607-word state from three consecutive values
// of the Lehmer generator x ← 48271·x mod (2³¹−1), XORed with a fixed table.
// Lehmer value n of a seed s is s·48271ⁿ mod (2³¹−1), so with the powers
// tabulated every word is seeded on its own, three multiplications and
// Mersenne reductions, instead of after the 1,841 steps before it. The fixed
// table is recovered once from math/rand's own output (see init).
//
// A vertex makes ~200 draws, and each of the first rngTap draws reads two
// words no earlier draw has read, so words are seeded as draws first reach
// them: ~400 of the 607 at a vertex.
type vertexRNG struct {
	tap, feed int
	s         uint64 // the seed reduced as math/rand reduces it
	fresh     int    // draws left that read two unseeded words
	vec       [rngLen]uint64
}

const (
	rngLen     = 607 // words of generator state
	rngTap     = 273 // lag of the second tap
	lehmerM    = 1<<31 - 1
	lehmerA    = 48271
	lehmerSkip = 20 // Lehmer values math/rand discards before word 0
	zeroSeed   = 89482311
)

var (
	// lehmerPow[i][j] is 48271^(lehmerSkip+1+3i+j) mod (2³¹−1): Lehmer
	// value lehmerSkip+1+3i+j of seed s, the j-th of word i's three, is
	// mulModM(s, lehmerPow[i][j]).
	lehmerPow [rngLen][3]uint64
	// rngCooked is math/rand's fixed table: the seed-1 state XOR the seed-1
	// Lehmer words.
	rngCooked [rngLen]uint64
)

func init() {
	p := uint64(1)
	for range lehmerSkip {
		p = mulModM(p, lehmerA)
	}
	for i := range lehmerPow {
		for j := range lehmerPow[i] {
			p = mulModM(p, lehmerA)
			lehmerPow[i][j] = p
		}
	}
	// The first rngLen outputs of a fresh source give back its seeded state.
	// Output k (1-based) is word f = (rngLen-rngTap-k) mod rngLen, updated in
	// place, plus tap word rngLen-k. For k > rngTap the tap word is output
	// k-rngTap and word f still holds its seed; for k <= rngTap both are
	// seeds, and the tap's (words rngLen-rngTap and up) comes from the
	// second pass.
	src := rand.NewSource(1).(rand.Source64)
	var out [rngLen + 1]uint64
	for k := 1; k <= rngLen; k++ {
		out[k] = src.Uint64()
	}
	var state [rngLen]uint64
	for k := rngTap + 1; k <= rngLen-rngTap; k++ { // words rngLen-2·rngTap-1 .. 0
		state[rngLen-rngTap-k] = out[k] - out[k-rngTap]
	}
	for k := rngLen - rngTap + 1; k <= rngLen; k++ { // words rngLen-1 .. rngLen-rngTap
		state[2*rngLen-rngTap-k] = out[k] - out[k-rngTap]
	}
	for k := 1; k <= rngTap; k++ { // words rngLen-rngTap-1 .. rngLen-2·rngTap
		state[rngLen-rngTap-k] = out[k] - state[rngLen-k]
	}
	for i := range rngCooked {
		rngCooked[i] = state[i] ^ lehmerWord(1, i)
	}
}

// mulModM returns a·b mod (2³¹−1) for a, b < 2³¹: 2³¹ ≡ 1, so the high bits
// fold onto the low ones.
func mulModM(a, b uint64) uint64 {
	x := a * b
	x = x&lehmerM + x>>31
	if x >= lehmerM {
		x -= lehmerM
	}
	return x
}

// lehmerWord is word i of math/rand's seeding of s before the fixed table.
func lehmerWord(s uint64, i int) uint64 {
	p := &lehmerPow[i]
	return mulModM(s, p[0])<<40 ^ mulModM(s, p[1])<<20 ^ mulModM(s, p[2])
}

// seed resets r to the state of rand.NewSource(seed).
func (r *vertexRNG) seed(seed int64) {
	seed %= lehmerM
	if seed < 0 {
		seed += lehmerM
	}
	if seed == 0 {
		seed = zeroSeed
	}
	r.s = uint64(seed)
	r.tap, r.feed, r.fresh = 0, rngLen-rngTap, rngTap
}

// seedWord sets word i to its seeded value.
func (r *vertexRNG) seedWord(i int) {
	r.vec[i] = lehmerWord(r.s, i) ^ rngCooked[i]
}

// seedFresh seeds the words the current draw reads first. Draw k <= rngTap
// reads feed word rngLen-rngTap-k and tap word rngLen-k for the first time;
// the words below rngLen-2·rngTap are read first by the draws after these,
// all as feed words, so they are seeded with the last of them.
func (r *vertexRNG) seedFresh() {
	r.seedWord(r.feed)
	r.seedWord(r.tap)
	if r.fresh--; r.fresh == 0 {
		for i := range rngLen - 2*rngTap {
			r.seedWord(i)
		}
	}
}

// Int63 is rand.Rand.Int63.
func (r *vertexRNG) Int63() int64 {
	r.tap--
	if r.tap < 0 {
		r.tap += rngLen
	}
	r.feed--
	if r.feed < 0 {
		r.feed += rngLen
	}
	if r.fresh > 0 {
		r.seedFresh()
	}
	x := r.vec[r.feed] + r.vec[r.tap]
	r.vec[r.feed] = x
	return int64(x &^ (1 << 63))
}

// Intn is rand.Rand.Intn, rejection sampling included, for the bounds a
// vertex draws with: 0 < n < 2³¹, since a vertex counts its items in an
// int32 (math/rand switches to Int63n above that).
func (r *vertexRNG) Intn(n int) int {
	if n <= 0 || n > 1<<31-1 {
		panic("vptree: Intn bound outside (0, 2^31)")
	}
	bound := int32(n)
	if bound&(bound-1) == 0 {
		return int(int32(r.Int63()>>32) & (bound - 1))
	}
	limit := int32(1<<31 - 1 - (1<<31)%uint32(bound))
	v := int32(r.Int63() >> 32)
	for v > limit {
		v = int32(r.Int63() >> 32)
	}
	return int(v % bound)
}
