package vptree

import (
	"math"
	"math/rand"
	"testing"
)

// rngBounds are the Intn bounds a draw script picks from: small and
// power-of-two bounds (the masked path), and bounds near 2³¹ whose rejection
// loop runs about every other draw.
var rngBounds = []int{1, 2, 3, 24, 32, 1000, 9650, 1 << 20, 1<<30 + 1, 1<<30 + 3, 1<<31 - 1, 1 << 30, 3 << 29, 3<<29 + 1}

// checkDraws replays script on a vertexRNG and on the math/rand generator
// seeded alike: a byte below 64 is an Int63, any other picks an Intn bound.
func checkDraws(t *testing.T, v *vertexRNG, seed int64, script []byte) {
	t.Helper()
	v.seed(seed)
	ref := rand.New(rand.NewSource(seed))
	for i, op := range script {
		if op < 64 {
			if got, want := v.Int63(), ref.Int63(); got != want {
				t.Fatalf("seed %d draw %d Int63: %d, math/rand %d", seed, i, got, want)
			}
			continue
		}
		n := rngBounds[int(op)%len(rngBounds)]
		if got, want := v.Intn(n), ref.Intn(n); got != want {
			t.Fatalf("seed %d draw %d Intn(%d): %d, math/rand %d", seed, i, n, got, want)
		}
	}
}

// TestVertexRNGMatchesMathRand checks vertexRNG against math/rand over
// thousands of seeds, edge seeds included (0 and multiples of 2³¹−1 map to
// math/rand's zero-seed substitute), with 1,500 mixed draws each: past 607
// draws the state ring wraps, so every word is read after its update.
func TestVertexRNGMatchesMathRand(t *testing.T) {
	seeds := []int64{0, 1, -1, lehmerM, -lehmerM, 2 * lehmerM, 1 << 62, -(1 << 62), math.MaxInt64, math.MinInt64, zeroSeed}
	gen := rand.New(rand.NewSource(99))
	for len(seeds) < 2100 {
		seeds = append(seeds, gen.Int63()-gen.Int63(), int64(gen.Intn(1<<16))-1<<15)
	}
	script := make([]byte, 1500)
	var v vertexRNG // reseeded in place, as a build reuses it
	for _, seed := range seeds {
		gen.Read(script)
		checkDraws(t, &v, seed, script)
	}
}

// FuzzVertexRNG drives vertexRNG and math/rand from the same seed through an
// arbitrary draw script.
func FuzzVertexRNG(f *testing.F) {
	f.Add(int64(0), []byte{0, 64, 65, 200})
	f.Add(int64(-lehmerM), []byte("\x00\x00\x00\xff\xfe\x47"))
	f.Add(int64(math.MinInt64), make([]byte, 700))
	f.Fuzz(func(t *testing.T, seed int64, script []byte) {
		var v vertexRNG
		checkDraws(t, &v, seed, script)
	})
}

// BenchmarkVertexSeed times one vertex's generator work in a bulk build:
// a reseed and the ~200 draws of vantage selection.
func BenchmarkVertexSeed(b *testing.B) {
	var v vertexRNG
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		v.seed(int64(i))
		for range 200 {
			v.Intn(9650)
		}
	}
}
