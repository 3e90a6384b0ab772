package sketch

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"mendel/internal/seq"
	"mendel/internal/wire"
)

const proteinLetters = "ARNDCQEGHILKMFPSTWYV"

func randProtein(rng *rand.Rand, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = proteinLetters[rng.Intn(len(proteinLetters))]
	}
	return out
}

func randDNA(rng *rand.Rand, n int) []byte {
	const letters = "ACGT"
	out := make([]byte, n)
	for i := range out {
		out[i] = letters[rng.Intn(len(letters))]
	}
	return out
}

func testParams() Params {
	return Params{K: 5, BloomBits: 1 << 14, MinHashK: 64, Kind: seq.Protein}
}

func TestBloomNoFalseNegatives(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := New(testParams())
	windows := make([][]byte, 50)
	for i := range windows {
		windows[i] = randProtein(rng, 16)
		s.Add(windows[i])
	}
	for _, w := range windows {
		Hashes(seq.Protein, 5, w, func(h uint64) {
			if !s.ContainsHash(h) {
				t.Fatalf("added k-mer hash %#x reported absent", h)
			}
		})
		if !s.SharesAny(w) {
			t.Fatalf("added window %q reported disjoint", w)
		}
	}
	if s.Empty() {
		t.Fatal("sketch with 50 windows reports empty")
	}
}

func TestSharesAnyDefinitiveNegative(t *testing.T) {
	s := New(testParams())
	s.Add([]byte("ARNDCQEGHILKMFPSTWYV"))
	// A window over a disjoint residue multiset: any true answer would be a
	// Bloom false positive, astronomically unlikely at this occupancy.
	if s.SharesAny([]byte("WWWWWWWWWWWWWWWW")) {
		t.Skip("bloom false positive (possible but ~2^-40 here)")
	}
}

func TestShortWindowNeverSkippable(t *testing.T) {
	s := New(testParams())
	s.Add([]byte("ARNDCQEGHILKMFPSTWYV"))
	if !s.SharesAny([]byte("AR")) { // shorter than K: nothing provable
		t.Fatal("window shorter than K must not be skippable")
	}
}

func TestMergeOrderIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	parts := make([][]byte, 8)
	for i := range parts {
		parts[i] = randProtein(rng, 120)
	}
	build := func(order []int) []byte {
		total := New(testParams())
		for _, i := range order {
			part := New(testParams())
			part.Add(parts[i])
			if err := total.Merge(part); err != nil {
				t.Fatal(err)
			}
		}
		enc, err := total.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		return enc
	}
	want := build([]int{0, 1, 2, 3, 4, 5, 6, 7})
	got := build([]int{7, 3, 5, 1, 6, 0, 2, 4})
	if !bytes.Equal(want, got) {
		t.Fatal("merge order changed the marshalled sketch")
	}
}

func TestMergeIncompatibleParams(t *testing.T) {
	a := New(testParams())
	p := testParams()
	p.K = 7
	if err := a.Merge(New(p)); err == nil {
		t.Fatal("merge of incompatible params accepted")
	}
}

func TestBottomKExactOnSmallSets(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a, b := randProtein(rng, 40), randProtein(rng, 40)
	p := Params{K: 5, MinHashK: 4096, Kind: seq.Protein} // k >> distinct k-mers
	sa, sb := New(p), New(p)
	sa.Add(a)
	sb.Add(b)

	// Exact Jaccard over the distinct canonical hash sets.
	setOf := func(data []byte) map[uint64]struct{} {
		m := make(map[uint64]struct{})
		Hashes(seq.Protein, 5, data, func(h uint64) { m[h] = struct{}{} })
		return m
	}
	ma, mb := setOf(a), setOf(b)
	inter := 0
	for h := range ma {
		if _, ok := mb[h]; ok {
			inter++
		}
	}
	union := len(ma) + len(mb) - inter
	want := float64(inter) / float64(union)

	got := JaccardBottomK(sa.MinHashes(), sb.MinHashes(), 4096)
	if got != want {
		t.Fatalf("bottom-k estimate %v != exact %v on small sets", got, want)
	}
	if got := JaccardBottomK(sa.MinHashes(), sa.MinHashes(), 4096); got != 1 {
		t.Fatalf("self Jaccard = %v, want 1", got)
	}
}

func TestJaccardEstimateErrorBound(t *testing.T) {
	// The recall gate's minhash contract: estimates within 0.05 of truth.
	// Overlapping sequences sharing a common core, k = 512 bottom hashes.
	rng := rand.New(rand.NewSource(4))
	core := randProtein(rng, 800)
	for trial := 0; trial < 10; trial++ {
		a := append(append([]byte{}, core...), randProtein(rng, 400)...)
		b := append(append([]byte{}, core...), randProtein(rng, 400)...)
		p := Params{K: 5, MinHashK: 512, Kind: seq.Protein}
		sa, sb := New(p), New(p)
		sa.Add(a)
		sb.Add(b)
		setOf := func(data []byte) map[uint64]struct{} {
			m := make(map[uint64]struct{})
			Hashes(seq.Protein, 5, data, func(h uint64) { m[h] = struct{}{} })
			return m
		}
		ma, mb := setOf(a), setOf(b)
		inter := 0
		for h := range ma {
			if _, ok := mb[h]; ok {
				inter++
			}
		}
		exact := float64(inter) / float64(len(ma)+len(mb)-inter)
		est := JaccardBottomK(sa.MinHashes(), sb.MinHashes(), 512)
		if d := est - exact; d > 0.05 || d < -0.05 {
			t.Fatalf("trial %d: estimate %v vs exact %v (error %v > 0.05)", trial, est, exact, d)
		}
	}
}

func TestDNACanonicalHashing(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	data := randDNA(rng, 200)
	s, err := seq.New(0, "fwd", seq.DNA, append([]byte(nil), data...))
	if err != nil {
		t.Fatal(err)
	}
	rc := s.ReverseComplement()
	p := Params{K: 11, BloomBits: 1 << 14, MinHashK: 128, Kind: seq.DNA}
	sf, sr := New(p), New(p)
	sf.Add(s.Data)
	sr.Add(rc)
	ef, _ := sf.MarshalBinary()
	er, _ := sr.MarshalBinary()
	if !bytes.Equal(ef, er) {
		t.Fatal("a DNA sequence and its reverse complement produced different sketches")
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, p := range []Params{
		testParams(),
		{K: 11, BloomBits: 1 << 10, Kind: seq.DNA},             // bloom only
		{K: 5, MinHashK: 32, Kind: seq.Protein},                // minhash only
		{K: 5, BloomBits: 100, MinHashK: 8, Kind: seq.Protein}, // non-pow2 bits
	} {
		s := New(p)
		s.Add(randProtein(rng, 300))
		enc, err := s.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		back, err := UnmarshalBinary(enc)
		if err != nil {
			t.Fatalf("params %+v: %v", p, err)
		}
		enc2, err := back.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("params %+v: round trip not stable", p)
		}
		if !reflect.DeepEqual(s.MinHashes(), back.MinHashes()) {
			t.Fatalf("params %+v: MinHashes changed across round trip", p)
		}
	}
}

// TestCloneIndependentAndByteIdentical pins Clone's contract: the copy
// marshals to the original's bytes, and adding to it leaves the original
// untouched (the coordinator folds writes into clones while concurrent
// searches read the originals).
func TestCloneIndependentAndByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, p := range []Params{
		testParams(),
		{K: 11, BloomBits: 1 << 10, Kind: seq.DNA},
		{K: 5, MinHashK: 32, Kind: seq.Protein},
	} {
		s := New(p)
		s.Add(randProtein(rng, 400))
		want, _ := s.MarshalBinary()
		c := s.Clone()
		got, _ := c.MarshalBinary()
		if !bytes.Equal(want, got) {
			t.Fatalf("params %+v: clone marshals differently", p)
		}
		extra := randProtein(rng, 400)
		c.Add(extra)
		if after, _ := s.MarshalBinary(); !bytes.Equal(want, after) {
			t.Fatalf("params %+v: adding to the clone changed the original", p)
		}
		s.Add(extra)
		direct, _ := s.MarshalBinary()
		folded, _ := c.MarshalBinary()
		if !bytes.Equal(direct, folded) {
			t.Fatalf("params %+v: clone+add diverges from add", p)
		}
	}
}

func TestUnmarshalRejectsCorrupt(t *testing.T) {
	s := New(testParams())
	s.Add([]byte("ARNDCQEGHILKMFPSTWYV"))
	enc, _ := s.MarshalBinary()
	for _, bad := range [][]byte{
		nil,
		{},
		{99},
		enc[:len(enc)-3],
		append(append([]byte{}, enc...), 1, 2, 3),
	} {
		if _, err := UnmarshalBinary(bad); err == nil {
			t.Fatalf("corrupt input %v accepted", bad)
		}
	}
}

func TestEstimateContainment(t *testing.T) {
	s := New(testParams())
	data := []byte("ARNDCQEGHILKMFPSTWYVARNDC")
	s.Add(data)
	var present []uint64
	Hashes(seq.Protein, 5, data, func(h uint64) { present = append(present, h) })
	if got := EstimateContainment(present, s); got != 1 {
		t.Fatalf("containment of added hashes = %v, want 1", got)
	}
	if got := EstimateContainment(nil, s); got != 1 {
		t.Fatalf("containment of empty hash list = %v, want 1 (nothing provable)", got)
	}
}

// FuzzSketchRoundTrip exercises the sketch's three contracts at once:
// build/merge/query invariants (no false negatives, merge == bulk add),
// MarshalBinary/UnmarshalBinary stability plus rejection of arbitrary
// bytes, and the binary wire codec round trip of the SketchFetch messages
// that carry sketches between nodes and the coordinator.
func FuzzSketchRoundTrip(f *testing.F) {
	f.Add([]byte("ARNDCQEGHILKMFPSTWYV"), []byte("MKVLAAGWTYMKVLAAGWTY"), uint8(5), true)
	f.Add([]byte("ACGTACGTACGTACGT"), []byte("TTTTGGGGCCCCAAAA"), uint8(11), false)
	f.Add([]byte{}, []byte{0xFF, 0x00, 0x41}, uint8(3), true)
	if enc, err := New(testParams()).MarshalBinary(); err == nil {
		f.Add(enc, []byte{}, uint8(5), true)
	}
	f.Fuzz(func(t *testing.T, a, b []byte, kk uint8, protein bool) {
		// Arbitrary bytes must never panic the decoder; valid encodings
		// must re-marshal identically.
		if s, err := UnmarshalBinary(a); err == nil {
			enc, err := s.MarshalBinary()
			if err != nil {
				t.Fatalf("remarshal of accepted sketch failed: %v", err)
			}
			back, err := UnmarshalBinary(enc)
			if err != nil || !reflect.DeepEqual(back.MinHashes(), s.MinHashes()) {
				t.Fatalf("accepted sketch did not survive a round trip: %v", err)
			}
		}

		kind := seq.Protein
		if !protein {
			kind = seq.DNA
		}
		p := Params{K: int(kk%12) + 3, BloomBits: 1 << 12, MinHashK: 32, Kind: kind}

		// Merge of two single-input sketches must equal one bulk sketch
		// over both inputs (order-independent union).
		sa, sb, both := New(p), New(p), New(p)
		sa.Add(a)
		sb.Add(b)
		both.Add(a)
		both.Add(b)
		if err := sa.Merge(sb); err != nil {
			t.Fatal(err)
		}
		ea, _ := sa.MarshalBinary()
		eb, _ := both.MarshalBinary()
		if !bytes.Equal(ea, eb) {
			t.Fatal("merge(add(a), add(b)) != add(a;b)")
		}

		// No false negatives after the round trip.
		back, err := UnmarshalBinary(ea)
		if err != nil {
			t.Fatalf("own encoding rejected: %v", err)
		}
		for _, data := range [][]byte{a, b} {
			Hashes(kind, p.K, data, func(h uint64) {
				if !back.ContainsHash(h) {
					t.Fatalf("k-mer of added data absent after round trip")
				}
			})
		}

		// Wire codec round trip of the hot fetch messages.
		msg := wire.SketchFetchResult{Node: "node-001", Sketch: ea}
		frame, ok := wire.AppendHot(nil, msg)
		if !ok {
			t.Fatal("SketchFetchResult not hot-encodable")
		}
		dec, err := wire.DecodeHot(frame)
		if err != nil {
			t.Fatalf("decoding own SketchFetchResult frame: %v", err)
		}
		got, ok := dec.(wire.SketchFetchResult)
		if !ok || got.Node != msg.Node || !bytes.Equal(got.Sketch, msg.Sketch) {
			t.Fatalf("SketchFetchResult changed across the wire: %+v", dec)
		}
		if frame2, ok := wire.AppendHot(nil, wire.SketchFetch{}); !ok {
			t.Fatal("SketchFetch not hot-encodable")
		} else if dec2, err := wire.DecodeHot(frame2); err != nil {
			t.Fatalf("decoding SketchFetch frame: %v", err)
		} else if _, ok := dec2.(wire.SketchFetch); !ok {
			t.Fatalf("SketchFetch decoded as %T", dec2)
		}
	})
}

// BenchmarkSketchBuild measures incremental sketching at ingest-block
// granularity: the per-block cost a storage node pays inside IndexBlocks.
func BenchmarkSketchBuild(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	blocks := make([][]byte, 1000)
	for i := range blocks {
		blocks[i] = randProtein(rng, 16)
	}
	p := DefaultParams(seq.Protein)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := New(p)
		for _, blk := range blocks {
			s.Add(blk)
		}
	}
	b.SetBytes(int64(1000 * 16))
}
