package metric

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"mendel/internal/matrix"
	"mendel/internal/seq"
)

// TestByNameConcurrent guards the lazily built PAM250 metric: cluster nodes
// bootstrap concurrently and all resolve the metric by name. It is the first
// test in the package so that nothing has resolved PAM250 before it; run
// with -race.
func TestByNameConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	got := make([]Metric, 16)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			m, err := ByName("mendel-PAM250")
			if err != nil {
				t.Error(err)
			}
			got[i] = m
		}(i)
	}
	wg.Wait()
	for _, m := range got {
		if m != got[0] {
			t.Fatal("concurrent lookups built more than one PAM250 metric")
		}
	}
}

func TestHammingBasics(t *testing.T) {
	h := Hamming{}
	cases := []struct {
		a, b string
		want int
	}{
		{"ACGT", "ACGT", 0},
		{"ACGT", "ACGA", 1},
		{"AAAA", "TTTT", 4},
		{"", "", 0},
		// Byte equality: N matches itself and mismatches everything else.
		{"NN", "NN", 0},
		{"NN", "NA", 1},
		{"AN", "NA", 2},
	}
	for _, c := range cases {
		if got := h.Distance([]byte(c.a), []byte(c.b)); got != c.want {
			t.Errorf("Hamming(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
	if h.MaxPerResidue() != 1 || h.Name() != "hamming" {
		t.Fatal("metadata wrong")
	}
}

func TestHammingPanicsOnLengthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Hamming{}.Distance([]byte("AC"), []byte("A"))
}

func TestMatrixMetricIdentity(t *testing.T) {
	m := NewMatrixMetric(matrix.BLOSUM62)
	if got := m.Distance([]byte("WILDTYPE"), []byte("WILDTYPE")); got != 0 {
		t.Fatalf("self distance = %d", got)
	}
}

func TestMatrixMetricConservativeVsRadical(t *testing.T) {
	m := NewMatrixMetric(matrix.BLOSUM62)
	conservative := m.Distance([]byte("I"), []byte("L")) // BLOSUM62 +2
	radical := m.Distance([]byte("W"), []byte("G"))      // BLOSUM62 -2
	if conservative >= radical {
		t.Fatalf("d(I,L)=%d should be < d(W,G)=%d", conservative, radical)
	}
}

func TestMatrixMetricAdditive(t *testing.T) {
	m := NewMatrixMetric(matrix.BLOSUM62)
	a, b := []byte("ILWG"), []byte("LIGW")
	sum := 0
	for i := range a {
		sum += m.ResidueDistance(a[i], b[i])
	}
	if got := m.Distance(a, b); got != sum {
		t.Fatalf("Distance = %d, positionwise sum = %d", got, sum)
	}
}

func TestMatrixMetricInvalidResiduesAreFar(t *testing.T) {
	m := NewMatrixMetric(matrix.BLOSUM62)
	if got := m.ResidueDistance('!', 'A'); got != m.MaxPerResidue() {
		t.Fatalf("invalid residue distance = %d, want %d", got, m.MaxPerResidue())
	}
}

func TestMatrixMetricLowercase(t *testing.T) {
	m := NewMatrixMetric(matrix.BLOSUM62)
	if m.Distance([]byte("wild"), []byte("WILD")) != 0 {
		t.Fatal("lowercase residues should be identical to uppercase")
	}
}

func randomProteinSegment(rng *rand.Rand, n int) []byte {
	const standard = "ARNDCQEGHILKMFPSTWYV"
	out := make([]byte, n)
	for i := range out {
		out[i] = standard[rng.Intn(len(standard))]
	}
	return out
}

func TestMetricAxiomsOnSegments(t *testing.T) {
	m := NewMatrixMetric(matrix.BLOSUM62)
	rng := rand.New(rand.NewSource(7))
	f := func() bool {
		n := rng.Intn(20) + 1
		a := randomProteinSegment(rng, n)
		b := randomProteinSegment(rng, n)
		c := randomProteinSegment(rng, n)
		dab, dba := m.Distance(a, b), m.Distance(b, a)
		if dab != dba || dab < 0 {
			return false
		}
		if m.Distance(a, a) != 0 {
			return false
		}
		// Triangle inequality on segments follows from the per-residue
		// metric; verify directly.
		return m.Distance(a, c) <= dab+m.Distance(b, c)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestForKind(t *testing.T) {
	if _, ok := ForKind(seq.DNA).(Hamming); !ok {
		t.Fatal("DNA metric should be Hamming")
	}
	if ForKind(seq.Protein).Name() != "mendel-BLOSUM62" {
		t.Fatalf("protein metric = %q", ForKind(seq.Protein).Name())
	}
}

func TestByNameRoundTrip(t *testing.T) {
	for _, m := range []Metric{Hamming{}, ForKind(seq.Protein)} {
		got, err := ByName(m.Name())
		if err != nil {
			t.Fatalf("ByName(%q): %v", m.Name(), err)
		}
		if got.Name() != m.Name() {
			t.Fatalf("round trip = %q", got.Name())
		}
	}
	if m, err := ByName("mendel-PAM250"); err != nil || m.Name() != "mendel-PAM250" {
		t.Fatalf("PAM250 lookup: %v", err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown name resolved")
	}
}

// TestProfileMatchesDistance pins the kernel contract for both metrics:
// Profile(q).Distance(b) == Distance(q, b) for every byte value (alphabet,
// lowercase, ambiguity codes, garbage) and for lengths on both sides of the
// kernel's 16-position blocks, including a reused, shrinking buffer.
func TestProfileMatchesDistance(t *testing.T) {
	pam, err := ByName("mendel-PAM250")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	randomBytes := func(n int) []byte {
		const common = "ARNDCQEGHILKMFPSTWYVacgtnNXBZ*"
		out := make([]byte, n)
		for i := range out {
			if rng.Intn(8) == 0 {
				out[i] = byte(rng.Intn(256))
			} else {
				out[i] = common[rng.Intn(len(common))]
			}
		}
		return out
	}
	for _, m := range []Metric{Hamming{}, ForKind(seq.Protein), pam} {
		var buf Profile
		for _, n := range []int{40, 33, 32, 17, 16, 15, 8, 1, 0} {
			q := randomBytes(n)
			buf = m.Profile(q, buf)
			if len(buf) != n {
				t.Fatalf("%s: profile of %d residues has %d positions", m.Name(), n, len(buf))
			}
			const keys = 37
			slab := randomBytes(keys * n)
			got := make([]int, keys)
			buf.Distances(got, slab)
			for j := range got {
				key := slab[j*n : (j+1)*n]
				want := m.Distance(q, key)
				if got[j] != want || buf.Distance(key) != want {
					t.Fatalf("%s len %d key %d: Distances=%d Distance=%d, Metric.Distance=%d",
						m.Name(), n, j, got[j], buf.Distance(key), want)
				}
			}
		}
	}
}

func TestProfileDistancesPanicsOnRaggedSlab(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Hamming{}.Profile([]byte("ACGT"), nil).Distances(make([]int, 2), []byte("ACGTACG"))
}

// matchLoop is the byte loop MatchCount and MatchCounts must agree with.
func matchLoop(q, key []byte) int {
	c := 0
	for i := range q {
		if q[i] == key[i] {
			c++
		}
	}
	return c
}

// TestMatchCountEveryBytePair puts every (a, b) byte pair at every position
// of keys of 8, 11, 16 and 24 bytes (one word, word + tail, the two-word fast
// path, three words). The other positions differ by 0x00, 0x01, 0x80, 0xff
// and 0x7f in turn, so every pair is counted next to a matching byte, next to
// a byte whose XOR is 0x01 (which the shorter (x-0x01..)&^x&0x80.. zero-byte
// test miscounts above a zero byte) and next to bytes with the top bit set.
func TestMatchCountEveryBytePair(t *testing.T) {
	diffs := []byte{0x00, 0x01, 0x80, 0xff, 0x7f}
	for _, n := range []int{8, 11, 16, 24} {
		q, key, counts := make([]byte, n), make([]byte, 3*n), make([]int, 3)
		for p := 0; p < n; p++ {
			for a := 0; a < 256; a++ {
				for i := range q {
					q[i] = byte(37*i + a)
					key[n+i] = q[i] ^ diffs[(i+p)%len(diffs)]
				}
				q[p] = byte(a)
				for b := 0; b < 256; b++ {
					key[n+p] = byte(b)
					mid := key[n : 2*n]
					want := matchLoop(q, mid)
					if got := MatchCount(q, mid); got != want {
						t.Fatalf("len %d pos %d a=%#02x b=%#02x: MatchCount = %d, byte loop %d", n, p, a, b, got, want)
					}
					// The same key between two others: counts land in the right slots.
					copy(key[:n], q)
					copy(key[2*n:], mid)
					key[2*n+(p+1)%n] ^= 0x01
					most := MatchCounts(counts, q, key)
					last := matchLoop(q, key[2*n:])
					if counts[0] != n || counts[1] != want || counts[2] != last || most != n {
						t.Fatalf("len %d pos %d a=%#02x b=%#02x: MatchCounts = %v (most %d), want [%d %d %d] (most %d)",
							n, p, a, b, counts, most, n, want, last, n)
					}
				}
			}
		}
	}
}

// TestMatchCountsMost: the returned maximum is the largest count written, 0
// for no keys.
func TestMatchCountsMost(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{5, 16, 19} {
		q := randomProteinSegment(rng, n)
		for keys := 0; keys < 40; keys++ {
			slab := make([]byte, 0, keys*n)
			for j := 0; j < keys; j++ {
				slab = append(slab, randomProteinSegment(rng, n)...)
			}
			counts, want := make([]int, keys), 0
			most := MatchCounts(counts, q, slab)
			for j, c := range counts {
				if c != matchLoop(q, slab[j*n:(j+1)*n]) {
					t.Fatalf("len %d key %d of %d: count %d, byte loop %d", n, j, keys, c, matchLoop(q, slab[j*n:(j+1)*n]))
				}
				want = max(want, c)
			}
			if most != want {
				t.Fatalf("len %d, %d keys: most = %d, largest count %d", n, keys, most, want)
			}
		}
	}
}

func TestMatchCountsPanicsOnRaggedSlab(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MatchCounts(make([]int, 2), []byte("ACGT"), []byte("ACGTACG"))
}

// FuzzMatchCount: for any query and any slab of keys of its length, both
// kernels agree with the byte loop.
func FuzzMatchCount(f *testing.F) {
	f.Add([]byte("ACDEFGHIKLMNPQRS"), []byte("ACDEFGHIKLMNPQRSACDEFGHIKLMNPQRT\x00\x01\x7f\x80\xff"))
	f.Add([]byte{0, 1, 0x7f, 0x80, 0xff, 0, 1, 0x80, 0xff, 0, 1}, []byte{1, 0, 0xff, 0, 0x7f, 0, 0, 0x80, 0x7f, 0x80, 1, 0, 1, 0x7f})
	f.Add([]byte{}, []byte{})
	f.Fuzz(func(t *testing.T, q, keys []byte) {
		n := len(q)
		if n == 0 {
			keys = nil
		} else {
			keys = keys[:len(keys)/n*n]
		}
		counts := make([]int, len(keys)/max(n, 1))
		most, want := MatchCounts(counts, q, keys), 0
		for j, c := range counts {
			key := keys[j*n : (j+1)*n]
			loop := matchLoop(q, key)
			if c != loop || MatchCount(q, key) != loop {
				t.Fatalf("q=%x key=%x: MatchCounts %d, MatchCount %d, byte loop %d", q, key, c, MatchCount(q, key), loop)
			}
			want = max(want, loop)
		}
		if most != want {
			t.Fatalf("q=%x keys=%x: most = %d, largest count %d", q, keys, most, want)
		}
	})
}
