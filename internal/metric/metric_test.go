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
