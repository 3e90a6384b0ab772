// Package metric defines the metric-space distance functions Mendel uses to
// compare fixed-length sequence segments, as required by the vantage point
// tree (§III-B of the paper).
//
// For DNA, the distance is plain Hamming distance. For proteins, Hamming
// distance is a poor similarity proxy (residue background frequencies and
// mutation rates are highly non-uniform), so the distance is the position-wise
// sum of a per-residue metric derived from a scoring matrix via
// matrix.DistanceMatrix. Both are true metrics on equal-length strings.
package metric

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"mendel/internal/matrix"
	"mendel/internal/seq"
)

// Metric measures the distance between two equal-length residue segments.
// Implementations must satisfy the metric axioms; the vp-tree relies on the
// triangle inequality for search-space pruning.
type Metric interface {
	// Distance returns the distance between a and b, which must have equal
	// length. Implementations panic on unequal lengths: segment lengths are
	// a structural invariant of the Mendel index, not a runtime condition.
	Distance(a, b []byte) int
	// Profile fills buf (reusing its storage when it is large enough) with
	// the profile of q and returns it: Profile(q, buf).Distance(b) equals
	// Distance(q, b) for every b of q's length.
	Profile(q []byte, buf Profile) Profile
	// MaxPerResidue returns the largest possible single-position distance,
	// used to normalize distances into [0,1] for thresholding.
	MaxPerResidue() int
	// Name identifies the metric for logs and wire messages.
	Name() string
}

// Profile is a per-query distance table: p[i][c] is the distance between
// residue i of the query and byte c. A k-NN lookup compares one query with
// thousands of keys, so it builds the profile once and then pays one table
// load per residue; a 16-residue window's profile is 8 KiB and stays in L1.
// The vp-tree, and with it the benchmark's offline replay, scores keys through
// it. A node's screen does not: it decodes a key's residue codes from its
// bit-planes and sums them in a table of position by code, filled from
// per-residue Distance values.
type Profile [][256]uint16

// Distance returns the distance between the profiled query and key, which
// must have the query's length.
func (p Profile) Distance(key []byte) int {
	var d [1]int
	p.Distances(d[:], key)
	return d[0]
}

// Distances sets dst[j] to the distance between the profiled query and the
// j-th key of keys, which holds len(dst) keys of the query's length back to
// back. This is the k-NN kernel: one call scores a whole vp-tree leaf. Per
// key it has no data-dependent branch (abandoning a sum once it passes the
// search radius was measured slower) and, sixteen positions — Mendel's block
// length — at a time, no bounds check or loop overhead: two loads a residue.
func (p Profile) Distances(dst []int, keys []byte) {
	n := len(p)
	if len(keys) != len(dst)*n {
		panic(fmt.Sprintf("metric: %d key bytes for %d keys of length %d", len(keys), len(dst), n))
	}
	for j := range dst {
		rows, key := p, keys[j*n:(j+1)*n]
		d := 0
		for len(rows) >= 16 {
			r, k := (*[16][256]uint16)(rows), (*[16]byte)(key)
			d += int(r[0][k[0]]) + int(r[1][k[1]]) + int(r[2][k[2]]) + int(r[3][k[3]]) +
				int(r[4][k[4]]) + int(r[5][k[5]]) + int(r[6][k[6]]) + int(r[7][k[7]]) +
				int(r[8][k[8]]) + int(r[9][k[9]]) + int(r[10][k[10]]) + int(r[11][k[11]]) +
				int(r[12][k[12]]) + int(r[13][k[13]]) + int(r[14][k[14]]) + int(r[15][k[15]])
			rows, key = rows[16:], key[16:]
		}
		for i := range rows {
			d += int(rows[i][key[i]])
		}
		dst[j] = d
	}
}

// MatchCounts sets dst[j] to the number of positions at which the j-th key of
// keys holds the same byte as q, and returns the largest of them; keys holds
// len(dst) keys of q's length back to back. It is the identity screen of a
// k-NN leaf scan: the search parameter i keeps only candidates with a minimum
// count, few keys reach it, and a count costs an 8-byte XOR and a popcount per
// eight positions where Distances pays a table load per position — wide loads
// win here, though they lost for the distance sum, because nothing has to be
// extracted per byte.
func MatchCounts(dst []int, q, keys []byte) (most int) {
	n := len(q)
	if len(keys) != len(dst)*n {
		panic(fmt.Sprintf("metric: %d key bytes for %d keys of length %d", len(keys), len(dst), n))
	}
	if n == 16 { // Mendel's block length: the query stays in two registers
		q0, q1 := binary.LittleEndian.Uint64(q), binary.LittleEndian.Uint64(q[8:])
		for j := range dst {
			key := (*[16]byte)(keys)
			z0 := zeroBytes(binary.LittleEndian.Uint64(key[:8]) ^ q0)
			z1 := zeroBytes(binary.LittleEndian.Uint64(key[8:]) ^ q1)
			c := bits.OnesCount64(z0 | z1>>1)
			dst[j] = c
			most = max(most, c)
			keys = keys[16:]
		}
		return most
	}
	for j := range dst {
		c := MatchCount(q, keys[j*n:(j+1)*n])
		dst[j] = c
		most = max(most, c)
	}
	return most
}

// MatchCount returns the number of positions at which q and key, which must
// have q's length, hold the same byte.
func MatchCount(q, key []byte) int {
	checkLen(q, key)
	c := 0
	for len(q) >= 8 {
		c += bits.OnesCount64(zeroBytes(binary.LittleEndian.Uint64(q) ^ binary.LittleEndian.Uint64(key)))
		q, key = q[8:], key[8:]
	}
	for i := range q {
		if q[i] == key[i] {
			c++
		}
	}
	return c
}

// zeroBytes returns a word whose bit 8k+7 is set exactly when byte k of x is
// zero, every other bit clear. Adding 0x7f to the low seven bits of a byte
// carries into its top bit iff they are non-zero, and never out of the byte,
// so unlike the shorter (x-0x01..)&^x&0x80.. test — which marks a 0x01 byte
// above a zero one — the result is exact per byte.
func zeroBytes(x uint64) uint64 {
	const low7 = 0x7f7f7f7f7f7f7f7f
	return ^(((x & low7) + low7) | x | low7)
}

// Hamming is the DNA distance: the number of positions at which two
// equal-length segments differ (§III-B). Positions are compared by byte
// equality, so the ambiguity code N is a mismatch against every other
// residue and a match against itself (d(N,N)=0), as a metric requires.
type Hamming struct{}

// Distance implements Metric.
func (Hamming) Distance(a, b []byte) int {
	checkLen(a, b)
	d := 0
	for i := range a {
		if a[i] != b[i] {
			d++
		}
	}
	return d
}

// hammingRow is a profile position before its query residue is cleared.
var hammingRow = func() (row [256]uint16) {
	for c := range row {
		row[c] = 1
	}
	return row
}()

// Profile implements Metric.
func (Hamming) Profile(q []byte, buf Profile) Profile {
	buf = slices.Grow(buf[:0], len(q))[:len(q)]
	for i, c := range q {
		buf[i] = hammingRow
		buf[i][c] = 0
	}
	return buf
}

// MaxPerResidue implements Metric.
func (Hamming) MaxPerResidue() int { return 1 }

// Name implements Metric.
func (Hamming) Name() string { return "hamming" }

// MatrixMetric sums a per-residue metric table over positions. The table
// comes from matrix.DistanceMatrix and is addressed through a byte-indexed
// lookup so the hot path performs no alphabet translation.
type MatrixMetric struct {
	name   string
	maxPer int
	table  [256][256]uint16
}

// NewMatrixMetric builds the segment metric for a scoring matrix. Residues
// outside the matrix alphabet sit at the maximum per-residue distance from
// everything (including themselves), which keeps malformed input safely far
// rather than panicking mid-query.
func NewMatrixMetric(m *matrix.Matrix) *MatrixMetric {
	d := matrix.DistanceMatrix(m)
	mm := &MatrixMetric{name: "mendel-" + m.Name}
	for i := range d {
		for j := range d[i] {
			if d[i][j] > mm.maxPer {
				mm.maxPer = d[i][j]
			}
		}
	}
	for x := range mm.table {
		for y := range mm.table[x] {
			mm.table[x][y] = uint16(mm.maxPer)
		}
	}
	letters := m.Alphabet.Letters()
	for i, ci := range letters {
		for j, cj := range letters {
			v := uint16(d[i][j])
			mm.table[ci][cj] = v
			mm.table[lowerByte(ci)][cj] = v
			mm.table[ci][lowerByte(cj)] = v
			mm.table[lowerByte(ci)][lowerByte(cj)] = v
		}
	}
	return mm
}

func lowerByte(c byte) byte {
	if c >= 'A' && c <= 'Z' {
		return c + 'a' - 'A'
	}
	return c
}

// Distance implements Metric.
func (m *MatrixMetric) Distance(a, b []byte) int {
	checkLen(a, b)
	d := 0
	for i := range a {
		d += int(m.table[a[i]][b[i]])
	}
	return d
}

// Profile implements Metric.
func (m *MatrixMetric) Profile(q []byte, buf Profile) Profile {
	buf = slices.Grow(buf[:0], len(q))[:len(q)]
	for i, c := range q {
		buf[i] = m.table[c]
	}
	return buf
}

// MaxPerResidue implements Metric.
func (m *MatrixMetric) MaxPerResidue() int { return m.maxPer }

// Name implements Metric.
func (m *MatrixMetric) Name() string { return m.name }

// ResidueDistance exposes the per-residue distance, used by tests and by
// consecutivity scoring.
func (m *MatrixMetric) ResidueDistance(a, b byte) int { return int(m.table[a][b]) }

// ForKind returns the Mendel default metric for a molecule kind: Hamming for
// DNA and the BLOSUM62-derived matrix metric for proteins (§III-B).
func ForKind(kind seq.Kind) Metric {
	if kind == seq.DNA {
		return Hamming{}
	}
	return defaultProtein
}

// ByName resolves a metric from its wire name, the inverse of Name. Cluster
// nodes use this to agree on the index metric during bootstrap.
func ByName(name string) (Metric, error) {
	switch name {
	case "hamming":
		return Hamming{}, nil
	case "mendel-BLOSUM62":
		return defaultProtein, nil
	case "mendel-PAM250":
		return pam250(), nil
	default:
		return nil, fmt.Errorf("metric: unknown metric %q", name)
	}
}

var defaultProtein = NewMatrixMetric(matrix.BLOSUM62)

// pam250 is built on first use: few clusters index with it, and concurrent
// node bootstraps may ask for it at the same time.
var pam250 = sync.OnceValue(func() *MatrixMetric { return NewMatrixMetric(matrix.PAM250) })

func checkLen(a, b []byte) {
	if len(a) != len(b) {
		panic(fmt.Sprintf("metric: segment lengths differ: %d vs %d", len(a), len(b)))
	}
}
