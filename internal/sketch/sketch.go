// Package sketch provides the probabilistic group signatures behind
// Mendel's query prefilter tier: a fixed-size Bloom filter over canonical
// k-mers (membership: "does this group hold any block sharing a k-mer with
// this window?") and a bottom-k MinHash sketch (cardinality-free Jaccard
// estimation for the alignment-free similarity query mode).
//
// Both structures are order-independent — Bloom union is a word-wise OR and
// bottom-k union keeps the k smallest distinct hashes of either side — so a
// sketch is a pure function of the set of blocks added, no matter how
// ingest, hint replay, and repair interleave. That is what lets the chaos
// suite assert bit-identical sketches between a faulted-and-repaired
// cluster and a never-faulted twin.
//
// A Bloom filter answers "definitely absent" or "maybe present"; the
// prefilter only ever acts on "definitely absent", so its false positives
// cost a wasted fan-out, never a lost hit. See DESIGN.md §14 for the
// false-positive math and the recall-safety argument.
package sketch

import (
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"math/bits"
	"slices"
	"sort"

	"mendel/internal/seq"
)

// Defaults chosen so that test- and CI-scale corpora occupy a few percent
// of the filter: protein 5-mers span a 20^5 ≈ 3.2M space, DNA 11-mers a
// 4^11 ≈ 4.2M space (canonical form halves it).
const (
	// DefaultProteinK is the k-mer length for protein sketches.
	DefaultProteinK = 5
	// DefaultDNAK is the k-mer length for DNA sketches (canonical form:
	// min of forward and reverse-complement hashes).
	DefaultDNAK = 11
	// DefaultBloomBits is the Bloom filter size in bits (1 MiBit = 128 KiB
	// per group signature).
	DefaultBloomBits = 1 << 20
	// DefaultMinHashK is the bottom-k MinHash sketch size.
	DefaultMinHashK = 512
)

// bloomHashes is the number of Bloom probe positions per key, derived from
// one 64-bit hash by double hashing.
const bloomHashes = 2

// Params fixes a sketch's shape. Two sketches can merge only if their
// Params are identical, so the coordinator distributes one Params in the
// Bootstrap message and every node builds against it.
type Params struct {
	// K is the k-mer length. Zero disables sketching entirely.
	K int
	// BloomBits is the Bloom filter size in bits, rounded up to a power of
	// two. Zero disables the Bloom filter (MinHash-only sketch).
	BloomBits int
	// MinHashK is the bottom-k sketch size. Zero disables MinHash.
	MinHashK int
	// Kind selects canonical hashing: DNA k-mers hash as
	// min(hash(fwd), hash(revcomp)) so both strands share one signature.
	Kind seq.Kind
}

// DefaultParams returns the standard sketch shape for the molecule kind.
func DefaultParams(kind seq.Kind) Params {
	k := DefaultProteinK
	if kind == seq.DNA {
		k = DefaultDNAK
	}
	return Params{K: k, BloomBits: DefaultBloomBits, MinHashK: DefaultMinHashK, Kind: kind}
}

// normalized rounds BloomBits up to a power of two (the probe mask must be
// bits-1) with a floor of 64 when enabled.
func (p Params) normalized() Params {
	if p.BloomBits > 0 {
		if p.BloomBits < 64 {
			p.BloomBits = 64
		}
		if p.BloomBits&(p.BloomBits-1) != 0 {
			p.BloomBits = 1 << bits.Len(uint(p.BloomBits))
		}
	}
	return p
}

// Enabled reports whether the params describe a non-empty sketch.
func (p Params) Enabled() bool { return p.K > 0 && (p.BloomBits > 0 || p.MinHashK > 0) }

// Sketch is one signature: Bloom bits and/or a bottom-k MinHash over the
// canonical k-mers of everything added. The zero value is unusable; create
// with New or UnmarshalBinary.
type Sketch struct {
	p     Params
	n     uint64 // k-mers added (with multiplicity); 0 means nothing added
	bloom []uint64
	mask  uint64
	mins  *bottomK
}

// New creates an empty sketch with the given (normalized) params.
func New(p Params) *Sketch {
	p = p.normalized()
	s := &Sketch{p: p}
	if p.BloomBits > 0 {
		s.bloom = make([]uint64, p.BloomBits/64)
		s.mask = uint64(p.BloomBits - 1)
	}
	if p.MinHashK > 0 {
		s.mins = newBottomK(p.MinHashK)
	}
	return s
}

// Params returns the sketch's normalized params.
func (s *Sketch) Params() Params { return s.p }

// Empty reports whether nothing has been added yet.
func (s *Sketch) Empty() bool { return s == nil || s.n == 0 }

// Add hashes every canonical k-mer of data into the sketch. Data shorter
// than K adds nothing.
func (s *Sketch) Add(data []byte) {
	Hashes(s.p.Kind, s.p.K, data, s.AddHash)
}

// AddHash adds one pre-computed canonical k-mer hash.
func (s *Sketch) AddHash(h uint64) {
	s.n++
	if s.bloom != nil {
		h2 := h>>33 | 1
		for i := uint64(0); i < bloomHashes; i++ {
			pos := (h + i*h2) & s.mask
			s.bloom[pos>>6] |= 1 << (pos & 63)
		}
	}
	if s.mins != nil {
		s.mins.add(h)
	}
}

// ContainsHash probes the Bloom filter: false means the k-mer was
// definitely never added; true means it may have been. Sketches without a
// Bloom filter answer true (nothing can be ruled out).
func (s *Sketch) ContainsHash(h uint64) bool {
	if s.bloom == nil {
		return true
	}
	h2 := h>>33 | 1
	for i := uint64(0); i < bloomHashes; i++ {
		pos := (h + i*h2) & s.mask
		if s.bloom[pos>>6]&(1<<(pos&63)) == 0 {
			return false
		}
	}
	return true
}

// SharesAny reports whether any canonical k-mer of window may be present
// in the sketch. False is definitive ("provably disjoint at k-mer
// granularity"); true may be a Bloom false positive. Windows shorter than
// K share nothing provable, so they answer true.
func (s *Sketch) SharesAny(window []byte) bool {
	if s.bloom == nil || len(window) < s.p.K {
		return true
	}
	found := false
	Hashes(s.p.Kind, s.p.K, window, func(h uint64) {
		if !found && s.ContainsHash(h) {
			found = true
		}
	})
	return found
}

// Merge folds o into s. Both sides must share identical params. Merging is
// commutative and associative: Bloom words OR together and the bottom-k
// union keeps the smallest distinct hashes of either side.
func (s *Sketch) Merge(o *Sketch) error {
	if o == nil {
		return nil
	}
	if s.p != o.p {
		return fmt.Errorf("sketch: merging incompatible params %+v vs %+v", s.p, o.p)
	}
	s.n += o.n
	for i, w := range o.bloom {
		s.bloom[i] |= w
	}
	if s.mins != nil && o.mins != nil {
		for _, h := range o.mins.sorted() {
			s.mins.add(h)
		}
	}
	return nil
}

// MinHashes returns the bottom-k hash values in ascending order (a copy).
// For an input with at most MinHashK distinct k-mers this is the exact
// distinct-hash set, which makes Jaccard estimates on small corpora exact.
func (s *Sketch) MinHashes() []uint64 {
	if s == nil || s.mins == nil {
		return nil
	}
	return s.mins.sorted()
}

// Clone returns a deep copy: the Bloom words and the bottom-k heap are
// copied as they are, so the clone marshals byte-identically.
func (s *Sketch) Clone() *Sketch {
	c := *s
	c.bloom = slices.Clone(s.bloom)
	if s.mins != nil {
		c.mins = &bottomK{k: s.mins.k, heap: slices.Clone(s.mins.heap), seen: maps.Clone(s.mins.seen)}
	}
	return &c
}

// marshalVersion tags the binary layout for forward evolution.
const marshalVersion = 1

// MarshalBinary encodes the sketch: a version byte, the params, the add
// count, the Bloom words, and the sorted bottom-k values. Two sketches over
// the same multiset of inputs marshal identically (the chaos suite's
// bit-identity hook).
func (s *Sketch) MarshalBinary() ([]byte, error) {
	mins := s.MinHashes()
	out := make([]byte, 0, 16+len(s.bloom)*8+len(mins)*8)
	out = append(out, marshalVersion, byte(s.p.Kind))
	out = binary.AppendUvarint(out, uint64(s.p.K))
	out = binary.AppendUvarint(out, uint64(s.p.BloomBits))
	out = binary.AppendUvarint(out, uint64(s.p.MinHashK))
	out = binary.AppendUvarint(out, s.n)
	out = binary.AppendUvarint(out, uint64(len(s.bloom)))
	for _, w := range s.bloom {
		out = binary.LittleEndian.AppendUint64(out, w)
	}
	out = binary.AppendUvarint(out, uint64(len(mins)))
	for _, h := range mins {
		out = binary.LittleEndian.AppendUint64(out, h)
	}
	return out, nil
}

var errCorrupt = errors.New("sketch: corrupt encoding")

// UnmarshalBinary decodes a MarshalBinary encoding. Arbitrary input is
// rejected with an error, never a panic or an oversized allocation.
func UnmarshalBinary(data []byte) (*Sketch, error) {
	if len(data) < 2 || data[0] != marshalVersion {
		return nil, errCorrupt
	}
	kind := seq.Kind(data[1])
	rest := data[2:]
	next := func() (uint64, bool) {
		v, n := binary.Uvarint(rest)
		if n <= 0 {
			return 0, false
		}
		rest = rest[n:]
		return v, true
	}
	k, ok1 := next()
	bbits, ok2 := next()
	mk, ok3 := next()
	n, ok4 := next()
	if !ok1 || !ok2 || !ok3 || !ok4 || k > 1<<16 || bbits > 1<<32 || mk > 1<<24 {
		return nil, errCorrupt
	}
	p := Params{K: int(k), BloomBits: int(bbits), MinHashK: int(mk), Kind: kind}
	if p.normalized() != p {
		return nil, errCorrupt // only normalized params are ever marshalled
	}
	s := New(p)
	s.n = n
	words, ok := next()
	if !ok || int(words) != len(s.bloom) || len(rest) < int(words)*8 {
		return nil, errCorrupt
	}
	for i := 0; i < int(words); i++ {
		s.bloom[i] = binary.LittleEndian.Uint64(rest[i*8:])
	}
	rest = rest[words*8:]
	nmins, ok := next()
	if !ok || nmins > mk || len(rest) != int(nmins)*8 {
		return nil, errCorrupt
	}
	if s.mins == nil && nmins > 0 {
		return nil, errCorrupt
	}
	prev := uint64(0)
	for i := 0; i < int(nmins); i++ {
		h := binary.LittleEndian.Uint64(rest[i*8:])
		if i > 0 && h <= prev {
			return nil, errCorrupt // must be strictly ascending
		}
		prev = h
		s.mins.add(h)
	}
	return s, nil
}

// FNV-1a 64-bit constants; the k-mer hash is inlined to keep sketching
// allocation-free on the ingest path.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// revComp complements nucleotides and maps every other byte to itself, so
// canonical hashing never panics on ambiguity codes or protein input.
var revComp = func() [256]byte {
	var t [256]byte
	for i := range t {
		t[i] = byte(i)
	}
	t['A'], t['T'], t['C'], t['G'] = 'T', 'A', 'G', 'C'
	return t
}()

// Hashes calls fn with the canonical FNV-1a hash of every k-mer of data.
// DNA k-mers hash as min(hash(fwd), hash(revcomp)) so a sequence and its
// reverse complement produce identical hash multisets; protein k-mers hash
// forward only.
func Hashes(kind seq.Kind, k int, data []byte, fn func(uint64)) {
	if k <= 0 || len(data) < k {
		return
	}
	dna := kind == seq.DNA
	for i := 0; i+k <= len(data); i++ {
		w := data[i : i+k]
		h := uint64(fnvOffset)
		for _, c := range w {
			h = (h ^ uint64(c)) * fnvPrime
		}
		if dna {
			hr := uint64(fnvOffset)
			for j := k - 1; j >= 0; j-- {
				hr = (hr ^ uint64(revComp[w[j]])) * fnvPrime
			}
			if hr < h {
				h = hr
			}
		}
		fn(h)
	}
}

// CountHashes returns the number of distinct canonical k-mer hashes in data.
func CountHashes(kind seq.Kind, k int, data []byte) int {
	set := make(map[uint64]struct{})
	Hashes(kind, k, data, func(h uint64) { set[h] = struct{}{} })
	return len(set)
}

// EstimateContainment returns the fraction of the given hashes the sketch's
// Bloom filter may contain. Zero is definitive: none of the hashes were
// ever added. Used by the minhash prefilter mode, which probes the query's
// bottom-k sample against each group's Bloom filter.
func EstimateContainment(hashes []uint64, s *Sketch) float64 {
	if len(hashes) == 0 {
		return 1 // nothing to rule out
	}
	found := 0
	for _, h := range hashes {
		if s.ContainsHash(h) {
			found++
		}
	}
	return float64(found) / float64(len(hashes))
}

// JaccardBottomK estimates the Jaccard similarity of two sets from their
// bottom-k sketches (sorted ascending, as MinHashes returns): take the k
// smallest hashes of the union and count how many belong to both sides.
// When both inputs hold their full distinct-hash sets (fewer than k
// distinct k-mers) the estimate is exact.
func JaccardBottomK(a, b []uint64, k int) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 0
	}
	union := make([]uint64, 0, len(a)+len(b))
	union = append(union, a...)
	union = append(union, b...)
	sort.Slice(union, func(i, j int) bool { return union[i] < union[j] })
	inBoth, size := 0, 0
	has := func(xs []uint64, h uint64) bool {
		i := sort.Search(len(xs), func(i int) bool { return xs[i] >= h })
		return i < len(xs) && xs[i] == h
	}
	var prev uint64
	for _, h := range union {
		if size > 0 && h == prev {
			continue
		}
		prev = h
		size++
		if has(a, h) && has(b, h) {
			inBoth++
		}
		if k > 0 && size == k {
			break
		}
	}
	if size == 0 {
		return 0
	}
	return float64(inBoth) / float64(size)
}

// bottomK keeps the k smallest distinct hashes seen, via a max-heap plus a
// membership set (O(log k) per insert, O(1) reject of large values).
type bottomK struct {
	k    int
	heap []uint64 // max-heap: heap[0] is the largest retained hash
	seen map[uint64]struct{}
}

func newBottomK(k int) *bottomK {
	return &bottomK{k: k, seen: make(map[uint64]struct{}, k)}
}

func (b *bottomK) add(h uint64) {
	if len(b.heap) == b.k && h >= b.heap[0] {
		return
	}
	if _, dup := b.seen[h]; dup {
		return
	}
	if len(b.heap) < b.k {
		b.seen[h] = struct{}{}
		b.heap = append(b.heap, h)
		// sift up
		for i := len(b.heap) - 1; i > 0; {
			parent := (i - 1) / 2
			if b.heap[parent] >= b.heap[i] {
				break
			}
			b.heap[parent], b.heap[i] = b.heap[i], b.heap[parent]
			i = parent
		}
		return
	}
	delete(b.seen, b.heap[0])
	b.seen[h] = struct{}{}
	b.heap[0] = h
	// sift down
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		largest := i
		if l < len(b.heap) && b.heap[l] > b.heap[largest] {
			largest = l
		}
		if r < len(b.heap) && b.heap[r] > b.heap[largest] {
			largest = r
		}
		if largest == i {
			break
		}
		b.heap[i], b.heap[largest] = b.heap[largest], b.heap[i]
		i = largest
	}
}

func (b *bottomK) sorted() []uint64 {
	out := slices.Clone(b.heap)
	slices.Sort(out)
	return out
}
