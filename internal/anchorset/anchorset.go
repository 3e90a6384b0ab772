// Package anchorset implements the anchor aggregation algebra of §V-B: the
// group and system entry points both combine overlapping anchors that lie on
// the same diagonal of the same reference sequence, and the system entry
// point bins the survivors by sequence to drive gapped extension.
package anchorset

import (
	"sort"

	"mendel/internal/wire"
)

// SortCanonical orders anchors by (sequence, diagonal, subject start,
// subject end, score) so merging is a linear scan and results are
// deterministic across nodes.
func SortCanonical(anchors []wire.Anchor) {
	sort.Slice(anchors, func(i, j int) bool {
		a, b := anchors[i], anchors[j]
		if a.Seq != b.Seq {
			return a.Seq < b.Seq
		}
		if a.Diagonal() != b.Diagonal() {
			return a.Diagonal() < b.Diagonal()
		}
		if a.SStart != b.SStart {
			return a.SStart < b.SStart
		}
		if a.SEnd != b.SEnd {
			return a.SEnd < b.SEnd
		}
		return a.Score > b.Score
	})
}

// Merge combines overlapping or touching anchors that share a sequence and
// a diagonal into their union span, keeping the maximum constituent score
// (the union is rescored during gapped extension, so a conservative score
// here only affects the S-threshold gate). The input is not modified; the
// result is canonically sorted.
func Merge(anchors []wire.Anchor) []wire.Anchor {
	if len(anchors) == 0 {
		return nil
	}
	sorted := append([]wire.Anchor(nil), anchors...)
	SortCanonical(sorted)
	out := sorted[:1]
	for _, a := range sorted[1:] {
		last := &out[len(out)-1]
		if a.Seq == last.Seq && a.Diagonal() == last.Diagonal() && a.SStart <= last.SEnd {
			if a.SEnd > last.SEnd {
				last.SEnd = a.SEnd
				last.QEnd = a.QEnd
			}
			if a.Score > last.Score {
				last.Score = a.Score
			}
			continue
		}
		out = append(out, a)
	}
	return out
}

// PerDiagonal returns the highest-scoring anchor of each (sequence, diagonal)
// pair, ties broken canonically, in canonical order, without modifying the
// input. Gapped extension searches a band around an anchor's diagonal over a
// region the diagonal alone fixes, so two anchors on one diagonal extend to
// the same alignment and only one of them needs the work.
func PerDiagonal(anchors []wire.Anchor) []wire.Anchor {
	if len(anchors) == 0 {
		return nil
	}
	sorted := append([]wire.Anchor(nil), anchors...)
	SortCanonical(sorted)
	out := sorted[:1]
	for _, a := range sorted[1:] {
		last := &out[len(out)-1]
		if a.Seq != last.Seq || a.Diagonal() != last.Diagonal() {
			out = append(out, a)
		} else if a.Score > last.Score {
			*last = a
		}
	}
	return out
}

// Best returns the n highest-scoring anchors (ties broken canonically)
// without modifying the input.
func Best(anchors []wire.Anchor, n int) []wire.Anchor {
	if n <= 0 {
		return nil
	}
	sorted := append([]wire.Anchor(nil), anchors...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Score != sorted[j].Score {
			return sorted[i].Score > sorted[j].Score
		}
		if sorted[i].Seq != sorted[j].Seq {
			return sorted[i].Seq < sorted[j].Seq
		}
		return sorted[i].SStart < sorted[j].SStart
	})
	if n > len(sorted) {
		n = len(sorted)
	}
	return sorted[:n]
}
