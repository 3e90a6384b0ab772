// Package align implements the sequence-alignment substrate of Mendel:
// BLAST-style ungapped X-drop extension, full and banded Smith–Waterman
// local alignment with affine gap penalties, Needleman–Wunsch global
// alignment, and Karlin–Altschul significance statistics (bit scores and
// E-values).
package align

import (
	"fmt"
	"strings"
)

// Segment is an ungapped aligned region: query residues [QStart,QEnd)
// against subject residues [SStart,SEnd), with the segment score under some
// scoring matrix. For ungapped segments QEnd-QStart == SEnd-SStart.
type Segment struct {
	QStart, QEnd int
	SStart, SEnd int
	Score        int
}

// Diagonal returns the alignment diagonal, defined (as in the paper, §V-B)
// as the difference between the subject and query start positions.
func (s Segment) Diagonal() int { return s.SStart - s.QStart }

// QLen returns the query span length.
func (s Segment) QLen() int { return s.QEnd - s.QStart }

// SLen returns the subject span length.
func (s Segment) SLen() int { return s.SEnd - s.SStart }

// Empty reports whether the segment covers no residues.
func (s Segment) Empty() bool { return s.QEnd <= s.QStart || s.SEnd <= s.SStart }

// String implements fmt.Stringer.
func (s Segment) String() string {
	return fmt.Sprintf("q[%d:%d] s[%d:%d] score=%d", s.QStart, s.QEnd, s.SStart, s.SEnd, s.Score)
}

// Op is an alignment edit operation in CIGAR convention.
type Op byte

// CIGAR operation codes.
const (
	OpMatch  Op = 'M' // aligned pair (match or mismatch)
	OpInsert Op = 'I' // residue in query only (gap in subject)
	OpDelete Op = 'D' // residue in subject only (gap in query)
)

// CigarOp is a run-length encoded alignment operation.
type CigarOp struct {
	Op  Op
	Len int
}

// Alignment is a (possibly gapped) local or global alignment between a query
// and a subject sequence, with traceback in CIGAR form.
type Alignment struct {
	Segment
	Ops []CigarOp
}

// CIGAR renders the traceback as a CIGAR string, e.g. "35M2D10M".
func (a Alignment) CIGAR() string {
	var b strings.Builder
	for _, op := range a.Ops {
		fmt.Fprintf(&b, "%d%c", op.Len, byte(op.Op))
	}
	return b.String()
}

// AlignedLength returns the number of alignment columns (matches plus gaps).
func (a Alignment) AlignedLength() int {
	n := 0
	for _, op := range a.Ops {
		n += op.Len
	}
	return n
}

// Identity returns the fraction of alignment columns that are exact residue
// matches, given the original query and subject sequences. Gap columns count
// against identity.
func (a Alignment) Identity(query, subject []byte) float64 {
	cols, matches := 0, 0
	qi, si := a.QStart, a.SStart
	for _, op := range a.Ops {
		switch op.Op {
		case OpMatch:
			for k := 0; k < op.Len; k++ {
				if query[qi] == subject[si] {
					matches++
				}
				qi++
				si++
			}
		case OpInsert:
			qi += op.Len
		case OpDelete:
			si += op.Len
		}
		cols += op.Len
	}
	if cols == 0 {
		return 0
	}
	return float64(matches) / float64(cols)
}
