package align

import (
	"fmt"
	"strings"
	"testing"
)

func TestSegmentAccessors(t *testing.T) {
	s := Segment{QStart: 2, QEnd: 10, SStart: 5, SEnd: 13, Score: 42}
	if s.Diagonal() != 3 {
		t.Fatalf("diagonal = %d", s.Diagonal())
	}
	if s.QLen() != 8 || s.SLen() != 8 {
		t.Fatalf("lens = %d %d", s.QLen(), s.SLen())
	}
	if s.Empty() {
		t.Fatal("non-empty segment reported empty")
	}
	if !(Segment{}).Empty() {
		t.Fatal("zero segment should be empty")
	}
	if !strings.Contains(s.String(), "score=42") {
		t.Fatalf("String() = %q", s.String())
	}
}

func TestCIGARRendering(t *testing.T) {
	a := Alignment{Ops: []CigarOp{{OpMatch, 35}, {OpDelete, 2}, {OpMatch, 10}}}
	if got := a.CIGAR(); got != "35M2D10M" {
		t.Fatalf("CIGAR = %q", got)
	}
	if a.AlignedLength() != 47 {
		t.Fatalf("aligned length = %d", a.AlignedLength())
	}
}

func TestIdentity(t *testing.T) {
	q := []byte("ACGTACGT")
	s := []byte("ACGAACGT")
	a := Alignment{
		Segment: Segment{QStart: 0, QEnd: 8, SStart: 0, SEnd: 8},
		Ops:     []CigarOp{{OpMatch, 8}},
	}
	if got := a.Identity(q, s); got != 7.0/8.0 {
		t.Fatalf("identity = %f", got)
	}
	gapped := Alignment{
		Segment: Segment{QStart: 0, QEnd: 4, SStart: 0, SEnd: 5},
		Ops:     []CigarOp{{OpMatch, 2}, {OpDelete, 1}, {OpMatch, 2}},
	}
	// q=ACGT s=ACXGT: columns = 5, matches = 4.
	if got := gapped.Identity([]byte("ACGT"), []byte("ACNGT")); got != 4.0/5.0 {
		t.Fatalf("gapped identity = %f", got)
	}
	if (Alignment{}).Identity(nil, nil) != 0 {
		t.Fatal("empty identity should be 0")
	}
}

func TestConsistent(t *testing.T) {
	good := Alignment{
		Segment: Segment{QStart: 0, QEnd: 3, SStart: 0, SEnd: 4},
		Ops:     []CigarOp{{OpMatch, 3}, {OpDelete, 1}},
	}
	if err := good.consistent(); err != nil {
		t.Fatalf("good alignment rejected: %v", err)
	}
	bad := Alignment{
		Segment: Segment{QStart: 0, QEnd: 5, SStart: 0, SEnd: 5},
		Ops:     []CigarOp{{OpMatch, 3}},
	}
	if err := bad.consistent(); err == nil {
		t.Fatal("span mismatch not detected")
	}
	zeroOp := Alignment{Ops: []CigarOp{{OpMatch, 0}}}
	if err := zeroOp.consistent(); err == nil {
		t.Fatal("zero-length op not detected")
	}
	unknown := Alignment{Ops: []CigarOp{{Op('Q'), 1}}}
	if err := unknown.consistent(); err == nil {
		t.Fatal("unknown op not detected")
	}
}

// consistent verifies that the CIGAR spans match the segment coordinates.
func (a Alignment) consistent() error {
	qlen, slen := 0, 0
	for _, op := range a.Ops {
		if op.Len <= 0 {
			return fmt.Errorf("align: non-positive op length %d%c", op.Len, byte(op.Op))
		}
		switch op.Op {
		case OpMatch:
			qlen += op.Len
			slen += op.Len
		case OpInsert:
			qlen += op.Len
		case OpDelete:
			slen += op.Len
		default:
			return fmt.Errorf("align: unknown op %q", byte(op.Op))
		}
	}
	if qlen != a.QLen() || slen != a.SLen() {
		return fmt.Errorf("align: CIGAR spans q=%d s=%d, segment q=%d s=%d", qlen, slen, a.QLen(), a.SLen())
	}
	return nil
}
