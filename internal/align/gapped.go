package align

import (
	"math/bits"

	"mendel/internal/matrix"
)

// negInf scores an unreachable cell: -2^40 where int has 64 bits, -2^24
// where it has 32, far below any score and far from overflowing when
// penalties are added to it.
const negInf = -1 << (bits.UintSize/2 + 8)

// traceback direction encoding. The low two bits give the source of the H
// (best) matrix at a cell; two more bits record whether the gap matrices
// extend an existing gap or open a new one.
const (
	tbStop = 0
	tbDiag = 1
	tbIns  = 2 // came from insertion matrix (gap in subject)
	tbDel  = 3 // came from deletion matrix (gap in query)

	tbInsExtend = 1 << 2 // insertion matrix extended a gap
	tbDelExtend = 1 << 3 // deletion matrix extended a gap
)

// SmithWaterman computes the optimal local alignment of query against
// subject under the matrix's scores and affine gap penalties
// (cost of a gap of length g = GapOpen + g*GapExtend). It runs the full
// O(len(query)*len(subject)) dynamic program with traceback and is the
// ground-truth aligner used by tests and by final alignment reporting.
func SmithWaterman(query, subject []byte, m *matrix.Matrix) Alignment {
	qn, sn := len(query), len(subject)
	if qn == 0 || sn == 0 {
		return Alignment{}
	}
	openCost := m.GapOpen + m.GapExtend
	extCost := m.GapExtend

	// One row at a time for H, Ins, Del; full byte matrix for traceback.
	h := make([]int, sn+1)
	ins := make([]int, sn+1)
	del := make([]int, sn+1)
	tb := make([]byte, (qn+1)*(sn+1))
	for j := 0; j <= sn; j++ {
		ins[j] = negInf
		del[j] = negInf
	}

	best, bi, bj := 0, 0, 0
	for i := 1; i <= qn; i++ {
		diagH := h[0] // H[i-1][0] == 0
		h[0] = 0
		row := tb[i*(sn+1):]
		for j := 1; j <= sn; j++ {
			// Insertion: consumes query residue i (gap in subject).
			// Values in ins[] are from row i-1 at this point.
			insOpen := h[j] - openCost
			insExt := ins[j] - extCost
			var insCur int
			var insFlag byte
			if insExt > insOpen {
				insCur, insFlag = insExt, tbInsExtend
			} else {
				insCur = insOpen
			}

			// Deletion: consumes subject residue j (gap in query).
			delOpen := h[j-1] - openCost
			delExt := del[j-1] - extCost
			var delCur int
			var delFlag byte
			if delExt > delOpen {
				delCur, delFlag = delExt, tbDelExtend
			} else {
				delCur = delOpen
			}

			diagScore := diagH + m.Score(query[i-1], subject[j-1])
			cur, dir := 0, byte(tbStop)
			if diagScore > cur {
				cur, dir = diagScore, tbDiag
			}
			if insCur > cur {
				cur, dir = insCur, tbIns
			}
			if delCur > cur {
				cur, dir = delCur, tbDel
			}

			diagH = h[j]
			h[j] = cur
			ins[j] = insCur
			del[j] = delCur
			row[j] = dir | insFlag | delFlag

			if cur > best {
				best, bi, bj = cur, i, j
			}
		}
	}
	if best == 0 {
		return Alignment{}
	}
	return traceback(tb, sn+1, bi, bj, best)
}

// traceback reconstructs the alignment path ending at (bi, bj) from the
// packed direction matrix with row stride.
func traceback(tb []byte, stride, bi, bj, score int) Alignment {
	var rev []CigarOp
	push := func(op Op) {
		if n := len(rev); n > 0 && rev[n-1].Op == op {
			rev[n-1].Len++
			return
		}
		rev = append(rev, CigarOp{Op: op, Len: 1})
	}
	i, j := bi, bj
	state := Op(0) // 0 = in H matrix; otherwise inside a gap run
	for i > 0 && j > 0 {
		cell := tb[i*stride+j]
		switch state {
		case 0:
			switch cell & 3 {
			case tbStop:
				goto done
			case tbDiag:
				push(OpMatch)
				i--
				j--
			case tbIns:
				push(OpInsert)
				if cell&tbInsExtend != 0 {
					state = OpInsert
				}
				i--
			case tbDel:
				push(OpDelete)
				if cell&tbDelExtend != 0 {
					state = OpDelete
				}
				j--
			}
		case OpInsert:
			push(OpInsert)
			if cell&tbInsExtend == 0 {
				state = 0
			}
			i--
		case OpDelete:
			push(OpDelete)
			if cell&tbDelExtend == 0 {
				state = 0
			}
			j--
		}
	}
done:
	ops := make([]CigarOp, len(rev))
	for k := range rev {
		ops[len(rev)-1-k] = rev[k]
	}
	return Alignment{
		Segment: Segment{QStart: i, QEnd: bi, SStart: j, SEnd: bj, Score: score},
		Ops:     ops,
	}
}
