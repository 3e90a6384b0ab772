package seq

import "fmt"

// geneticCode is the standard genetic code (NCBI translation table 1),
// mapping a 6-bit codon index (2 bits per nucleotide, A=0 C=1 G=2 T=3) to
// an amino acid; '*' marks stop codons.
var geneticCode = buildGeneticCode()

func buildGeneticCode() [64]byte {
	// Codons in TCAG-major order per the conventional code table.
	const (
		bases = "TCAG"
		aas   = "FFLLSSSSYY**CC*W" + // TTT..TGG
			"LLLLPPPPHHQQRRRR" + // CTT..CGG
			"IIIMTTTTNNKKSSRR" + // ATT..AGG
			"VVVVAAAADDEEGGGG" // GTT..GGG
	)
	var code [64]byte
	idx := func(b byte) int {
		switch b {
		case 'A':
			return 0
		case 'C':
			return 1
		case 'G':
			return 2
		default: // T
			return 3
		}
	}
	pos := 0
	for _, b1 := range []byte(bases) {
		for _, b2 := range []byte(bases) {
			for _, b3 := range []byte(bases) {
				code[idx(b1)<<4|idx(b2)<<2|idx(b3)] = aas[pos]
				pos++
			}
		}
	}
	return code
}

// TranslateCodon returns the amino acid for one codon; codons containing N
// translate to X.
func TranslateCodon(a, b, c byte) byte {
	ia, ib, ic := nucIndex(a), nucIndex(b), nucIndex(c)
	if ia < 0 || ib < 0 || ic < 0 {
		return 'X'
	}
	return geneticCode[ia<<4|ib<<2|ic]
}

func nucIndex(b byte) int {
	switch b {
	case 'A', 'a':
		return 0
	case 'C', 'c':
		return 1
	case 'G', 'g':
		return 2
	case 'T', 't':
		return 3
	default:
		return -1
	}
}

// Translate translates a DNA sequence in the given reading frame:
// frames 0-2 read the forward strand starting at that offset, frames 3-5
// read the reverse complement likewise. Stop codons become '*', codons with
// ambiguous bases become 'X'. Returns an error for invalid frames or
// sequences too short to contain one codon in that frame.
func Translate(dna []byte, frame int) ([]byte, error) {
	if frame < 0 || frame > 5 {
		return nil, fmt.Errorf("seq: frame %d out of range 0-5", frame)
	}
	src := dna
	if frame >= 3 {
		src = make([]byte, len(dna))
		for i, c := range dna {
			src[len(dna)-1-i] = DNAAlphabet.Complement(c)
		}
		frame -= 3
	}
	if len(src) < frame+3 {
		return nil, fmt.Errorf("seq: sequence of %d nt has no codon in frame %d", len(dna), frame)
	}
	n := (len(src) - frame) / 3
	out := make([]byte, n)
	for i := 0; i < n; i++ {
		p := frame + 3*i
		out[i] = TranslateCodon(src[p], src[p+1], src[p+2])
	}
	return out, nil
}
