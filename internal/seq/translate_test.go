package seq

import (
	"bytes"
	"testing"
)

func TestTranslateCodonKnownValues(t *testing.T) {
	cases := map[string]byte{
		"ATG": 'M', "TGG": 'W', "TTT": 'F', "AAA": 'K',
		"TAA": '*', "TAG": '*', "TGA": '*',
		"GGG": 'G', "GCT": 'A', "CAT": 'H', "CGA": 'R',
		"ANN": 'X', "NTG": 'X',
	}
	for codon, want := range cases {
		if got := TranslateCodon(codon[0], codon[1], codon[2]); got != want {
			t.Errorf("TranslateCodon(%s) = %c, want %c", codon, got, want)
		}
	}
}

func TestTranslateCodonLowercase(t *testing.T) {
	if got := TranslateCodon('a', 't', 'g'); got != 'M' {
		t.Fatalf("lowercase atg = %c", got)
	}
}

func TestTranslateForwardFrames(t *testing.T) {
	// ATG GCT TGA | frame 0 -> M A *
	dna := []byte("ATGGCTTGA")
	p0, err := Translate(dna, 0)
	if err != nil {
		t.Fatal(err)
	}
	if string(p0) != "MA*" {
		t.Fatalf("frame 0 = %s", p0)
	}
	// frame 1: TGG CTT -> W L
	p1, err := Translate(dna, 1)
	if err != nil {
		t.Fatal(err)
	}
	if string(p1) != "WL" {
		t.Fatalf("frame 1 = %s", p1)
	}
	// frame 2: GGC TTG -> G L
	p2, err := Translate(dna, 2)
	if err != nil {
		t.Fatal(err)
	}
	if string(p2) != "GL" {
		t.Fatalf("frame 2 = %s", p2)
	}
}

func TestTranslateReverseFrames(t *testing.T) {
	// Reverse complement of CAT is ATG -> M in frame 3.
	p, err := Translate([]byte("CAT"), 3)
	if err != nil {
		t.Fatal(err)
	}
	if string(p) != "M" {
		t.Fatalf("frame 3 of CAT = %s", p)
	}
}

func TestTranslateErrors(t *testing.T) {
	if _, err := Translate([]byte("ATG"), 6); err == nil {
		t.Error("frame 6 accepted")
	}
	if _, err := Translate([]byte("ATG"), -1); err == nil {
		t.Error("negative frame accepted")
	}
	if _, err := Translate([]byte("AT"), 0); err == nil {
		t.Error("too-short sequence accepted")
	}
	if _, err := Translate([]byte("ATGC"), 2); err == nil {
		t.Error("frame beyond last codon accepted")
	}
}

func TestTranslateOutputIsValidProtein(t *testing.T) {
	dna := []byte("ATGGCCATTGTAATGGGCCGCTGAAAGGGTGCCCGATAG")
	for frame := 0; frame < 6; frame++ {
		p, err := Translate(dna, frame)
		if err != nil {
			t.Fatalf("frame %d: %v", frame, err)
		}
		if err := ProteinAlphabet.Normalize(p); err != nil {
			t.Fatalf("frame %d produced invalid protein: %v", frame, err)
		}
	}
}

func TestGeneticCodeCoversAllCodons(t *testing.T) {
	seen := map[byte]bool{}
	stops := 0
	for _, aa := range geneticCode {
		if aa == 0 {
			t.Fatal("unassigned codon")
		}
		if aa == '*' {
			stops++
		}
		seen[aa] = true
	}
	if stops != 3 {
		t.Fatalf("stops = %d, want 3", stops)
	}
	// All 20 amino acids plus stop must appear.
	if len(seen) != 21 {
		t.Fatalf("distinct symbols = %d, want 21", len(seen))
	}
}

func TestTranslateRoundTripLength(t *testing.T) {
	dna := bytes.Repeat([]byte("ACG"), 50)
	p, err := Translate(dna, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(p) != 50 {
		t.Fatalf("protein length = %d", len(p))
	}
}
