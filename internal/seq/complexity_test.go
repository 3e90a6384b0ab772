package seq

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

func TestMaskLowComplexityPolyARun(t *testing.T) {
	// A poly-A tract inside random DNA must be masked; the flanks kept.
	rng := rand.New(rand.NewSource(1))
	flank := func(n int) []byte {
		out := make([]byte, n)
		for i := range out {
			out[i] = "ACGT"[rng.Intn(4)]
		}
		return out
	}
	left, right := flank(40), flank(40)
	data := append(append(append([]byte{}, left...), bytes.Repeat([]byte("A"), 30)...), right...)
	masked := MaskLowComplexity(data, DNA, 0, 0)
	if len(masked) != len(data) {
		t.Fatal("length changed")
	}
	// The centre of the run must be N.
	centre := masked[40+10 : 40+20]
	if strings.Count(string(centre), "N") < 8 {
		t.Fatalf("poly-A centre not masked: %s", centre)
	}
	// Input untouched.
	if data[45] != 'A' {
		t.Fatal("input mutated")
	}
}

func TestMaskLowComplexityLeavesComplexSequence(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	data := make([]byte, 300)
	const letters = "ARNDCQEGHILKMFPSTWYV"
	for i := range data {
		data[i] = letters[rng.Intn(len(letters))]
	}
	masked := MaskLowComplexity(data, Protein, 0, 0)
	if frac := float64(strings.Count(string(masked), "X")) / float64(len(masked)); frac > 0.05 {
		t.Fatalf("random protein masked %.0f%%", frac*100)
	}
}

func TestMaskLowComplexityProteinRepeat(t *testing.T) {
	data := []byte("MKVLAAGWTY" + strings.Repeat("P", 25) + "MKVLAAGWTY")
	masked := MaskLowComplexity(data, Protein, 0, 0)
	if strings.Count(string(masked), "X") < 15 {
		t.Fatalf("proline run not masked: %s", masked)
	}
}

func TestMaskLowComplexityShortInput(t *testing.T) {
	data := []byte("ACG")
	masked := MaskLowComplexity(data, DNA, 12, 0)
	if string(masked) != "ACG" {
		t.Fatalf("short input changed: %s", masked)
	}
}
