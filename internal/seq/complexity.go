package seq

import "math"

// MaskLowComplexity returns a copy of data with low-complexity regions
// replaced by the alphabet's ambiguity code (X for protein, N for DNA), in
// the spirit of BLAST's SEG/DUST filters: windows whose Shannon entropy
// falls below threshold bits are masked. Low-complexity tracts (poly-A
// runs, proline-rich repeats) otherwise seed floods of biologically
// meaningless matches.
//
// window is the examination width (0 selects 12) and threshold the entropy
// cutoff in bits (0 selects 2.2 for protein, 1.5 for DNA — values in the
// range conventionally used by SEG and DUST).
func MaskLowComplexity(data []byte, kind Kind, window int, threshold float64) []byte {
	if window <= 0 {
		window = 12
	}
	if threshold <= 0 {
		if kind == DNA {
			threshold = 1.5
		} else {
			threshold = 2.2
		}
	}
	maskByte := byte('X')
	if kind == DNA {
		maskByte = 'N'
	}
	out := append([]byte(nil), data...)
	if len(data) < window {
		return out
	}

	// Sliding window with incremental counts.
	var counts [256]int
	entropy := func() float64 {
		h := 0.0
		for _, c := range counts {
			if c == 0 {
				continue
			}
			p := float64(c) / float64(window)
			h -= p * math.Log2(p)
		}
		return h
	}
	mask := make([]bool, len(data))
	for i := 0; i < window; i++ {
		counts[data[i]]++
	}
	if entropy() < threshold {
		for i := 0; i < window; i++ {
			mask[i] = true
		}
	}
	for start := 1; start+window <= len(data); start++ {
		counts[data[start-1]]--
		counts[data[start+window-1]]++
		if entropy() < threshold {
			for i := start; i < start+window; i++ {
				mask[i] = true
			}
		}
	}
	for i, m := range mask {
		if m {
			out[i] = maskByte
		}
	}
	return out
}
