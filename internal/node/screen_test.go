package node

import (
	"bytes"
	"cmp"
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"

	"mendel/internal/datagen"
	"mendel/internal/invindex"
	"mendel/internal/matrix"
	"mendel/internal/metric"
	"mendel/internal/seq"
	"mendel/internal/transport"
	"mendel/internal/wire"
)

// FuzzScreen checks the screen against brute force. From the input it draws
// a kind, a block length of 1 to 40, a number of keys (rarely a multiple of
// 64) over every letter of the kind's alphabet, and how many of them a bulk
// build adds sorted by reference before the rest arrive one at a time. For
// query windows that may hold bytes outside the alphabet and every minMatch
// from 0 to w+1, the keys that pass must be exactly those with
// metric.MatchCount >= minMatch, the n nearest must be those of a
// brute-force sort by (metric.Distance, reference) — with the threshold
// raised as the heap fills, so that a lookup for n may pass fewer keys than
// match, never more — and every candidate's c-score read from the planes
// must equal cScore of its content, to the bit, under BLOSUM62 or PAM250 for
// protein and the DNA matrix for DNA. Block lengths 31, 32 and 33 straddle the count width the
// kernel keeps in registers. When bit 6 of nIn is set the screen carries a
// spare plane, so that the paths for any plane count are checked beside
// those unrolled for the shipped shapes, 16 positions of 5 planes (protein)
// or 3 (DNA).
func FuzzScreen(f *testing.F) {
	f.Add(int64(1), false, uint8(16), uint16(200), uint16(150), uint8(12))
	f.Add(int64(2), true, uint8(16), uint16(1000), uint16(1000), uint8(12))
	f.Add(int64(3), true, uint8(1), uint16(65), uint16(0), uint8(3))
	f.Add(int64(4), false, uint8(39), uint16(129), uint16(64), uint8(200)) // w = 40: counts past 31
	f.Add(int64(69), true, uint8(36), uint16(162), uint16(94), uint8(82))
	f.Add(int64(5), true, uint8(7), uint16(63), uint16(10), uint8(1))
	f.Add(int64(6), false, uint8(15), uint16(700), uint16(300), uint8(12)) // protein 16 × 5
	f.Add(int64(7), true, uint8(15), uint16(700), uint16(300), uint8(12))  // DNA 16 × 3
	f.Add(int64(8), false, uint8(30), uint16(300), uint16(100), uint8(20)) // w = 31
	f.Add(int64(9), false, uint8(31), uint16(300), uint16(100), uint8(20)) // w = 32
	f.Add(int64(10), true, uint8(32), uint16(300), uint16(100), uint8(20)) // w = 33
	f.Add(int64(11), true, uint8(15), uint16(1100), uint16(500), uint8(0)) // DNA, n = 1: the raise fires
	f.Add(int64(12), true, uint8(11), uint16(900), uint16(0), uint8(4))    // DNA, n = 5, appends only
	f.Add(int64(60), false, uint8(1), uint16(123), uint16(72), uint8(128)) // a lower-case window byte at distance 0: no raise
	f.Fuzz(func(t *testing.T, seed int64, dna bool, wIn uint8, count, bulk uint16, nIn uint8) {
		kind, m := seq.Protein, []*matrix.Matrix{matrix.BLOSUM62, matrix.PAM250}[seed&1]
		if dna {
			kind, m = seq.DNA, matrix.DNAUnit
		}
		w, keys := int(wIn)%40+1, int(count)%1200
		bulkKeys, n := int(bulk)%(keys+1), int(nIn)%64+1
		letters := seq.AlphabetFor(kind).Letters()
		met := metric.ForKind(kind)
		rng := rand.New(rand.NewSource(seed))
		store, err := newBlockStore(kind, w, 0)
		if err != nil {
			t.Fatal(err)
		}
		// Keys over few letters so that many match: position i of key j is
		// drawn from a window of the alphabet that slides with j.
		type key struct {
			content []byte
			slot
		}
		all := make([]key, keys)
		for j, id := range rng.Perm(keys) {
			content := make([]byte, w)
			for i := range content {
				content[i] = letters[(j/97+rng.Intn(4))%len(letters)]
			}
			if rng.Intn(3) == 0 {
				content[rng.Intn(w)] = letters[rng.Intn(len(letters))]
			}
			b := wire.Block{Seq: seq.ID(id), Content: content, Context: content}
			if err := store.check(&b); err != nil {
				t.Fatal(err)
			}
			pos, ok := store.add(&b)
			if !ok {
				t.Fatalf("key %d refused", j)
			}
			all[j] = key{content, slot{invindex.PackRef(b.Seq, 0), pos}}
		}
		sc := newScreen(kind, w, met)
		if nIn&64 != 0 {
			sc.planes++ // no key holds a code with the spare plane set
		}
		bulkSlots := make([]slot, bulkKeys)
		for j := range bulkSlots {
			bulkSlots[j] = all[j].slot
		}
		slices.SortFunc(bulkSlots, func(a, b slot) int { return cmp.Compare(a.ref, b.ref) })
		sc.reserve(len(bulkSlots))
		for _, s := range bulkSlots {
			sc.add(content(store.chunks, s.pos, w), s.ref)
		}
		for _, k := range all[bulkKeys:] {
			sc.add(k.content, k.ref)
		}
		if sc.len() != keys {
			t.Fatalf("screen holds %d keys, want %d", sc.len(), keys)
		}
		index := make(map[uint64]int, keys) // a reference's key in the screen
		for i, ref := range sc.refs {
			index[ref] = i
		}

		var st screenSearch
		for q := 0; q < 4; q++ {
			window := make([]byte, w)
			if keys > 0 {
				copy(window, all[rng.Intn(keys)].content)
			}
			for i := range window {
				switch rng.Intn(8) {
				case 0:
					window[i] = letters[rng.Intn(len(letters))]
				case 1:
					window[i] = []byte{0, 'j', 'J', 'a', 0xff}[rng.Intn(5)]
				}
			}
			contents := make(map[int][]byte)
			for minMatch := 0; minMatch <= w+1; minMatch++ {
				var want []candidate
				for _, k := range all {
					if metric.MatchCount(window, k.content) >= minMatch {
						i := index[k.ref]
						want = append(want, candidate{met.Distance(window, k.content), k.ref, i})
						contents[i] = k.content
					}
				}
				slices.SortFunc(want, func(a, b candidate) int {
					return cmp.Or(cmp.Compare(a.dist, b.dist), cmp.Compare(a.ref, b.ref))
				})
				got, eligible := sc.nearest(&st, window, keys+1, minMatch)
				if eligible != len(want) || !slices.Equal(got, want) {
					t.Fatalf("w=%d minMatch=%d window %q: %d keys pass the screen, want %d\n got  %v\n want %v",
						w, minMatch, window, eligible, len(want), got, want)
				}
				got, eligible = sc.nearest(&st, window, n, minMatch)
				if top := want[:min(n, len(want))]; !slices.Equal(got, top) {
					t.Fatalf("w=%d minMatch=%d n=%d: nearest %v, want %v", w, minMatch, n, got, top)
				}
				if eligible > len(want) {
					t.Fatalf("w=%d minMatch=%d n=%d: %d keys pass the screen, %d match",
						w, minMatch, n, eligible, len(want))
				}
			}
			if len(contents) > 0 {
				sc.matchCodes(&st, window, m)
			}
			for i, c := range contents {
				if got, want := sc.cScore(&st, i), cScore(window, c, m); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("w=%d %s window %q key %q: c-score %v from the planes, %v from the bytes", w, m.Name, window, c, got, want)
				}
			}
		}
	})
}

// TestScreenCScore: the c-score a lookup reads from the planes equals cScore
// of the key's bytes, to the bit, for every key of a screen, under BLOSUM62,
// PAM250 and the DNA matrix, and for windows with bytes outside the alphabet.
func TestScreenCScore(t *testing.T) {
	var st screenSearch
	for _, tc := range []struct {
		kind seq.Kind
		m    *matrix.Matrix
	}{{seq.Protein, matrix.BLOSUM62}, {seq.Protein, matrix.PAM250}, {seq.DNA, matrix.DNAUnit}} {
		letters := seq.AlphabetFor(tc.kind).Letters()
		rng := rand.New(rand.NewSource(int64(len(letters))))
		for _, w := range []int{1, 2, 16, 31, 32, 33} {
			sc := newScreen(tc.kind, w, metric.ForKind(tc.kind))
			keys := make([][]byte, 150)
			for j := range keys {
				keys[j] = make([]byte, w)
				for i := range keys[j] {
					keys[j][i] = letters[rng.Intn(len(letters))]
				}
				sc.add(keys[j], uint64(j))
			}
			for q := 0; q < 20; q++ {
				window := slices.Clone(keys[rng.Intn(len(keys))])
				for i := range window {
					switch rng.Intn(4) {
					case 0:
						window[i] = letters[rng.Intn(len(letters))]
					case 1:
						window[i] = []byte{0, 'j', 'J', 'a', 'c', '*', 0xff}[rng.Intn(7)]
					}
				}
				sc.matchCodes(&st, window, tc.m)
				for j, key := range keys {
					if got, want := sc.cScore(&st, j), cScore(window, key, tc.m); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s w=%d window %q key %q: c-score %v from the planes, %v from the bytes", tc.m.Name, w, window, key, got, want)
					}
				}
			}
		}
	}
}

// TestForeignResiduesAreRefused: a node stores only its kind's letters, in
// upper case. A batch holding any other byte — in the content or only in
// the context — is refused whole, and nothing of it is stored or indexed.
func TestForeignResiduesAreRefused(t *testing.T) {
	const w = 16
	rng := rand.New(rand.NewSource(12))
	letters := seq.AlphabetFor(seq.Protein).Letters()
	data := make([]byte, 200)
	for i := range data {
		data[i] = letters[rng.Intn(len(letters))] // ambiguity codes and '*' included
	}
	good := toWire(seq.MustNew(1, "p", seq.Protein, string(data)), invindex.Config{BlockLen: w, Margin: 8})
	for _, foreign := range []byte{'J', 'O', 0x00, 'a', 'x', '-', 0xff} {
		for _, inContent := range []bool{true, false} {
			n := New("solo", transport.NewMemNetwork())
			ctx := context.Background()
			boot := wire.Bootstrap{Metric: "mendel-BLOSUM62", BlockLen: w, Margin: 8, Groups: [][]string{{"solo"}}, Kind: seq.Protein}
			if _, err := n.Handle(ctx, boot); err != nil {
				t.Fatal(err)
			}
			bad := good[50]
			bad.Context = bytes.Clone(bad.Context)
			i := 0 // a context byte before the content
			if inContent {
				i = bad.CtxOff + w/2
			}
			bad.Context[i] = foreign
			bad.Content = bad.Context[bad.CtxOff : bad.CtxOff+w]
			batch := append(slices.Clone(good[:40]), bad)
			for _, stage := range []bool{false, true} {
				if _, err := n.Handle(ctx, wire.IndexBlocks{Blocks: batch, Stage: stage}); err == nil {
					t.Fatalf("byte %q (in content: %v) accepted", foreign, inContent)
				}
			}
			if st, h := n.stats(), n.Health(); st.Blocks != 0 || st.TreeSize != 0 || h.Staged != 0 || h.BlockBytes != 0 {
				t.Fatalf("byte %q (in content: %v): refused batch left %+v, %+v", foreign, inContent, st, h)
			}
		}
	}
	// The alphabet itself is accepted.
	n := New("solo", transport.NewMemNetwork())
	boot := wire.Bootstrap{Metric: "mendel-BLOSUM62", BlockLen: w, Margin: 8, Groups: [][]string{{"solo"}}, Kind: seq.Protein}
	if _, err := n.Handle(context.Background(), boot); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Handle(context.Background(), wire.IndexBlocks{Blocks: good}); err != nil {
		t.Fatal(err)
	}
}

// dnaScreen is one node's share of a DNA database, 16 positions of 3 planes:
// the 10,000 keys of 400 random sequences, in the order they were added, and
// 96 query windows, each a key with half its positions redrawn.
func dnaScreen(tb testing.TB) (screen, [][]byte, [][]byte) {
	const w = 16
	db, err := datagen.New(seq.DNA, 1).Database(400, 40, 0, "dna")
	if err != nil {
		tb.Fatal(err)
	}
	sc := newScreen(seq.DNA, w, metric.ForKind(seq.DNA))
	var keys [][]byte
	for _, s := range db.Seqs {
		for start := 0; start+w <= s.Len(); start++ {
			keys = append(keys, s.Window(start, w))
			sc.add(keys[len(keys)-1], invindex.PackRef(s.ID, start))
		}
	}
	letters := seq.AlphabetFor(seq.DNA).Letters()
	rng := rand.New(rand.NewSource(1))
	windows := make([][]byte, 96)
	for i := range windows {
		windows[i] = bytes.Clone(keys[rng.Intn(len(keys))])
		for j := range windows[i] {
			if rng.Intn(2) == 0 {
				windows[i][j] = letters[rng.Intn(len(letters))]
			}
		}
	}
	return sc, keys, windows
}

// TestScreenHammingRaise: on a DNA screen at the default identity, where about
// a quarter of the keys match a window at minMatch positions, the threshold
// raised as the n-best heap fills passes far fewer keys than match, and the n
// nearest are still those of a brute-force sort by (distance, reference).
func TestScreenHammingRaise(t *testing.T) {
	sc, keys, windows := dnaScreen(t)
	p := wire.DefaultParams()
	minMatch := minMatches(p.Identity, sc.w)
	var st screenSearch
	passed, matched := 0, 0
	for _, window := range windows {
		var want []candidate
		for k, key := range keys {
			if metric.MatchCount(window, key) >= minMatch {
				want = append(want, candidate{sc.met.Distance(window, key), sc.refs[k], k})
			}
		}
		slices.SortFunc(want, func(a, b candidate) int {
			return cmp.Or(cmp.Compare(a.dist, b.dist), cmp.Compare(a.ref, b.ref))
		})
		got, eligible := sc.nearest(&st, window, p.Neighbors, minMatch)
		if top := want[:min(p.Neighbors, len(want))]; !slices.Equal(got, top) {
			t.Fatalf("window %q: nearest %v, want %v", window, got, top)
		}
		if eligible > len(want) {
			t.Fatalf("window %q: %d keys pass the screen, only %d match", window, eligible, len(want))
		}
		passed, matched = passed+eligible, matched+len(want)
	}
	t.Logf("%d windows: %.1f keys pass per lookup, %.1f match", len(windows),
		float64(passed)/float64(len(windows)), float64(matched)/float64(len(windows)))
	if passed*4 > matched {
		t.Fatalf("%d keys passed, %d match: the raised threshold let through more than a quarter", passed, matched)
	}
}

// BenchmarkScreenLookup times the screen's lookup at the default search
// parameters, per lookup and per key screened. "protein" is the query_short
// placement, 16 positions of 5 planes: every probe window on every node it is
// routed to. "dna", 16 positions of 3 planes, screens 96 windows against one
// node's share of a DNA database of that size, 10,000 keys of 400 random
// sequences, each window a database window with half its positions redrawn.
func BenchmarkScreenLookup(b *testing.B) {
	p := wire.DefaultParams()
	report := func(b *testing.B, lookups, keys, eligible int) {
		ns := float64(b.Elapsed().Nanoseconds())
		b.ReportMetric(ns/1e3/float64(lookups), "µs/lookup")
		b.ReportMetric(ns/float64(keys), "ns/key")
		b.ReportMetric(float64(eligible)/float64(lookups), "eligible/lookup")
	}
	b.Run("protein", func(b *testing.B) {
		pl := placeQueryShort(b, 1)
		minMatch := minMatches(p.Identity, pl.cfg.BlockLen)
		var st screenSearch
		lookups, keys, eligible := 0, 0, 0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, pr := range pl.probes {
				pl.route(pr.query, func(_ int, window []byte, _ string, pn *placedNode) {
					_, e := pn.screen.nearest(&st, window, p.Neighbors, minMatch)
					lookups, keys, eligible = lookups+1, keys+pn.screen.len(), eligible+e
				})
			}
		}
		report(b, lookups, keys, eligible)
	})
	b.Run("dna", func(b *testing.B) {
		sc, _, windows := dnaScreen(b)
		minMatch := minMatches(p.Identity, sc.w)
		var st screenSearch
		lookups, keys, eligible := 0, 0, 0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, window := range windows {
				_, e := sc.nearest(&st, window, p.Neighbors, minMatch)
				lookups, keys, eligible = lookups+1, keys+sc.len(), eligible+e
			}
		}
		report(b, lookups, keys, eligible)
	})
}
