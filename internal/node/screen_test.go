package node

import (
	"bytes"
	"cmp"
	"context"
	"math/rand"
	"slices"
	"testing"

	"mendel/internal/invindex"
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
// metric.MatchCount >= minMatch, and the n nearest must be those of a
// brute-force sort by (profile distance, reference).
func FuzzScreen(f *testing.F) {
	f.Add(int64(1), false, uint8(16), uint16(200), uint16(150), uint8(12))
	f.Add(int64(2), true, uint8(16), uint16(1000), uint16(1000), uint8(12))
	f.Add(int64(3), true, uint8(1), uint16(65), uint16(0), uint8(3))
	f.Add(int64(4), false, uint8(39), uint16(129), uint16(64), uint8(200)) // w = 40: counts past 31
	f.Add(int64(69), true, uint8(36), uint16(162), uint16(94), uint8(82))
	f.Add(int64(5), true, uint8(7), uint16(63), uint16(10), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, dna bool, wIn uint8, count, bulk uint16, nIn uint8) {
		kind := seq.Protein
		if dna {
			kind = seq.DNA
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
		sc := newScreen(kind, w)
		bulkSlots := make([]slot, bulkKeys)
		for j := range bulkSlots {
			bulkSlots[j] = all[j].slot
		}
		slices.SortFunc(bulkSlots, func(a, b slot) int { return cmp.Compare(a.ref, b.ref) })
		sc.reserve(len(bulkSlots))
		for _, s := range bulkSlots {
			sc.add(content(store.chunks, s.pos, w), s.ref, s.pos)
		}
		for _, k := range all[bulkKeys:] {
			sc.add(k.content, k.ref, k.pos)
		}
		if sc.len() != keys {
			t.Fatalf("screen holds %d keys, want %d", sc.len(), keys)
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
			prof := met.Profile(window, nil)
			for minMatch := 0; minMatch <= w+1; minMatch++ {
				var want []candidate
				for _, k := range all {
					if metric.MatchCount(window, k.content) >= minMatch {
						want = append(want, candidate{prof.Distance(k.content), k.ref, k.pos})
					}
				}
				slices.SortFunc(want, func(a, b candidate) int {
					return cmp.Or(cmp.Compare(a.dist, b.dist), cmp.Compare(a.ref, b.ref))
				})
				got, eligible := sc.nearest(&st, met, store.chunks, window, keys+1, minMatch)
				if eligible != len(want) || !slices.Equal(got, want) {
					t.Fatalf("w=%d minMatch=%d window %q: %d keys pass the screen, want %d\n got  %v\n want %v",
						w, minMatch, window, eligible, len(want), got, want)
				}
				got, _ = sc.nearest(&st, met, store.chunks, window, n, minMatch)
				if top := want[:min(n, len(want))]; !slices.Equal(got, top) {
					t.Fatalf("w=%d minMatch=%d n=%d: nearest %v, want %v", w, minMatch, n, got, top)
				}
			}
		}
	})
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

// BenchmarkScreenLookup times the screen's lookup on the query_short
// placement: every probe window on every node it is routed to, per lookup.
func BenchmarkScreenLookup(b *testing.B) {
	pl := placeQueryShort(b, 1)
	p := wire.DefaultParams()
	minMatch := minMatches(p.Identity, pl.cfg.BlockLen)
	var st screenSearch
	lookups, eligible := 0, 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, pr := range pl.probes {
			pl.route(pr.query, func(_ int, window []byte, _ string, pn *placedNode) {
				_, e := pn.screen.nearest(&st, pl.met, pn.store.chunks, window, p.Neighbors, minMatch)
				lookups, eligible = lookups+1, eligible+e
			})
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e3/float64(lookups), "µs/lookup")
	b.ReportMetric(float64(eligible)/float64(lookups), "eligible/lookup")
}
