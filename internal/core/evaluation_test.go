package core

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"mendel/internal/blast"
	"mendel/internal/datagen"
	"mendel/internal/dht"
	"mendel/internal/invindex"
	"mendel/internal/matrix"
	"mendel/internal/seq"
	"mendel/internal/wire"
)

// shareSpread returns the max-min gap of per-node block counts as
// percentage points of total, the paper's Fig. 5 balance figure.
func shareSpread(counts []int, total int) float64 {
	return 100 * float64(slices.Max(counts)-slices.Min(counts)) / float64(total)
}

// TestTwoTierBalanceNoWorseThanFlat is the paper's Fig. 5 (§VI-B): indexed
// into 20 nodes in 4 groups, the seed-1 400 × 500 database spreads its
// blocks over the nodes no less evenly under the two-tier placement (vp-prefix
// LSH to a group, then SHA-1 of the block's 256-residue region within it) than
// under one flat SHA-1 ring of block contents over every node. The test runs
// at the size the claim is made for.
func TestTwoTierBalanceNoWorseThanFlat(t *testing.T) {
	ctx := context.Background()
	db, err := datagen.New(seq.Protein, 1).Database(400, 500, 100, "nr")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(seq.Protein)
	cfg.Groups = 4
	ip, err := NewInProcess(cfg, 20)
	if err != nil {
		t.Fatal(err)
	}
	if err := ip.Index(ctx, db); err != nil {
		t.Fatal(err)
	}
	stats, err := ip.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}

	flatRing := dht.NewRing(0)
	for _, st := range stats {
		flatRing.Add(st.Node)
	}
	flat := make(map[string]int, len(stats))
	total := 0
	for _, s := range db.Seqs {
		for _, b := range invindex.Blocks(s, invindex.Config{BlockLen: cfg.BlockLen}) {
			flat[flatRing.Lookup(b.Content)]++
			total++
		}
	}
	var twoTierCounts, flatCounts []int
	placed := 0
	for _, st := range stats {
		twoTierCounts = append(twoTierCounts, st.Blocks)
		flatCounts = append(flatCounts, flat[st.Node])
		placed += st.Blocks
	}
	if len(stats) != 20 || placed != total {
		t.Fatalf("%d nodes hold %d blocks, want 20 nodes holding %d", len(stats), placed, total)
	}
	twoTier, flatSpread := shareSpread(twoTierCounts, total), shareSpread(flatCounts, total)
	t.Logf("%d blocks: spread two-tier %.2f pp, flat %.2f pp", total, twoTier, flatSpread)
	if twoTier > flatSpread {
		t.Fatalf("two-tier spread %.2f pp exceeds flat SHA-1's %.2f pp", twoTier, flatSpread)
	}
}

// TestFamilyRecallAtNinetyPercent is the high-similarity point of the paper's
// Fig. 6d (§VI-C): five mutants of a 300-residue target at 0.9 similarity,
// planted among ten background sequences, are every one found both by Mendel
// and by the BLAST baseline when the target is the query. An oracle recall
// test over planted similarity strata would subsume it.
func TestFamilyRecallAtNinetyPercent(t *testing.T) {
	ctx := context.Background()
	gen := datagen.New(seq.Protein, 1)
	target := gen.Sequence(300)
	family, err := gen.Family(target, 5, 0.9, "fam")
	if err != nil {
		t.Fatal(err)
	}
	db := seq.NewSet(seq.Protein)
	members := make(map[seq.ID]bool, len(family.Seqs))
	for _, m := range family.Seqs {
		added, err := db.Add(m.Name, m.Data)
		if err != nil {
			t.Fatal(err)
		}
		members[added.ID] = true
	}
	for i := range 10 {
		if _, err := db.Add(fmt.Sprintf("noise%04d", i), gen.Sequence(300)); err != nil {
			t.Fatal(err)
		}
	}

	cfg := DefaultConfig(seq.Protein)
	cfg.Groups = 2
	ip, err := NewInProcess(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := ip.Index(ctx, db); err != nil {
		t.Fatal(err)
	}
	params := wire.DefaultParams()
	params.Neighbors = 8
	hits, err := ip.Search(ctx, target, params)
	if err != nil {
		t.Fatal(err)
	}
	bdb, err := blast.NewDB(db, blast.DefaultProteinConfig(), matrix.BLOSUM62)
	if err != nil {
		t.Fatal(err)
	}
	blastHits, err := bdb.Search(target, params.MaxE)
	if err != nil {
		t.Fatal(err)
	}

	// missed names the family members absent from ids.
	missed := func(ids []seq.ID) []string {
		var out []string
		for id := range members {
			if !slices.Contains(ids, id) {
				out = append(out, db.Get(id).Name)
			}
		}
		slices.Sort(out)
		return out
	}
	var mendelIDs, blastIDs []seq.ID
	for _, h := range hits {
		mendelIDs = append(mendelIDs, h.Seq)
	}
	for _, h := range blastHits {
		blastIDs = append(blastIDs, h.Seq)
	}
	if m := missed(mendelIDs); len(m) > 0 {
		t.Errorf("Mendel missed %d of %d family members: %v", len(m), len(members), m)
	}
	if m := missed(blastIDs); len(m) > 0 {
		t.Errorf("BLAST missed %d of %d family members: %v", len(m), len(members), m)
	}
}
