package node

import (
	"bytes"
	"context"
	"encoding/gob"
	"reflect"
	"slices"
	"testing"

	"mendel/internal/invindex"
	"mendel/internal/seq"
	"mendel/internal/transport"
	"mendel/internal/wire"
)

func TestSnapshotRoundTripRestoresSearch(t *testing.T) {
	_, nodes, _ := testCluster(t, 1, 8)
	n := nodes[0]
	ctx := context.Background()
	ref := "ACGTACGTGGCCTTAAGGCCTTACGTACGT"
	if _, err := n.Handle(ctx, wire.IndexBlocks{Blocks: blocksFor(t, 3, ref, 8)}); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Handle(ctx, wire.StoreSequences{
		IDs: []seq.ID{3}, Names: []string{"ref"}, Data: [][]byte{[]byte(ref)},
	}); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := n.SaveTo(&buf); err != nil {
		t.Fatal(err)
	}

	// A brand-new node process on the same address restores everything.
	restored := New("n0", transport.NewMemNetwork())
	if err := restored.LoadFrom(&buf); err != nil {
		t.Fatal(err)
	}
	origStats := n.stats()
	newStats := restored.stats()
	if newStats.Blocks != origStats.Blocks || newStats.TreeSize != origStats.TreeSize ||
		newStats.Sequences != origStats.Sequences || newStats.Residues != origStats.Residues {
		t.Fatalf("restored stats %+v != original %+v", newStats, origStats)
	}

	params := wire.DefaultParams()
	params.Matrix = "DNA"
	params.Identity = 0.9
	params.CScore = 0.5
	params.GappedS = 0 // the search under test is the restored screen's, not S's
	resp, err := restored.Handle(ctx, wire.LocalSearch{
		Query: []byte(ref[10:18]), Offsets: []int{0}, WindowLen: 8, Params: params,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.(wire.LocalSearchResult).Anchors) == 0 {
		t.Fatal("restored node found nothing")
	}
	// The repository shard also survives.
	region, err := restored.Handle(ctx, wire.FetchRegion{Seq: 3, Start: 0, End: 8})
	if err != nil {
		t.Fatal(err)
	}
	if string(region.(wire.Region).Data) != ref[:8] {
		t.Fatal("restored repository wrong")
	}
}

func decodeSnapshot(t *testing.T, data []byte) snapshot {
	t.Helper()
	var snap snapshot
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	return snap
}

func encodeSnapshot(t *testing.T, snap snapshot) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&snap); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSnapshotIsReproducible: a snapshot is a function of the node's state.
// SaveTo used to walk two Go maps, so two saves of one node differed.
func TestSnapshotIsReproducible(t *testing.T) {
	_, nodes, _ := testCluster(t, 1, 8)
	n, ctx := nodes[0], context.Background()
	store := wire.StoreSequences{}
	refs := []string{"ACGTACGTGGCCTTAAGGCCTTACGTACGT", "TTGACCAGTAGGCATCGATCGGATCAGTTA", "GGATCCATTTGCAGGCATACGATTACAGGA"}
	for i, ref := range refs {
		id := seq.ID(9 - 3*i) // descending: ingest order is not save order
		blocks := blocksFor(t, id, ref, 8)
		if i == 1 {
			slices.Reverse(blocks) // descending starts share next to nothing
		}
		if _, err := n.Handle(ctx, wire.IndexBlocks{Blocks: blocks}); err != nil {
			t.Fatal(err)
		}
		store.IDs = append(store.IDs, id)
		store.Names = append(store.Names, "ref")
		store.Data = append(store.Data, []byte(ref))
	}
	if _, err := n.Handle(ctx, store); err != nil {
		t.Fatal(err)
	}
	save := func(n *Node) []byte {
		var buf bytes.Buffer
		if err := n.SaveTo(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	first := save(n)
	for i := 0; i < 5; i++ {
		if !bytes.Equal(save(n), first) {
			t.Fatal("two saves of one node differ")
		}
	}
	snap := decodeSnapshot(t, first)
	for i := 1; i < len(snap.Blocks); i++ {
		if invindex.PackRef(snap.Blocks[i-1].Seq, snap.Blocks[i-1].Start) >= invindex.PackRef(snap.Blocks[i].Seq, snap.Blocks[i].Start) {
			t.Fatalf("snapshot blocks %d and %d out of reference order", i-1, i)
		}
	}
	restored := New("n0", transport.NewMemNetwork())
	if err := restored.LoadFrom(bytes.NewReader(first)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(save(restored), first) {
		t.Fatal("save, load, save changed the snapshot")
	}
	// LoadFrom adds in reference order, so every sequence's blocks share.
	if got, saved := chunkBytesUsed(&restored.blocks), chunkBytesUsed(&n.blocks); got > saved {
		t.Fatalf("restored node holds %d chunk bytes, the saved one %d", got, saved)
	}
	params := wire.DefaultParams()
	params.Matrix = "DNA"
	params.Identity = 0.7
	params.CScore = 0.5
	search := wire.LocalSearch{Query: []byte(refs[1][4:28]), Offsets: []int{0, 8, 16}, WindowLen: 8, Params: params}
	want, err := n.Handle(ctx, search)
	if err != nil {
		t.Fatal(err)
	}
	got, err := restored.Handle(ctx, search)
	if err != nil {
		t.Fatal(err)
	}
	if a := want.(wire.LocalSearchResult).Anchors; len(a) == 0 || !reflect.DeepEqual(got.(wire.LocalSearchResult).Anchors, a) {
		t.Fatalf("restored node answers %+v, original %+v", got.(wire.LocalSearchResult).Anchors, a)
	}
}

func TestSnapshotOfUnbootedNodeIsNoop(t *testing.T) {
	n := New("solo", transport.NewMemNetwork())
	var buf bytes.Buffer
	if err := n.SaveTo(&buf); err != nil {
		t.Fatal(err)
	}
	restored := New("solo", transport.NewMemNetwork())
	if err := restored.LoadFrom(&buf); err != nil {
		t.Fatal(err)
	}
	if restored.stats().Blocks != 0 {
		t.Fatal("empty snapshot produced data")
	}
	// Operations still require bootstrap.
	if _, err := restored.Handle(context.Background(), wire.IndexBlocks{}); err == nil {
		t.Fatal("unbooted restore accepted indexing")
	}
}

func TestLoadFromRejectsGarbage(t *testing.T) {
	n := New("solo", transport.NewMemNetwork())
	if err := n.LoadFrom(bytes.NewReader([]byte("not a snapshot"))); err == nil {
		t.Fatal("garbage snapshot accepted")
	}
}

func TestLoadFromRejectsForeignTopology(t *testing.T) {
	_, nodes, _ := testCluster(t, 1, 8)
	var buf bytes.Buffer
	if err := nodes[0].SaveTo(&buf); err != nil {
		t.Fatal(err)
	}
	// Restoring under a different address must fail: the node is not part
	// of the snapshot's topology.
	other := New("different-addr", transport.NewMemNetwork())
	if err := other.LoadFrom(&buf); err == nil {
		t.Fatal("foreign snapshot accepted")
	}
}

func TestBlockByRefHook(t *testing.T) {
	_, nodes, _ := testCluster(t, 1, 8)
	n := nodes[0]
	blocks := blocksFor(t, 2, "ACGTACGTACGTACGT", 8)
	if _, err := n.Handle(context.Background(), wire.IndexBlocks{Blocks: blocks}); err != nil {
		t.Fatal(err)
	}
	ref := invindex.PackRef(blocks[0].Seq, blocks[0].Start)
	b, ok := n.blockByRef(ref)
	if !ok || b.Start != blocks[0].Start {
		t.Fatalf("blockByRef = %+v %v", b, ok)
	}
	if _, ok := n.blockByRef(^uint64(0)); ok {
		t.Fatal("missing ref resolved")
	}
}
