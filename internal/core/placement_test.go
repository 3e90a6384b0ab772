package core

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"mendel/internal/dht"
	"mendel/internal/invindex"
	"mendel/internal/node"
	"mendel/internal/seq"
	"mendel/internal/wire"
)

// indexedForPlacement indexes 12 random 700-residue protein sequences (three
// 256-residue regions each), then 12 of 100 residues (each inside region 0),
// into 6 nodes in 2 groups at the given replica count.
func indexedForPlacement(t *testing.T, replicas int) *InProcess {
	t.Helper()
	cfg := DefaultConfig(seq.Protein)
	cfg.Groups = 2
	cfg.SampleSize = 500
	cfg.Replicas = replicas
	ip, err := NewInProcess(cfg, 6)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(61))
	db := buildTestDB(rng, 12, 700)
	for range 12 {
		if _, err := db.Add("short", randProtein(rng, 100)); err != nil {
			t.Fatal(err)
		}
	}
	if err := ip.Index(context.Background(), db); err != nil {
		t.Fatal(err)
	}
	return ip
}

// manifestOf asks n directly for its block manifest.
func manifestOf(t *testing.T, n *node.Node) wire.BlockManifestResult {
	t.Helper()
	resp, err := n.Handle(context.Background(), wire.BlockManifest{})
	if err != nil {
		t.Fatal(err)
	}
	return resp.(wire.BlockManifestResult)
}

// TestPlacementByRegion checks the second tier after Index: in each group,
// every block sits on exactly the group's Place replicas of its reference,
// so all blocks of one (sequence, region) that the first tier sends to a
// group share one replica set.
func TestPlacementByRegion(t *testing.T) {
	for _, replicas := range []int{1, 2} {
		t.Run(fmt.Sprintf("replicas=%d", replicas), func(t *testing.T) {
			ip := indexedForPlacement(t, replicas)
			topo := ip.Topology()
			type region struct {
				g     int
				id    seq.ID
				index int
			}
			sets := make(map[region][]string)
			blocks := make(map[region]int)
			for g := 0; g < topo.Groups(); g++ {
				holders := make(map[uint64][]string)
				for _, addr := range topo.GroupNodes(g) {
					for _, ref := range manifestOf(t, nodeByAddr(t, ip, addr)).Refs {
						holders[ref] = append(holders[ref], addr)
					}
				}
				for ref, hs := range holders {
					id, start := invindex.UnpackRef(ref)
					slices.Sort(hs)
					want := topo.Place(g, id, start, replicas)
					slices.Sort(want)
					if len(want) != replicas || !slices.Equal(hs, want) {
						t.Fatalf("group %d: block (%d, %d) on %v, want %v", g, id, start, hs, want)
					}
					r := region{g, id, start >> dht.RegionShift}
					if prev, ok := sets[r]; ok && !slices.Equal(prev, hs) {
						t.Fatalf("region %+v: block at %d on %v, an earlier block on %v", r, start, hs, prev)
					}
					sets[r] = hs
					blocks[r]++
				}
			}
			// The property is empty unless regions hold many blocks.
			many := 0
			for _, n := range blocks {
				if n >= 16 {
					many++
				}
			}
			if many < len(blocks)/2 {
				t.Fatalf("only %d of %d (group, region) pairs hold 16 or more blocks", many, len(blocks))
			}
		})
	}
}

// TestRepairAfterIndexMovesNothing checks that ingest and repair place by
// the same function: a repair straight after a clean Index finds every block
// and sequence shard where it belongs.
func TestRepairAfterIndexMovesNothing(t *testing.T) {
	for _, replicas := range []int{1, 2} {
		t.Run(fmt.Sprintf("replicas=%d", replicas), func(t *testing.T) {
			ip := indexedForPlacement(t, replicas)
			rep, err := ip.Repair(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if rep.BlocksMoved != 0 || rep.SequencesMoved != 0 || rep.Unrepairable != 0 || rep.BlocksLost != 0 || rep.PushErrors != 0 {
				t.Fatalf("repair after a clean Index: %s", rep)
			}
		})
	}
}

// TestRepairRestoresWipedNodeRefs wipes one node of a Replicas = 2 cluster
// and repairs it: it gets back exactly the block references and sequence
// shards it held after Index, and nothing else moves.
func TestRepairRestoresWipedNodeRefs(t *testing.T) {
	ip := indexedForPlacement(t, 2)
	ctx := context.Background()
	victim := ip.Nodes[4].Addr()
	before := manifestOf(t, ip.Nodes[4])
	if len(before.Refs) == 0 {
		t.Fatalf("victim %s holds no blocks", victim)
	}

	fresh := node.New(victim, ip.Net.Bind(victim))
	ip.Net.Register(victim, fresh)
	NewHealthMonitor(ip.Cluster, HealthConfig{DownAfter: 2}).ProbeOnce(ctx) // re-bootstraps it
	rep, err := ip.Repair(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.BlocksMoved != len(before.Refs) || rep.Unrepairable != 0 || rep.BlocksLost != 0 || rep.PushErrors != 0 {
		t.Fatalf("repair: %s, want %d blocks moved", rep, len(before.Refs))
	}
	after := manifestOf(t, fresh)
	if !slices.Equal(after.Refs, before.Refs) || !slices.Equal(after.Seqs, before.Seqs) {
		t.Fatalf("wiped node restored to %d refs and shards %v, want %d refs and shards %v",
			len(after.Refs), after.Seqs, len(before.Refs), before.Seqs)
	}
}

// TestRepairReportsLostBlocks wipes one node of a Replicas = 1 cluster:
// its blocks have no other copy, so a repair moves none and reports exactly
// the node's references as lost, also from a coordinator restored from a
// saved manifest. Before the wiped node is back, its group is not whole and
// nothing is reported.
func TestRepairReportsLostBlocks(t *testing.T) {
	ip := indexedForPlacement(t, 1)
	ctx := context.Background()
	victim := ip.Nodes[4].Addr()
	lost := len(manifestOf(t, ip.Nodes[4]).Refs)
	if lost == 0 {
		t.Fatalf("victim %s holds no blocks", victim)
	}
	fresh := node.New(victim, ip.Net.Bind(victim))
	ip.Net.Register(victim, fresh)
	rep, err := ip.Repair(ctx) // not bootstrapped: no manifest
	if err != nil {
		t.Fatal(err)
	}
	if rep.BlocksLost != 0 || len(rep.Unreachable) != 1 {
		t.Fatalf("repair with the wiped node unbooted: %s, want no blocks lost and it unreachable", rep)
	}
	NewHealthMonitor(ip.Cluster, HealthConfig{DownAfter: 2}).ProbeOnce(ctx) // re-bootstraps it
	var saved bytes.Buffer
	if err := ip.SaveManifest(&saved); err != nil {
		t.Fatal(err)
	}
	restored, err := LoadManifest(&saved, ip.Net)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []*Cluster{ip.Cluster, restored} {
		rep, err := c.Repair(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if rep.BlocksLost != lost || rep.BlocksMoved != 0 || rep.PushErrors != 0 || len(rep.Unreachable) != 0 {
			t.Fatalf("repair: %s, want %d blocks lost and none moved", rep, lost)
		}
	}
	// A manifest that did not keep the count: unknown, and it stays unknown
	// when more is indexed, since those blocks' count would offset the loss.
	saved.Reset()
	if err := ip.SaveManifest(&saved); err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := gob.NewDecoder(&saved).Decode(&m); err != nil {
		t.Fatal(err)
	}
	m.GroupBlocks = nil
	if err := gob.NewEncoder(&saved).Encode(m); err != nil {
		t.Fatal(err)
	}
	old, err := LoadManifest(&saved, ip.Net)
	if err != nil {
		t.Fatal(err)
	}
	if err := old.Index(ctx, buildTestDB(rand.New(rand.NewSource(62)), 4, 300)); err != nil {
		t.Fatal(err)
	}
	if rep, err := old.Repair(ctx); err != nil || rep.BlocksLost != 0 || old.groupBlocks != nil {
		t.Fatalf("repair from a manifest without the count, after another Index: %v (err %v, count %v), want no blocks lost", rep, err, old.groupBlocks)
	}
}
