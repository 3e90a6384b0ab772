package mendel

import (
	"bytes"
	"context"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

const proteinLetters = "ARNDCQEGHILKMFPSTWYV"

func randProtein(rng *rand.Rand, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = proteinLetters[rng.Intn(len(proteinLetters))]
	}
	return out
}

func buildSet(t *testing.T, rng *rand.Rand, n, length int) *Set {
	t.Helper()
	set := NewSet(Protein)
	for i := 0; i < n; i++ {
		if _, err := set.Add("ref", randProtein(rng, length)); err != nil {
			t.Fatal(err)
		}
	}
	return set
}

func TestPublicAPIEndToEnd(t *testing.T) {
	cfg := DefaultConfig(Protein)
	cfg.Groups = 2
	cluster, err := NewInProcess(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	ctx := context.Background()
	db := buildSet(t, rng, 15, 300)
	if err := cluster.Index(ctx, db); err != nil {
		t.Fatal(err)
	}
	hits, err := cluster.Search(ctx, db.Seqs[3].Data[50:170], DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) == 0 || hits[0].Seq != 3 {
		t.Fatalf("hits = %+v", hits)
	}
}

func TestFASTARoundTripThroughPublicAPI(t *testing.T) {
	in := ">p1\nMKVLAA\n>p2\nWYVRK\n"
	set, err := ReadFASTA(strings.NewReader(in), Protein)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteFASTA(&buf, set, 0); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFASTA(&buf, Protein)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 2 || string(back.Seqs[0].Data) != "MKVLAA" {
		t.Fatalf("round trip = %+v", back.Seqs)
	}
}

func TestBlastBaselinePublicAPI(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	db := buildSet(t, rng, 10, 300)
	bdb, err := NewBlastDB(db)
	if err != nil {
		t.Fatal(err)
	}
	hits, err := bdb.Search(db.Seqs[5].Data[40:160], 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) == 0 || hits[0].Seq != 5 {
		t.Fatalf("blast hits = %+v", hits)
	}
}

func TestTCPClusterEndToEnd(t *testing.T) {
	// Four real TCP storage nodes on loopback, two groups.
	var servers []*NodeServer
	var addrs []string
	for i := 0; i < 4; i++ {
		s, err := ServeNode("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		servers = append(servers, s)
		addrs = append(addrs, s.Addr())
	}
	cfg := DefaultConfig(Protein)
	cfg.Groups = 2
	groups := [][]string{{addrs[0], addrs[1]}, {addrs[2], addrs[3]}}
	cluster, err := NewTCPCluster(cfg, groups)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	ctx := context.Background()
	db := buildSet(t, rng, 12, 300)
	if err := cluster.Index(ctx, db); err != nil {
		t.Fatal(err)
	}
	hits, err := cluster.Search(ctx, db.Seqs[7].Data[30:150], DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) == 0 || hits[0].Seq != 7 {
		t.Fatalf("TCP hits = %+v", hits)
	}

	// Manifest round trip: a fresh coordinator resumes querying the same
	// still-running nodes without re-indexing.
	var manifest bytes.Buffer
	if err := SaveManifest(cluster, &manifest); err != nil {
		t.Fatal(err)
	}
	restored, err := LoadManifestTCP(&manifest)
	if err != nil {
		t.Fatal(err)
	}
	hits2, err := restored.Search(ctx, db.Seqs[7].Data[30:150], DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(hits2) == 0 || hits2[0].Seq != 7 {
		t.Fatalf("restored hits = %+v", hits2)
	}
	if restored.TotalResidues() != cluster.TotalResidues() {
		t.Fatal("manifest lost database size")
	}
	if restored.NameOf(7) != "ref" {
		t.Fatal("manifest lost sequence names")
	}
}

// TestTCPRepairRestoresWipedNode drives anti-entropy repair over real TCP:
// a node restarted empty on its old address is re-bootstrapped and refilled
// from its replica — cold messages (Bootstrap, BlockManifest) and hot ones
// (PushBlocks, IndexBlocks) alike — after which the original coordinator and
// one restored from its manifest both answer as before the fault.
func TestTCPRepairRestoresWipedNode(t *testing.T) {
	servers := make([]*NodeServer, 4)
	var addrs []string
	for i := range servers {
		s, err := ServeNode("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		servers[i] = s
		addrs = append(addrs, s.Addr())
	}
	t.Cleanup(func() {
		for _, s := range servers {
			s.Close()
		}
	})
	cfg := DefaultConfig(Protein)
	cfg.Groups = 2
	cfg.Replicas = 2
	cluster, err := NewTCPCluster(cfg, [][]string{{addrs[0], addrs[1]}, {addrs[2], addrs[3]}})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	db := buildSet(t, rand.New(rand.NewSource(11)), 12, 300)
	if err := cluster.Index(ctx, db); err != nil {
		t.Fatal(err)
	}
	query := db.Seqs[5].Data[40:160]
	want, err := cluster.Search(ctx, query, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 || want[0].Seq != 5 {
		t.Fatalf("TCP hits = %+v", want)
	}
	holdings := func() map[string][2]int {
		stats, err := cluster.Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		m := make(map[string][2]int)
		for _, s := range stats {
			m[s.Node] = [2]int{s.Blocks, s.Sequences}
		}
		return m
	}
	before := holdings()

	servers[1].Close()
	fresh, err := ServeNode(addrs[1])
	if err != nil {
		t.Fatal(err)
	}
	servers[1] = fresh
	NewHealthMonitor(cluster, DefaultHealthConfig()).ProbeOnce(ctx)
	rep, err := cluster.Repair(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.BlocksMoved == 0 || rep.Unrepairable != 0 || rep.PushErrors != 0 || len(rep.Unreachable) != 0 {
		t.Fatalf("repair not clean: %s", rep)
	}
	if after := holdings(); !reflect.DeepEqual(after, before) {
		t.Fatalf("holdings after repair %v, want %v", after, before)
	}

	var manifest bytes.Buffer
	if err := SaveManifest(cluster, &manifest); err != nil {
		t.Fatal(err)
	}
	restored, err := LoadManifestTCP(&manifest)
	if err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]*Cluster{"repaired": cluster, "restored": restored} {
		got, err := c.Search(ctx, query, DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s coordinator hits diverge:\n  got:  %+v\n  want: %+v", name, got, want)
		}
	}
}

func TestServeNodeBadAddr(t *testing.T) {
	if _, err := ServeNode("256.0.0.1:bad"); err == nil {
		t.Fatal("bad address accepted")
	}
}
