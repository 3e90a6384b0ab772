package mendel

// Integration test of the distributed tracing tentpole: a real TCP cluster
// on loopback, a sampled query, and the coordinator's assembled cross-node
// span tree served at /debug/trace/{id}.

import (
	"context"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestDistributedTraceAssemblyOverTCP(t *testing.T) {
	// Four TCP storage nodes in two groups, each with its own tracer —
	// exactly what cmd/mendel-node now always attaches — so node-side spans
	// are recorded and shipped even across process-style tracer boundaries.
	var addrs []string
	for i := 0; i < 4; i++ {
		s, err := ServeNode("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		s.Observe(NewMetricsRegistry(), NewQueryTracer(0))
		addrs = append(addrs, s.Addr())
	}
	cfg := DefaultConfig(Protein)
	cfg.Groups = 2
	cluster, err := NewTCPCluster(cfg, [][]string{{addrs[0], addrs[1]}, {addrs[2], addrs[3]}})
	if err != nil {
		t.Fatal(err)
	}
	reg := NewMetricsRegistry()
	tracer := NewQueryTracer(0)
	cluster.SetObservability(reg, tracer)

	ctx := context.Background()
	rng := rand.New(rand.NewSource(11))
	db := buildSet(t, rng, 12, 300)
	if err := cluster.Index(ctx, db); err != nil {
		t.Fatal(err)
	}
	hits, tr, err := cluster.SearchTrace(ctx, db.Seqs[7].Data[30:150], DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) == 0 {
		t.Fatal("no hits")
	}
	if len(tr.TraceID) != 32 {
		t.Fatalf("TraceID = %q, want 32 hex chars", tr.TraceID)
	}

	// The acceptance bar: ONE assembled tree containing the coordinator's
	// pipeline stages and child spans from at least two distinct storage
	// nodes, every span stamped with the query's trace ID.
	spans := cluster.FetchTrace(ctx, tr.TraceID)
	if len(spans) != 1 {
		t.Fatalf("FetchTrace assembled %d roots, want 1: %+v", len(spans), spans)
	}
	tree := spans[0]
	if tree.Name != "search" {
		t.Fatalf("assembled root is %q, want search", tree.Name)
	}
	for _, stage := range []string{"decompose", "fanout", "group", "group_search", "local_search"} {
		if tree.Find(stage) == nil {
			t.Errorf("assembled tree lacks stage %q", stage)
		}
	}
	nodesSeen := map[string]bool{}
	var walk func(s SpanSnapshot)
	walk = func(s SpanSnapshot) {
		if s.TraceID != tr.TraceID {
			t.Errorf("span %s carries TraceID %q, want %q", s.Name, s.TraceID, tr.TraceID)
		}
		if s.Node != "" {
			nodesSeen[s.Node] = true
		}
		for _, c := range s.Children {
			walk(c)
		}
	}
	walk(tree)
	if len(nodesSeen) < 2 {
		t.Fatalf("assembled tree has spans from %d distinct nodes (%v), want >= 2", len(nodesSeen), nodesSeen)
	}

	// The slowest-trace exemplar links /metrics back to this trace.
	for _, s := range reg.Snapshot() {
		if s.Name == "search_ns" && s.Exemplar != tr.TraceID {
			t.Errorf("search_ns exemplar = %q, want %q", s.Exemplar, tr.TraceID)
		}
	}

	// The same tree must be reachable over the coordinator's HTTP surface.
	srv := httptest.NewServer(MetricsSurface{Registry: reg, Tracer: tracer, Trace: cluster.TraceSource(ctx)}.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/debug/trace/" + tr.TraceID)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/trace/{id}: status %d\n%s", resp.StatusCode, body)
	}
	text := string(body)
	if !strings.Contains(text, "search") || !strings.Contains(text, "local_search") {
		t.Errorf("trace endpoint output incomplete:\n%s", text)
	}
	distinct := 0
	for n := range nodesSeen {
		if strings.Contains(text, "@"+n) {
			distinct++
		}
	}
	if distinct < 2 {
		t.Errorf("trace endpoint names %d nodes, want >= 2:\n%s", distinct, text)
	}
	if resp, err := http.Get(srv.URL + "/metrics"); err == nil {
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if !strings.Contains(string(b), "search_ns_slowest_trace "+tr.TraceID) {
			t.Errorf("/metrics lacks the exemplar line for %s", tr.TraceID)
		}
	}
}

func TestTraceSamplingDisablesSpans(t *testing.T) {
	cfg := DefaultConfig(Protein)
	cfg.Groups = 2
	cfg.TraceSampleRate = -1 // tracing off; nodes must record nothing either
	cluster, err := NewInProcess(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	reg := NewMetricsRegistry()
	tracer := NewQueryTracer(0)
	cluster.Observe(reg, tracer)
	ctx := context.Background()
	rng := rand.New(rand.NewSource(12))
	db := buildSet(t, rng, 10, 300)
	if err := cluster.Index(ctx, db); err != nil {
		t.Fatal(err)
	}
	_, tr, err := cluster.SearchTrace(ctx, db.Seqs[3].Data[40:160], DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if tr.TraceID != "" {
		t.Errorf("unsampled query minted trace %q", tr.TraceID)
	}
	if got := tracer.Recent(0); len(got) != 0 {
		t.Errorf("unsampled query recorded %d spans: %+v", len(got), got)
	}
	for _, s := range reg.Snapshot() {
		if s.Name == "search_ns" && s.Exemplar != "" {
			t.Errorf("unsampled query set exemplar %q", s.Exemplar)
		}
	}
}

// TestTraceSamplingHoldsOnEveryNode samples one query in two: every root
// span kept anywhere in the cluster must belong to a trace the coordinator
// sampled. An unsampled query's group subquery carries the "do not trace"
// decision to its entry point; without it the entry point would record a
// trace-less group_search root, crowding sampled roots out of the ring that
// TraceFetch reads and firing the slow-query log for skipped queries.
func TestTraceSamplingHoldsOnEveryNode(t *testing.T) {
	cfg := DefaultConfig(Protein)
	cfg.Groups = 2
	cfg.TraceSampleRate = 0.5
	cluster, err := NewInProcess(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	tracer := NewQueryTracer(0)
	cluster.Observe(NewMetricsRegistry(), tracer)
	ctx := context.Background()
	db := buildSet(t, rand.New(rand.NewSource(13)), 10, 300)
	if err := cluster.Index(ctx, db); err != nil {
		t.Fatal(err)
	}
	sampled := make(map[string]bool)
	for i := 0; i < 6; i++ {
		_, tr, err := cluster.SearchTrace(ctx, db.Seqs[i].Data[40:160], DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		if tr.TraceID != "" {
			sampled[tr.TraceID] = true
		}
	}
	if len(sampled) != 3 {
		t.Fatalf("%d of 6 queries sampled at rate 0.5, want 3", len(sampled))
	}
	groupRoots := 0
	for _, s := range tracer.Recent(0) {
		if !sampled[s.TraceID] {
			t.Errorf("%s root kept for trace %q, which the coordinator did not sample", s.Name, s.TraceID)
		}
		if s.Name == "group_search" {
			groupRoots++
		}
	}
	if groupRoots == 0 {
		t.Error("no entry point recorded a group_search root for a sampled query")
	}
}
