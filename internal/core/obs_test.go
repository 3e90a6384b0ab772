package core

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net/http/httptest"
	"strings"
	"testing"

	"mendel/internal/obs"
	"mendel/internal/seq"
)

// obsCluster builds an in-process cluster with observability attached and
// one indexed test database.
func obsCluster(t *testing.T) (*InProcess, *seq.Set, *obs.Registry, *obs.Tracer) {
	t.Helper()
	cfg := DefaultConfig(seq.Protein)
	cfg.Groups = 2
	cfg.SampleSize = 500
	ip, err := NewInProcess(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	tracer := obs.NewTracer(16)
	ip.Observe(reg, tracer)
	rng := rand.New(rand.NewSource(81))
	db := buildTestDB(rng, 12, 300)
	if err := ip.Index(context.Background(), db); err != nil {
		t.Fatal(err)
	}
	return ip, db, reg, tracer
}

// paperStages are the five pipeline stages of §V-B every query's span tree
// must cover: subquery fan-out, k-NN search, ungapped extension, anchor
// aggregation, and gapped extension.
var paperStages = []string{"fanout", "knn", "ungapped", "aggregate", "gapped"}

// TestQuerySpanTreeCoversPaperStages is the tentpole acceptance check: one
// search against a running in-process cluster produces a span tree with all
// five stages, node-side work included via the timing breakdowns shipped
// back in the RPC replies.
func TestQuerySpanTreeCoversPaperStages(t *testing.T) {
	ip, db, _, tracer := obsCluster(t)
	hits, trace, err := ip.SearchTrace(context.Background(), db.Seqs[5].Data[40:200], defaultTestParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) == 0 || hits[0].Seq != 5 {
		t.Fatalf("hits = %+v", hits)
	}

	var root *obs.SpanSnapshot
	for _, s := range tracer.Recent(0) {
		if s.Name == "search" {
			s := s
			root = &s
			break
		}
	}
	if root == nil {
		t.Fatalf("no search span recorded; recent = %+v", tracer.Recent(0))
	}
	for _, stage := range paperStages {
		sp := root.Find(stage)
		if sp == nil {
			t.Errorf("span tree missing stage %q", stage)
			continue
		}
		if sp.NS < 0 {
			t.Errorf("stage %q has negative duration %d", stage, sp.NS)
		}
	}
	if root.Find("decompose") == nil {
		t.Error("span tree missing the decomposition stage")
	}
	if knn := root.Find("knn"); knn != nil {
		found := false
		for _, a := range knn.Attrs {
			if a.Key == "visits" && a.Value > 0 {
				found = true
			}
		}
		if !found {
			t.Errorf("knn span lacks a positive visits attribute: %+v", knn.Attrs)
		}
	}

	// The same stage timings must surface on the Trace for CLI consumers.
	if trace.KNN <= 0 || trace.Ungapped <= 0 || trace.Aggregate <= 0 {
		t.Errorf("trace stage durations not populated: knn=%v ungapped=%v aggregate=%v",
			trace.KNN, trace.Ungapped, trace.Aggregate)
	}
	if trace.TreeVisits <= 0 {
		t.Errorf("trace visits = %d, want > 0", trace.TreeVisits)
	}
	if !strings.Contains(trace.String(), "knn=") {
		t.Errorf("trace string lacks stage breakdown: %s", trace)
	}
}

// TestQueryMetricsRecorded verifies the registry accumulates coordinator-
// and node-side metrics for a query, and that MetricsDetailed collects a
// snapshot from every node over the wire.
func TestQueryMetricsRecorded(t *testing.T) {
	ip, db, reg, _ := obsCluster(t)
	ctx := context.Background()
	if _, err := ip.Search(ctx, db.Seqs[3].Data[40:200], defaultTestParams()); err != nil {
		t.Fatal(err)
	}
	byName := map[string]obs.Snapshot{}
	for _, s := range reg.Snapshot() {
		byName[s.Name] = s
	}
	if byName["search_total"].Value != 1 {
		t.Errorf("search_total = %d, want 1", byName["search_total"].Value)
	}
	if byName["search_ns"].Count != 1 {
		t.Errorf("search_ns count = %d, want 1", byName["search_ns"].Count)
	}
	for _, name := range []string{"node_local_searches", "node_group_searches"} {
		if byName[name].Value <= 0 {
			t.Errorf("%s = %d, want > 0", name, byName[name].Value)
		}
	}
	for _, name := range []string{"node_knn_ns", "node_knn_visits", "node_local_search_ns"} {
		if byName[name].Count <= 0 {
			t.Errorf("%s count = %d, want > 0", name, byName[name].Count)
		}
	}

	// Every node answers wire.Metrics; in-process they share one registry,
	// so each snapshot is non-empty and merging them is well-defined.
	metrics, down, err := ip.MetricsDetailed(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(down) != 0 {
		t.Fatalf("down = %v", down)
	}
	if len(metrics) != len(ip.Nodes) {
		t.Fatalf("metrics from %d nodes, want %d", len(metrics), len(ip.Nodes))
	}
	for _, m := range metrics {
		if len(m.Metrics) == 0 {
			t.Errorf("node %s reported no metrics", m.Node)
		}
	}
	merged := obs.MergeSnapshots(metrics[0].Metrics, metrics[1].Metrics)
	if len(merged) == 0 {
		t.Fatal("merge of node snapshots is empty")
	}
}

// TestObservabilityHTTPSurface drives the real handler over the in-process
// cluster's sinks: after a query, /metrics exposes the search histograms and
// /debug/spans serves a JSON span tree containing all five paper stages.
func TestObservabilityHTTPSurface(t *testing.T) {
	ip, db, reg, tracer := obsCluster(t)
	if _, err := ip.Search(context.Background(), db.Seqs[7].Data[40:200], defaultTestParams()); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(obs.Surface{Registry: reg, Tracer: tracer}.Handler())
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"search_total 1", "search_ns_count 1", "search_ns_p95 ", "node_local_searches "} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}

	resp, err = srv.Client().Get(srv.URL + "/debug/spans?format=json")
	if err != nil {
		t.Fatal(err)
	}
	var spans []obs.SpanSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&spans); err != nil {
		t.Fatalf("span JSON: %v", err)
	}
	resp.Body.Close()
	var root *obs.SpanSnapshot
	for i := range spans {
		if spans[i].Name == "search" {
			root = &spans[i]
			break
		}
	}
	if root == nil {
		t.Fatalf("no search span served; got %+v", spans)
	}
	for _, stage := range paperStages {
		if root.Find(stage) == nil {
			t.Errorf("/debug/spans tree missing stage %q", stage)
		}
	}
}

// TestManifestRestoredCoordinatorTraces: a coordinator restored from a
// manifest samples traces at its saved Config.TraceSampleRate, exactly like
// the one NewCluster built.
func TestManifestRestoredCoordinatorTraces(t *testing.T) {
	cfg := DefaultConfig(seq.Protein)
	cfg.Groups = 2
	cfg.SampleSize = 500
	cfg.TraceSampleRate = 1
	ip, err := NewInProcess(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	db := buildTestDB(rand.New(rand.NewSource(82)), 12, 300)
	if err := ip.Index(context.Background(), db); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ip.SaveManifest(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := LoadManifest(&buf, ip.Net)
	if err != nil {
		t.Fatal(err)
	}
	restored.SetObservability(obs.NewRegistry(), obs.NewTracer(0))
	_, trace, err := restored.SearchTrace(context.Background(), db.Seqs[5].Data[40:200], defaultTestParams())
	if err != nil {
		t.Fatal(err)
	}
	if trace.TraceID == "" {
		t.Fatal("restored coordinator with a tracer and TraceSampleRate 1 minted no trace")
	}
}

// TestGroupSpanAttemptsCountFailover: with one member of the only group
// down, a group span whose entry-point draw picked the dead member reports
// attempts=2 (the batcher retried with the next member) and every other
// group span attempts=1. Queries run one at a time, so the k-th draw of a
// twin of the coordinator's seeded RNG is the k-th query's first pick.
func TestGroupSpanAttemptsCountFailover(t *testing.T) {
	cfg := DefaultConfig(seq.Protein)
	cfg.Groups = 1
	cfg.SampleSize = 500
	ip, err := NewInProcess(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	tracer := obs.NewTracer(256)
	ip.Observe(obs.NewRegistry(), tracer)
	db := buildTestDB(rand.New(rand.NewSource(83)), 12, 300)
	if err := ip.Index(context.Background(), db); err != nil {
		t.Fatal(err)
	}
	members := ip.Topology().GroupNodes(0)
	const dead = 0
	ip.Net.Fail(members[dead])

	draws := rand.New(rand.NewSource(cfg.Seed))
	retried := 0
	for i := 0; i < 12; i++ {
		_, trace, err := ip.SearchTrace(context.Background(), db.Seqs[i].Data[40:200], defaultTestParams())
		if err != nil {
			t.Fatal(err)
		}
		want := int64(1)
		if draws.Intn(len(members)) == dead {
			want = 2
			retried++
		}
		var root *obs.SpanSnapshot
		for _, s := range tracer.Trace(trace.TraceID) {
			if s.Name == "search" {
				root = &s
			}
		}
		groups := root.FindAll("group")
		if len(groups) != 1 {
			t.Fatalf("query %d: %d group spans, want 1", i, len(groups))
		}
		got, ok := int64(0), false
		for _, a := range groups[0].Attrs {
			if a.Key == "attempts" {
				got, ok = a.Value, true
			}
		}
		if !ok || got != want {
			t.Errorf("query %d: group span attempts = %d (present %v), want %d", i, got, ok, want)
		}
	}
	if retried == 0 {
		t.Fatal("no draw picked the dead member; the retry path went untested")
	}
}
