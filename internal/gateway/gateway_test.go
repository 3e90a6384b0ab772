package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"mendel/internal/core"
	"mendel/internal/datagen"
	"mendel/internal/obs"
	"mendel/internal/seq"
)

// testEnv is one in-process cluster with a gateway mounted on an obs mux
// behind httptest, the full serving stack minus real sockets.
type testEnv struct {
	gw      *Gateway
	srv     *httptest.Server
	cluster *core.InProcess
	reg     *obs.Registry
	db      *seq.Set
}

func newTestEnv(t *testing.T, gcfg Config) *testEnv {
	t.Helper()
	cfg := core.DefaultConfig(seq.Protein)
	cfg.Groups = 2
	cfg.SampleSize = 500
	ip, err := core.NewInProcess(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	gen := datagen.New(seq.Protein, 5)
	db, err := gen.Database(12, 300, 50, "ref")
	if err != nil {
		t.Fatal(err)
	}
	if err := ip.Index(context.Background(), db); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	gw := New(ip.Cluster, gcfg, reg)
	srv := httptest.NewServer(obs.Surface{Registry: reg, Routes: gw.Routes()}.Handler())
	t.Cleanup(srv.Close)
	return &testEnv{gw: gw, srv: srv, cluster: ip, reg: reg, db: db}
}

// postSearch sends one search and returns the status code, decoded body
// (nil on non-200), and the Retry-After header.
func (e *testEnv) postSearch(t *testing.T, query, tenant string) (int, *SearchResponse, string) {
	t.Helper()
	body, _ := json.Marshal(SearchRequest{Query: query})
	req, err := http.NewRequest(http.MethodPost, e.srv.URL+"/v1/search", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if tenant != "" {
		req.Header.Set("X-Mendel-Tenant", tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	retryAfter := resp.Header.Get("Retry-After")
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, nil, retryAfter
	}
	var sr SearchResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, &sr, retryAfter
}

func counterValue(reg *obs.Registry, name string) int64 {
	for _, s := range reg.Snapshot() {
		if s.Name == name {
			return s.Value
		}
	}
	return 0
}

func TestGatewaySearchOK(t *testing.T) {
	e := newTestEnv(t, Config{})
	query := string(e.db.Seqs[3].Data[40:160])
	status, sr, _ := e.postSearch(t, query, "")
	if status != http.StatusOK {
		t.Fatalf("status = %d, want 200", status)
	}
	if len(sr.Hits) == 0 {
		t.Fatal("no hits for a database-derived query")
	}
	if sr.Hits[0].Seq != 3 {
		t.Fatalf("top hit seq = %d, want 3", sr.Hits[0].Seq)
	}
	if sr.Hits[0].Cigar == "" || sr.Hits[0].Bits <= 0 {
		t.Fatalf("degenerate top hit: %+v", sr.Hits[0])
	}
	if got := counterValue(e.reg, "gw_search_ok_total"); got != 1 {
		t.Fatalf("gw_search_ok_total = %d, want 1", got)
	}
}

func TestGatewaySimilarityOK(t *testing.T) {
	e := newTestEnv(t, Config{})
	body, _ := json.Marshal(SimilarityRequest{Query: string(e.db.Seqs[5].Data[:200]), Top: 3})
	resp, err := http.Post(e.srv.URL+"/v1/similarity", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	var sr SimilarityResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Hits) == 0 || sr.Hits[0].Seq != 5 {
		t.Fatalf("similarity hits = %+v, want seq 5 first", sr.Hits)
	}
	if len(sr.Hits) > 3 {
		t.Fatalf("got %d hits, top=3", len(sr.Hits))
	}
	if got := counterValue(e.reg, "gw_similarity_ok_total"); got != 1 {
		t.Fatalf("gw_similarity_ok_total = %d, want 1", got)
	}
}

// TestGatewayRequestValidation is the table-driven bad-input suite.
func TestGatewayRequestValidation(t *testing.T) {
	e := newTestEnv(t, Config{})
	cases := []struct {
		name   string
		method string
		path   string
		body   string
		want   int
	}{
		{"get search", http.MethodGet, "/v1/search", "", http.StatusMethodNotAllowed},
		{"bad json", http.MethodPost, "/v1/search", "{", http.StatusBadRequest},
		{"empty query", http.MethodPost, "/v1/search", `{"query":""}`, http.StatusBadRequest},
		{"invalid residues", http.MethodPost, "/v1/search", `{"query":"MKV!@#"}`, http.StatusBadRequest},
		{"get ingest", http.MethodGet, "/v1/ingest", "", http.StatusMethodNotAllowed},
		{"ingest no seqs", http.MethodPost, "/v1/ingest", `{"sequences":[]}`, http.StatusBadRequest},
		{"ingest bad residues", http.MethodPost, "/v1/ingest", `{"sequences":[{"name":"x","data":"!!!"}]}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, e.srv.URL+tc.path, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Fatalf("status = %d, want %d", resp.StatusCode, tc.want)
			}
		})
	}
}

// TestGatewayQueueFullSheds pins the overload contract: with the in-flight
// window and wait queue both full, new requests get 429 with a Retry-After
// hint instead of queueing without bound.
func TestGatewayQueueFullSheds(t *testing.T) {
	e := newTestEnv(t, Config{MaxInFlight: 1, MaxQueue: 1})
	ctx := context.Background()
	// Fill the one slot and the one queue seat directly.
	if err := e.gw.adm.acquire(ctx); err != nil {
		t.Fatal(err)
	}
	queued := make(chan error, 1)
	go func() { queued <- e.gw.adm.acquire(ctx) }()
	waitFor(t, func() bool { return e.gw.adm.queueDepth() == 1 })

	status, _, retryAfter := e.postSearch(t, string(e.db.Seqs[0].Data[0:120]), "")
	if status != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", status)
	}
	if retryAfter == "" {
		t.Fatal("429 without Retry-After header")
	}
	if got := counterValue(e.reg, "gw_shed_total"); got != 1 {
		t.Fatalf("gw_shed_total = %d, want 1", got)
	}

	// Drain: release grants the queued waiter, then release that too.
	e.gw.adm.release()
	if err := <-queued; err != nil {
		t.Fatal(err)
	}
	e.gw.adm.release()
	if e.gw.adm.inflightNow() != 0 {
		t.Fatal("slots leaked")
	}
}

// TestGatewayDeadlineWhileQueued pins the deadline contract: a request that
// cannot be admitted within its deadline answers 504, and its queue seat is
// reclaimed.
func TestGatewayDeadlineWhileQueued(t *testing.T) {
	e := newTestEnv(t, Config{MaxInFlight: 1, MaxQueue: 4, Deadline: 100 * time.Millisecond})
	if err := e.gw.adm.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	status, _, _ := e.postSearch(t, string(e.db.Seqs[0].Data[0:120]), "")
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504", status)
	}
	if got := counterValue(e.reg, "gw_deadline_total"); got != 1 {
		t.Fatalf("gw_deadline_total = %d, want 1", got)
	}
	waitFor(t, func() bool { return e.gw.adm.queueDepth() == 0 })
	e.gw.adm.release()
}

// TestGatewayTenantQuota pins per-tenant throttling: a tenant that exhausts
// its token bucket gets 429 while other tenants keep being served.
func TestGatewayTenantQuota(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	e := newTestEnv(t, Config{TenantRate: 5, TenantBurst: 2, Clock: clk.Now})
	query := string(e.db.Seqs[1].Data[20:140])
	for i := 0; i < 2; i++ {
		if status, _, _ := e.postSearch(t, query, "alice"); status != http.StatusOK {
			t.Fatalf("alice request %d within burst: status %d", i, status)
		}
	}
	status, _, retryAfter := e.postSearch(t, query, "alice")
	if status != http.StatusTooManyRequests {
		t.Fatalf("alice beyond burst: status = %d, want 429", status)
	}
	if retryAfter == "" {
		t.Fatal("throttled 429 without Retry-After")
	}
	// Bob is a different bucket.
	if status, _, _ := e.postSearch(t, query, "bob"); status != http.StatusOK {
		t.Fatalf("bob: status = %d, want 200", status)
	}
	// The clock moving forward refills alice.
	clk.advance(time.Second)
	if status, _, _ := e.postSearch(t, query, "alice"); status != http.StatusOK {
		t.Fatalf("alice after refill: status = %d, want 200", status)
	}
	if got := counterValue(e.reg, "gw_tenant_throttled_total"); got != 1 {
		t.Fatalf("gw_tenant_throttled_total = %d, want 1", got)
	}
}

func TestGatewayStatus(t *testing.T) {
	e := newTestEnv(t, Config{MaxInFlight: 7, MaxQueue: 9})
	resp, err := http.Get(e.srv.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st StatusResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.MaxInFlight != 7 || st.MaxQueue != 9 {
		t.Fatalf("limits = %d/%d, want 7/9", st.MaxInFlight, st.MaxQueue)
	}
	if st.Sequences != 12 || st.Nodes != 4 || st.Groups != 2 {
		t.Fatalf("cluster shape = %d seqs %d nodes %d groups, want 12/4/2", st.Sequences, st.Nodes, st.Groups)
	}
	if st.InFlight != 0 || st.QueueDepth != 0 {
		t.Fatalf("idle gateway reports inflight=%d queue=%d", st.InFlight, st.QueueDepth)
	}
}

// TestGatewayIngestThenSearch round-trips a sequence through POST
// /v1/ingest and finds it via POST /v1/search.
func TestGatewayIngestThenSearch(t *testing.T) {
	e := newTestEnv(t, Config{})
	gen := datagen.New(seq.Protein, 77)
	data := gen.Sequence(240)
	body, _ := json.Marshal(IngestRequest{Sequences: []IngestSequence{{Name: "fresh", Data: string(data)}}})
	resp, err := http.Post(e.srv.URL+"/v1/ingest", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var ir IngestResponse
	if err := json.NewDecoder(resp.Body).Decode(&ir); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || ir.Indexed != 1 {
		t.Fatalf("ingest: status %d indexed %d", resp.StatusCode, ir.Indexed)
	}
	status, sr, _ := e.postSearch(t, string(data[30:150]), "")
	if status != http.StatusOK {
		t.Fatalf("search after ingest: status %d", status)
	}
	found := false
	for _, h := range sr.Hits {
		if h.Name == "fresh" {
			found = true
		}
	}
	if !found {
		t.Fatalf("ingested sequence not among %d hits", len(sr.Hits))
	}
}

// TestGatewayConcurrentClients runs many clients against a small window and
// checks the bookkeeping: every request is answered 200 or 429, the
// admission gauges return to zero, and ok+shed counters equal the request
// count. Run with -race.
func TestGatewayConcurrentClients(t *testing.T) {
	e := newTestEnv(t, Config{MaxInFlight: 2, MaxQueue: 2, Deadline: 10 * time.Second})
	query := string(e.db.Seqs[2].Data[10:130])
	const clients, perClient = 8, 4
	var mu sync.Mutex
	statuses := make(map[int]int)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				status, _, _ := e.postSearch(t, query, "")
				mu.Lock()
				statuses[status]++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	total := 0
	for status, n := range statuses {
		if status != http.StatusOK && status != http.StatusTooManyRequests {
			t.Fatalf("unexpected status %d (%d times)", status, n)
		}
		total += n
	}
	if total != clients*perClient {
		t.Fatalf("answered %d requests, want %d", total, clients*perClient)
	}
	if e.gw.adm.inflightNow() != 0 || e.gw.adm.queueDepth() != 0 {
		t.Fatal("admission state did not drain")
	}
	ok := counterValue(e.reg, "gw_search_ok_total")
	shed := counterValue(e.reg, "gw_shed_total")
	if ok+shed != int64(total) {
		t.Fatalf("ok(%d)+shed(%d) != answered(%d)", ok, shed, total)
	}
	if ok == 0 {
		t.Fatal("no request succeeded")
	}
}

// TestGatewayMetricsExposed checks the gw_* gauges are wired into the
// /metrics surface the gateway shares with the observability mux.
func TestGatewayMetricsExposed(t *testing.T) {
	e := newTestEnv(t, Config{})
	e.postSearch(t, string(e.db.Seqs[0].Data[0:120]), "")
	resp, err := http.Get(e.srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	text := buf.String()
	for _, name := range []string{"gw_inflight", "gw_queue_depth", "gw_requests_total"} {
		if !strings.Contains(text, name) {
			t.Fatalf("/metrics missing %s:\n%s", name, text)
		}
	}
}
