package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func testSinks() (*Registry, *Tracer) {
	reg := NewRegistry()
	reg.Counter("rpc_calls").Add(9)
	reg.Histogram("rpc_call_ns").Observe(1500)
	tr := NewTracer(8)
	root := tr.Start("search")
	root.Child("fanout").End()
	root.End()
	return reg, tr
}

func testSurface() Surface {
	reg, tr := testSinks()
	return Surface{Registry: reg, Tracer: tr}
}

func get(t *testing.T, h http.Handler, url string) (int, string) {
	t.Helper()
	req := httptest.NewRequest("GET", url, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	body, _ := io.ReadAll(rec.Result().Body)
	return rec.Code, string(body)
}

func TestMetricsEndpoint(t *testing.T) {
	h := testSurface().Handler()
	code, body := get(t, h, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	for _, want := range []string{"rpc_calls 9\n", "rpc_call_ns_count 1\n", "rpc_call_ns_p95 "} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}

	code, body = get(t, h, "/metrics?format=json")
	if code != http.StatusOK {
		t.Fatalf("json status = %d", code)
	}
	var snaps []Snapshot
	if err := json.Unmarshal([]byte(body), &snaps); err != nil {
		t.Fatalf("invalid JSON from /metrics: %v\n%s", err, body)
	}
	found := false
	for _, s := range snaps {
		if s.Name == "rpc_call_ns" && s.Kind == "histogram" && s.Count == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("histogram snapshot missing from JSON: %s", body)
	}
}

func TestSpansEndpoint(t *testing.T) {
	h := testSurface().Handler()
	code, body := get(t, h, "/debug/spans")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if !strings.Contains(body, "search ") || !strings.Contains(body, "  fanout ") {
		t.Fatalf("span tree not rendered:\n%s", body)
	}

	code, body = get(t, h, "/debug/spans?format=json")
	if code != http.StatusOK {
		t.Fatalf("json status = %d", code)
	}
	var spans []SpanSnapshot
	if err := json.Unmarshal([]byte(body), &spans); err != nil {
		t.Fatalf("invalid JSON from /debug/spans: %v\n%s", err, body)
	}
	if len(spans) != 1 || spans[0].Name != "search" || len(spans[0].Children) != 1 {
		t.Fatalf("span JSON = %+v", spans)
	}

	if code, body = get(t, h, "/debug/spans?slow=1"); code != http.StatusOK || strings.TrimSpace(body) != "" {
		t.Fatalf("slow log should be empty: %d %q", code, body)
	}
}

func TestSpansEndpointN(t *testing.T) {
	reg := NewRegistry()
	tr := NewTracer(8)
	for i := 0; i < 5; i++ {
		tr.Start("q").End()
	}
	h := Surface{Registry: reg, Tracer: tr}.Handler()
	_, body := get(t, h, "/debug/spans?format=json&n=2")
	var spans []SpanSnapshot
	if err := json.Unmarshal([]byte(body), &spans); err != nil {
		t.Fatal(err)
	}
	if len(spans) != 2 {
		t.Fatalf("n=2 returned %d spans", len(spans))
	}
}

func TestDebugEndpoints(t *testing.T) {
	h := testSurface().Handler()
	for _, url := range []string{"/debug/vars", "/debug/pprof/", "/debug/pprof/cmdline"} {
		if code, _ := get(t, h, url); code != http.StatusOK {
			t.Errorf("%s status = %d", url, code)
		}
	}
}

func TestNilSinksServe(t *testing.T) {
	h := Surface{}.Handler()
	if code, body := get(t, h, "/metrics"); code != http.StatusOK || strings.TrimSpace(body) != "" {
		t.Fatalf("/metrics with nil registry: %d %q", code, body)
	}
	if code, _ := get(t, h, "/debug/spans"); code != http.StatusOK {
		t.Fatalf("/debug/spans with nil tracer: status %d", code)
	}
}

func TestServeBindsAndAnswers(t *testing.T) {
	s := testSurface()
	srv, addr, err := s.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "rpc_calls 9") {
		t.Fatalf("served metrics wrong: %d %s", resp.StatusCode, body)
	}
	if _, _, err := s.Serve(addr); err == nil {
		t.Fatal("second bind of the same address should fail")
	}
}

func TestHealthEndpoint(t *testing.T) {
	s := testSurface()
	type row struct {
		Addr  string `json:"addr"`
		State string `json:"state"`
	}
	src := HealthSource(func() any {
		return []row{{Addr: "node-000", State: "up"}, {Addr: "node-001", State: "down"}}
	})
	s.Health = src
	h := s.Handler()
	code, body := get(t, h, "/debug/health")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	var rows []row
	if err := json.Unmarshal([]byte(body), &rows); err != nil {
		t.Fatalf("invalid JSON from /debug/health: %v\n%s", err, body)
	}
	if len(rows) != 2 || rows[0].Addr != "node-000" || rows[1].State != "down" {
		t.Fatalf("health rows = %+v", rows)
	}

	// Without a source the path 404s; the rest of the surface still works.
	s.Health = nil
	h = s.Handler()
	if code, _ := get(t, h, "/debug/health"); code != http.StatusNotFound {
		t.Fatalf("nil source status = %d, want 404", code)
	}
	if code, _ := get(t, h, "/metrics"); code != http.StatusOK {
		t.Fatalf("metrics broken by nil health source: %d", code)
	}
}
