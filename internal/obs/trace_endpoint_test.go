package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func getStatus(t *testing.T, h http.Handler, path string) (int, string) {
	t.Helper()
	srv := httptest.NewServer(h)
	defer srv.Close()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(body)
}

func TestTraceEndpoint(t *testing.T) {
	tr := NewTracer(8)
	tc := NewTraceContext()
	sp := tr.StartTrace("search", tc)
	sp.SetNode("10.0.0.1:1")
	sp.Child("fanout").End()
	sp.End()
	h := Surface{Tracer: tr}.Handler()

	code, body := getStatus(t, h, "/debug/trace/"+tc.TraceID())
	if code != http.StatusOK {
		t.Fatalf("known trace: status %d\n%s", code, body)
	}
	for _, want := range []string{"search", "fanout", "@10.0.0.1:1"} {
		if !strings.Contains(body, want) {
			t.Errorf("trace text missing %q:\n%s", want, body)
		}
	}

	code, body = getStatus(t, h, "/debug/trace/"+tc.TraceID()+"?format=json")
	if code != http.StatusOK {
		t.Fatalf("json trace: status %d", code)
	}
	var spans []SpanSnapshot
	if err := json.Unmarshal([]byte(body), &spans); err != nil {
		t.Fatalf("trace JSON invalid: %v\n%s", err, body)
	}
	if len(spans) != 1 || spans[0].TraceID != tc.TraceID() {
		t.Errorf("json spans = %+v", spans)
	}

	if code, _ = getStatus(t, h, "/debug/trace/feedfacefeedfacefeedfacefeedface"); code != http.StatusNotFound {
		t.Errorf("unknown trace: status %d, want 404", code)
	}
	if code, _ = getStatus(t, h, "/debug/trace/"); code != http.StatusNotFound {
		t.Errorf("empty trace id: status %d, want 404", code)
	}
}

func TestTraceEndpointUsesSource(t *testing.T) {
	var asked string
	src := func(id string) []SpanSnapshot {
		asked = id
		return []SpanSnapshot{{Name: "assembled", TraceID: id}}
	}
	h := Surface{Trace: src}.Handler()
	code, body := getStatus(t, h, "/debug/trace/abc123")
	if code != http.StatusOK || asked != "abc123" || !strings.Contains(body, "assembled") {
		t.Errorf("source not consulted: status=%d asked=%q body=%q", code, asked, body)
	}
}

// Regression: before the nil-sink hardening, /debug/spans and
// /debug/trace/{id} dereferenced a nil tracer/registry and panicked the
// serving goroutine; Surface documents that every sink may be nil.
func TestHandlerNilSinksDoNotPanic(t *testing.T) {
	h := Surface{}.Handler()
	if code, body := getStatus(t, h, "/debug/spans?format=json"); code != http.StatusOK || strings.TrimSpace(body) != "null" && strings.TrimSpace(body) != "[]" {
		t.Errorf("/debug/spans with nil tracer: status %d body %q", code, body)
	}
	if code, _ := getStatus(t, h, "/debug/spans"); code != http.StatusOK {
		t.Errorf("/debug/spans text with nil tracer: status %d", code)
	}
	if code, _ := getStatus(t, h, "/debug/trace/abc"); code != http.StatusNotFound {
		t.Errorf("/debug/trace with nil sinks: status %d, want 404", code)
	}
	if code, _ := getStatus(t, h, "/metrics"); code != http.StatusOK {
		t.Errorf("/metrics with nil registry: status %d", code)
	}
}
