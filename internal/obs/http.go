package obs

import (
	"encoding/json"
	"expvar"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"time"
)

// TraceSource resolves a 32-hex trace ID to its assembled cross-node span
// tree. The coordinator passes Cluster.FetchTrace-backed lookup so
// /debug/trace/{id} covers node-side spans; plain node processes use the
// tracer-local fallback.
type TraceSource func(traceID string) []SpanSnapshot

// HealthSource supplies the value served as JSON from /debug/health. The
// coordinator plugs in HealthMonitor.Snapshot (per-node up/suspect/down
// states); a standalone node serves its own inventory summary. The returned
// value must be JSON-encodable.
type HealthSource func() any

// ClusterHistory is the /metrics/history response body: the cluster-merged
// window plus (on request) the per-node series and any unreachable nodes.
type ClusterHistory struct {
	Merged History
	Nodes  []History `json:",omitempty"`
	Down   []string  `json:",omitempty"`
}

// HistorySource supplies windowed histories for /metrics/history. The
// coordinator backs it with Cluster.HistoryDetailed so one endpoint covers
// the whole cluster; perNode requests the unmerged per-node series too.
type HistorySource func(window time.Duration, perNode bool) (ClusterHistory, error)

// Route is an application (pattern, handler) pair mounted onto the
// observability mux, letting a process serve its API and its observability
// surface from one listener (the gateway mounts /v1/search this way).
// Patterns follow http.ServeMux rules and must not collide with the
// observability paths.
type Route struct {
	Pattern string
	Handler http.Handler
}

// Surface bundles every sink the observability HTTP endpoints draw from.
// All fields are optional: nil sinks serve empty bodies or 404, never
// panic.
type Surface struct {
	Registry *Registry
	Tracer   *Tracer
	Trace    TraceSource
	Health   HealthSource
	// History serves the local process's windowed series at
	// /metrics/history.
	History *TimeSeries
	// Cluster, when set, overrides History at /metrics/history with a
	// cluster-wide view (the coordinator wires Cluster.HistoryDetailed).
	Cluster HistorySource
	// SLO serves the watchdog state at /debug/slo.
	SLO    *Watchdog
	Routes []Route
}

// Handler builds the observability mux for this surface:
//
//	/metrics          plain-text metrics; ?format=json for a JSON snapshot
//	/metrics/history  windowed time-series JSON (?window=30s, ?nodes=1 for
//	                  the per-node breakdown); 404 unless History or Cluster
//	                  is set
//	/debug/slo        SLO watchdog state (ok/warn/page) as JSON; 404 unless
//	                  SLO is set
//	/debug/health     the Health source's value as JSON; 404 unless set
//	/debug/vars       expvar (process-global JSON, includes memstats)
//	/debug/pprof/*    the standard runtime profiles
//	/debug/spans      recent completed query span trees; ?slow=1 for the
//	                  slow-query log, ?format=json for machine-readable
//	                  output, ?n=K to bound the span count
//	/debug/trace/{id} the assembled span tree of one trace ID (the Trace
//	                  source's, else the Tracer's local roots merged via
//	                  AssembleTrace); 404 for unknown IDs
//
// Routes are mounted onto the same mux. Every /metrics* and /debug/*
// response carries Cache-Control: no-store so polling clients and proxies
// never serve stale telemetry.
func (s Surface) Handler() http.Handler {
	mux := http.NewServeMux()
	for _, rt := range s.Routes {
		mux.Handle(rt.Pattern, rt.Handler)
	}
	mux.HandleFunc("/debug/health", func(w http.ResponseWriter, r *http.Request) {
		if s.Health == nil {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(s.Health())
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("format") == "json" {
			w.Header().Set("Content-Type", "application/json")
			if s.Registry == nil {
				w.Write([]byte("[]\n"))
				return
			}
			json.NewEncoder(w).Encode(s.Registry.Snapshot())
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if s.Registry == nil {
			return
		}
		s.Registry.WriteText(w)
	})
	mux.HandleFunc("/metrics/history", func(w http.ResponseWriter, r *http.Request) {
		if s.Cluster == nil && s.History == nil {
			http.NotFound(w, r)
			return
		}
		var window time.Duration
		if v := r.URL.Query().Get("window"); v != "" {
			d, err := time.ParseDuration(v)
			if err != nil {
				http.Error(w, "bad window: "+err.Error(), http.StatusBadRequest)
				return
			}
			window = d
		}
		perNode := r.URL.Query().Get("nodes") != ""
		var ch ClusterHistory
		if s.Cluster != nil {
			var err error
			ch, err = s.Cluster(window, perNode)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadGateway)
				return
			}
		} else {
			local := s.History.History(window)
			ch.Merged = local
			if perNode {
				ch.Nodes = []History{local}
			}
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(ch)
	})
	mux.HandleFunc("/debug/slo", func(w http.ResponseWriter, r *http.Request) {
		if s.SLO == nil {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(s.SLO.Status())
	})
	mux.HandleFunc("/debug/spans", func(w http.ResponseWriter, r *http.Request) {
		n := 0
		if v := r.URL.Query().Get("n"); v != "" {
			n, _ = strconv.Atoi(v)
		}
		var spans []SpanSnapshot
		if s.Tracer != nil {
			if r.URL.Query().Get("slow") != "" {
				spans = s.Tracer.Slow(n)
			} else {
				spans = s.Tracer.Recent(n)
			}
		}
		if r.URL.Query().Get("format") == "json" {
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(spans)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		for _, sp := range spans {
			sp.WriteTo(w)
		}
	})
	mux.HandleFunc("/debug/trace/", func(w http.ResponseWriter, r *http.Request) {
		id := strings.TrimPrefix(r.URL.Path, "/debug/trace/")
		var spans []SpanSnapshot
		switch {
		case id == "":
			// fall through to 404
		case s.Trace != nil:
			spans = s.Trace(id)
		case s.Tracer != nil:
			spans = AssembleTrace(s.Tracer.Trace(id))
		}
		if len(spans) == 0 {
			http.NotFound(w, r)
			return
		}
		if r.URL.Query().Get("format") == "json" {
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(spans)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		for _, sp := range spans {
			sp.WriteTo(w)
		}
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return noStoreTelemetry(mux)
}

// noStoreTelemetry stamps Cache-Control: no-store on every /metrics* and
// /debug/* response before the handler runs, so intermediaries and polling
// clients (mendel top, stats -watch, CI scrapes) never see stale
// telemetry. Application routes mounted on the same mux are untouched.
func noStoreTelemetry(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		p := r.URL.Path
		if p == "/metrics" || strings.HasPrefix(p, "/metrics/") || strings.HasPrefix(p, "/debug/") {
			w.Header().Set("Cache-Control", "no-store")
		}
		next.ServeHTTP(w, r)
	})
}

// Serve binds addr (":0" picks a free port), serves this surface from a
// background goroutine, and returns the server (for Shutdown/Close) plus
// the bound address.
func (s Surface) Serve(addr string) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", err
	}
	srv := &http.Server{Handler: s.Handler()}
	go srv.Serve(ln)
	return srv, ln.Addr().String(), nil
}

// Publish exposes the registry under the given expvar name, so the JSON
// snapshot also appears in /debug/vars alongside the runtime's variables.
// Publishing the same name twice panics (an expvar rule), so callers should
// publish once per process.
func Publish(name string, reg *Registry) {
	expvar.Publish(name, expvar.Func(func() any { return reg.Snapshot() }))
}
