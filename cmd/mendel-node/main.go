// Command mendel-node runs one Mendel storage node, serving the cluster
// protocol over TCP until interrupted. Nodes start empty and inert; a
// coordinator (cmd/mendel or library code using mendel.NewTCPCluster)
// bootstraps them with the shared hash tree and topology when it indexes
// data.
//
// Usage:
//
//	mendel-node -addr 0.0.0.0:7946
package main

import (
	"flag"
	"fmt"
	"log"
	"log/slog"
	"os"
	"os/signal"
	"syscall"
	"time"

	"mendel"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:0", "host:port to listen on (port 0 picks a free port)")
	dataFile := flag.String("data", "", "snapshot file: loaded at startup if present, written on shutdown")
	metricsAddr := flag.String("metrics-addr", "", "host:port for the HTTP observability endpoint (/metrics, /metrics/history, /debug/spans, /debug/trace/{id}, /debug/pprof); empty disables")
	sampleEvery := flag.Duration("sample-interval", time.Second, "windowed telemetry sampling interval")
	historySamples := flag.Int("history-samples", 300, "telemetry ring capacity (samples retained)")
	slowQuery := flag.Duration("slow-query", 0, "log group searches slower than this to stderr (0 disables)")
	logJSON := flag.Bool("log-json", false, "emit structured JSON logs on stderr (one object per line, trace-correlated)")
	rc := mendel.DefaultResilienceConfig()
	flag.DurationVar(&rc.CallTimeout, "rpc-timeout", rc.CallTimeout, "per-RPC timeout for peer calls (0 disables)")
	flag.IntVar(&rc.MaxRetries, "rpc-retries", rc.MaxRetries, "retries per RPC on unreachable peers")
	flag.IntVar(&rc.TripAfter, "breaker-trip", rc.TripAfter, "consecutive failures that trip a peer's circuit breaker (0 disables)")
	flag.DurationVar(&rc.Cooldown, "breaker-cooldown", rc.Cooldown, "circuit breaker cooldown before a half-open probe")
	flag.Parse()

	srv, err := mendel.ServeNodeResilient(*addr, rc)
	if err != nil {
		log.Fatalf("mendel-node: %v", err)
	}
	// Observability sinks are always attached: the tracer must exist even
	// without -metrics-addr, so that sampled distributed traces arriving
	// over TCP record this node's spans and ship them back to the
	// coordinator. -metrics-addr only controls the HTTP surface.
	reg := mendel.NewMetricsRegistry()
	tracer := mendel.NewQueryTracer(0)
	var logger *slog.Logger
	if *logJSON {
		logger = mendel.NewLogger(os.Stderr, slog.LevelInfo, slog.String("node", srv.Addr()))
	}
	if *slowQuery > 0 {
		tracer.SetSlowThreshold(*slowQuery)
		tracer.OnSlow(func(sp mendel.SpanSnapshot) {
			if logger != nil {
				logger.Warn("slow query",
					slog.String("span", sp.Name),
					slog.Duration("duration", time.Duration(sp.NS)),
					slog.String("trace_id", sp.TraceID))
				return
			}
			log.Printf("mendel-node: slow query: %s took %v", sp.Name, time.Duration(sp.NS))
		})
	}
	srv.Observe(reg, tracer)
	// Replace Observe's default sampler with one on the configured cadence;
	// the same series answers wire.MetricsHistory pulls from coordinators
	// and backs the local /metrics/history endpoint.
	series := srv.StartHistory(reg, mendel.TimeSeriesConfig{
		Interval: *sampleEvery,
		Capacity: *historySamples,
	})
	if *metricsAddr != "" {
		surface := mendel.MetricsSurface{
			Registry: reg,
			Tracer:   tracer,
			Health:   srv.HealthSource(),
			History:  series,
		}
		_, bound, err := surface.Serve(*metricsAddr)
		if err != nil {
			log.Fatalf("mendel-node: metrics endpoint: %v", err)
		}
		fmt.Printf("mendel-node health on http://%s/debug/health\n", bound)
		fmt.Printf("mendel-node metrics on http://%s/metrics\n", bound)
	}
	if *dataFile != "" {
		if f, err := os.Open(*dataFile); err == nil {
			if err := srv.Load(f); err != nil {
				log.Fatalf("mendel-node: loading %s: %v", *dataFile, err)
			}
			f.Close()
			fmt.Printf("mendel-node restored state from %s\n", *dataFile)
		}
	}
	fmt.Printf("mendel-node listening on %s\n", srv.Addr())
	if logger != nil {
		logger.Info("listening", slog.String("addr", srv.Addr()))
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	if *dataFile != "" {
		f, err := os.Create(*dataFile)
		if err != nil {
			log.Fatalf("mendel-node: %v", err)
		}
		if err := srv.Save(f); err != nil {
			log.Fatalf("mendel-node: saving %s: %v", *dataFile, err)
		}
		f.Close()
		fmt.Printf("mendel-node saved state to %s\n", *dataFile)
	}
	if err := srv.Close(); err != nil {
		log.Fatalf("mendel-node: shutdown: %v", err)
	}
}
