// Package loadgen is an open-loop workload generator for the query gateway:
// requests are fired on a fixed arrival schedule derived from the target
// rate, independent of when earlier requests complete. Unlike a closed loop
// (fixed worker pool, next request after the previous reply), an open loop
// keeps offering load when the server slows down, which is what exposes
// queueing collapse and measures goodput under overload — the behaviour the
// gateway's admission control exists to bound.
package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"time"

	"mendel/internal/datagen"
	"mendel/internal/seq"
)

// Mix names a workload shape.
type Mix string

// The three workload mixes of the load harness.
const (
	// MixRead is pure queries at a constant rate.
	MixRead Mix = "read"
	// MixWrite interleaves ingests with queries (one ingest per
	// IngestEvery arrivals), the concurrent read/write regime.
	MixWrite Mix = "write"
	// MixBurst alternates one second at the base rate with one second at
	// four times the base rate, probing shed behaviour and recovery.
	MixBurst Mix = "burst"
)

// Config shapes one load run.
type Config struct {
	// URL is the gateway base URL, e.g. "http://127.0.0.1:9090".
	URL string
	// Rate is the target arrival rate in requests per second.
	Rate float64
	// Duration is how long arrivals are generated (completions may land
	// slightly after).
	Duration time.Duration
	// Mix selects the workload shape (default MixRead).
	Mix Mix
	// Kind is the cluster's molecule kind, used to synthesize queries and
	// ingest payloads.
	Kind seq.Kind
	// Queries are the query bodies cycled through; empty synthesizes
	// QueryCount random queries of QueryLen residues from Seed.
	Queries [][]byte
	// QueryLen is the synthesized query length (default 64).
	QueryLen int
	// QueryCount is how many distinct synthetic queries to cycle
	// (default 32).
	QueryCount int
	// Tenants > 1 spreads requests round-robin over that many
	// X-Mendel-Tenant values, exercising per-tenant quotas.
	Tenants int
	// IngestEvery makes every Nth arrival an ingest in MixWrite
	// (default 10).
	IngestEvery int
	// IngestSeqLen is the length of each ingested sequence (default 256).
	IngestSeqLen int
	// Timeout bounds each HTTP request (default 30s).
	Timeout time.Duration
	// Seed feeds the query/payload synthesizer.
	Seed int64
}

func (cfg Config) withDefaults() Config {
	if cfg.Mix == "" {
		cfg.Mix = MixRead
	}
	if cfg.QueryLen <= 0 {
		cfg.QueryLen = 64
	}
	if cfg.QueryCount <= 0 {
		cfg.QueryCount = 32
	}
	if cfg.Tenants <= 0 {
		cfg.Tenants = 1
	}
	if cfg.IngestEvery <= 0 {
		cfg.IngestEvery = 10
	}
	if cfg.IngestSeqLen <= 0 {
		cfg.IngestSeqLen = 256
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 30 * time.Second
	}
	return cfg
}

// Result is the machine-readable outcome of one load run. Latency
// quantiles cover successful queries only; goodput is successful queries
// per second of wall-clock, the number that should stay flat when offered
// load exceeds capacity.
type Result struct {
	Mix       string  `json:"mix"`
	TargetQPS float64 `json:"target_qps"`
	DurationS float64 `json:"duration_s"`

	Sent      int `json:"sent"`
	OK        int `json:"ok"`
	Shed      int `json:"shed"`      // 429: queue full or tenant throttled
	Deadline  int `json:"deadline"`  // 504
	Errors    int `json:"errors"`    // transport failures and other non-2xx
	Ingests   int `json:"ingests"`   // write mix: ingest arrivals
	IngestOK  int `json:"ingest_ok"` // write mix: successful ingests
	HitsTotal int `json:"hits_total"`

	SustainedQPS float64 `json:"sustained_qps"` // OK / wall-clock
	GoodputQPS   float64 `json:"goodput_qps"`   // same, under overload the headline
	P50Ms        float64 `json:"p50_ms"`
	P95Ms        float64 `json:"p95_ms"`
	P99Ms        float64 `json:"p99_ms"`
	MaxMs        float64 `json:"max_ms"`
}

// JSON renders the result as indented JSON.
func (r *Result) JSON() ([]byte, error) { return json.MarshalIndent(r, "", "  ") }

// String renders a human-readable summary table.
func (r *Result) String() string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "load %s: target %.0f qps for %.1fs\n", r.Mix, r.TargetQPS, r.DurationS)
	fmt.Fprintf(&b, "  sent=%d ok=%d shed=%d deadline=%d errors=%d", r.Sent, r.OK, r.Shed, r.Deadline, r.Errors)
	if r.Ingests > 0 {
		fmt.Fprintf(&b, " ingests=%d/%d", r.IngestOK, r.Ingests)
	}
	fmt.Fprintf(&b, "\n  goodput=%.1f qps  p50=%.2fms p95=%.2fms p99=%.2fms max=%.2fms  hits=%d",
		r.GoodputQPS, r.P50Ms, r.P95Ms, r.P99Ms, r.MaxMs, r.HitsTotal)
	return b.String()
}

// searchReply is the slice of the gateway response the generator needs.
type searchReply struct {
	Hits []json.RawMessage `json:"hits"`
}

// Run drives one open-loop load run against a gateway and reports the
// outcome. ctx cancellation stops the arrival schedule early; in-flight
// requests are awaited either way.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if cfg.URL == "" {
		return nil, fmt.Errorf("loadgen: no gateway URL")
	}
	if cfg.Rate <= 0 || cfg.Duration <= 0 {
		return nil, fmt.Errorf("loadgen: rate and duration must be positive")
	}
	switch cfg.Mix {
	case MixRead, MixWrite, MixBurst:
	default:
		return nil, fmt.Errorf("loadgen: unknown mix %q", cfg.Mix)
	}
	queries := cfg.Queries
	if len(queries) == 0 {
		gen := datagen.New(cfg.Kind, cfg.Seed)
		queries = make([][]byte, cfg.QueryCount)
		for i := range queries {
			queries[i] = gen.Sequence(cfg.QueryLen)
		}
	}
	// Ingest payloads are pre-generated so the arrival loop never blocks
	// on synthesis; the name carries the seed and index for uniqueness.
	ingestGen := datagen.New(cfg.Kind, cfg.Seed+1)
	rng := rand.New(rand.NewSource(cfg.Seed + 2))

	client := &http.Client{Timeout: cfg.Timeout}
	res := &Result{Mix: string(cfg.Mix), TargetQPS: cfg.Rate}
	var (
		mu        sync.Mutex
		latencies []float64 // ms, successful queries
		wg        sync.WaitGroup
	)
	record := func(kind string, ms float64, hits int) {
		mu.Lock()
		defer mu.Unlock()
		switch kind {
		case "ok":
			res.OK++
			res.HitsTotal += hits
			latencies = append(latencies, ms)
		case "shed":
			res.Shed++
		case "deadline":
			res.Deadline++
		case "ingest_ok":
			res.IngestOK++
		default:
			res.Errors++
		}
	}

	fireQuery := func(q []byte, tenant string) {
		defer wg.Done()
		body, _ := json.Marshal(map[string]string{"query": string(q)})
		req, err := http.NewRequest(http.MethodPost, cfg.URL+"/v1/search", bytes.NewReader(body))
		if err != nil {
			record("error", 0, 0)
			return
		}
		req.Header.Set("Content-Type", "application/json")
		if tenant != "" {
			req.Header.Set("X-Mendel-Tenant", tenant)
		}
		start := time.Now()
		resp, err := client.Do(req)
		if err != nil {
			record("error", 0, 0)
			return
		}
		defer resp.Body.Close()
		ms := float64(time.Since(start).Microseconds()) / 1000
		switch resp.StatusCode {
		case http.StatusOK:
			var sr searchReply
			if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
				record("error", 0, 0)
				return
			}
			record("ok", ms, len(sr.Hits))
		case http.StatusTooManyRequests:
			io.Copy(io.Discard, resp.Body)
			record("shed", 0, 0)
		case http.StatusGatewayTimeout:
			io.Copy(io.Discard, resp.Body)
			record("deadline", 0, 0)
		default:
			io.Copy(io.Discard, resp.Body)
			record("error", 0, 0)
		}
	}

	var ingestSeq int
	var ingestMu sync.Mutex
	fireIngest := func() {
		defer wg.Done()
		ingestMu.Lock()
		ingestSeq++
		n := ingestSeq
		data := ingestGen.Sequence(cfg.IngestSeqLen)
		ingestMu.Unlock()
		body, _ := json.Marshal(map[string]any{
			"sequences": []map[string]string{{
				"name": fmt.Sprintf("load-%d-%d", cfg.Seed, n),
				"data": string(data),
			}},
		})
		req, err := http.NewRequest(http.MethodPost, cfg.URL+"/v1/ingest", bytes.NewReader(body))
		if err != nil {
			record("error", 0, 0)
			return
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := client.Do(req)
		if err != nil {
			record("error", 0, 0)
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			record("ingest_ok", 0, 0)
		} else {
			record("error", 0, 0)
		}
	}

	// The open loop: arrival k fires at its scheduled instant whether or
	// not earlier requests have completed. Burst mixes alternate the
	// instantaneous rate second by second.
	rateAt := func(elapsed time.Duration) float64 {
		if cfg.Mix == MixBurst && int(elapsed.Seconds())%2 == 1 {
			return cfg.Rate * 4
		}
		return cfg.Rate
	}
	start := time.Now()
	next := start
	for k := 0; ; k++ {
		now := time.Now()
		if next.After(now) {
			select {
			case <-time.After(next.Sub(now)):
			case <-ctx.Done():
			}
		}
		elapsed := time.Since(start)
		if elapsed >= cfg.Duration || ctx.Err() != nil {
			break
		}
		res.Sent++
		wg.Add(1)
		if cfg.Mix == MixWrite && res.Sent%cfg.IngestEvery == 0 {
			res.Ingests++
			go fireIngest()
		} else {
			tenant := ""
			if cfg.Tenants > 1 {
				tenant = fmt.Sprintf("tenant-%d", rng.Intn(cfg.Tenants))
			}
			go fireQuery(queries[k%len(queries)], tenant)
		}
		next = next.Add(time.Duration(float64(time.Second) / rateAt(elapsed)))
	}
	wg.Wait()
	wall := time.Since(start).Seconds()

	res.DurationS = wall
	if wall > 0 {
		res.SustainedQPS = float64(res.OK) / wall
		res.GoodputQPS = res.SustainedQPS
	}
	sort.Float64s(latencies)
	res.P50Ms = quantile(latencies, 0.50)
	res.P95Ms = quantile(latencies, 0.95)
	res.P99Ms = quantile(latencies, 0.99)
	if n := len(latencies); n > 0 {
		res.MaxMs = latencies[n-1]
	}
	return res, nil
}

// quantile reads the q-quantile from an ascending-sorted slice
// (nearest-rank; 0 for an empty slice).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}
