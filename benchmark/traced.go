package main

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"strings"
	"time"

	"mendel"
)

// tracedResult is one traced pass: the per-layer metrics.
type tracedResult struct {
	tally
	metrics map[string]metricValue
}

// tracedRun carries the state of a traced pass between its phases.
type tracedRun struct {
	tracedResult
	sc      *scenario
	rec     *recorder
	seconds float64
	ops     int // operation counter for root spans
}

func (t *tracedRun) set(name string, v float64, n int) {
	t.metrics[name] = metricValue{v, n}
}

func (t *tracedRun) nextOp() int { t.ops++; return t.ops }

// Shares of -seconds the phases of a traced pass take; the replays take
// what is left, each bounded by replayBudget.
const (
	plainShare   = 0.15
	tracedShare  = 0.30
	gatewayShare = 0.20
)

// runTraced is the traced pass of a workload, on the inputs the untraced
// pass ran on. It (a) runs the workload's queries through
// Cluster.SearchTrace with a registry and tracer attached to every layer
// and reads the stage durations and counts that call already returns, and
// (b) replays the data path itself, timing calls into each layer's
// exported functions from outside. Nothing inside Mendel is instrumented
// for it. End-to-end metrics are never taken from this pass.
func runTraced(ctx context.Context, root, name string, seed int64, seconds float64) (*tracedResult, error) {
	t := &tracedRun{rec: newRecorder(name), seconds: seconds}
	t.metrics = map[string]metricValue{}

	// Phase 1: the same queries with nothing attached, on the same layout,
	// as the base of the tracing overhead.
	sc, plain, _, err := setupLocal(ctx, name, seed, nil)
	if err != nil {
		return nil, err
	}
	t.sc = sc
	plainMS := t.searchLoop(ctx, plain.lc.cluster, secs(seconds*plainShare), nil)
	plain.lc.close()

	// Phase 2: everything observed. The coordinator and the nodes get a
	// registry each, so the coordinator's counters are its own traffic.
	creg, tracer := mendel.NewMetricsRegistry(), mendel.NewQueryTracer(0)
	obs := &observers{coord: creg, nodes: mendel.NewMetricsRegistry(), tracer: tracer}
	op := t.nextOp()
	root0, endSetup := t.rec.begin(0, op, "setup")
	var obsd *indexed
	t.rec.timed(root0, op, "core.Index", func() {
		obsd, err = indexFresh(ctx, sc, obs)
	})
	endSetup()
	if err != nil {
		return nil, err
	}
	lc := obsd.lc
	defer lc.close()
	bytes0 := counterSum(creg, "rpc_bytes_sent", "rpc_bytes_recv")
	agg := &traceAgg{perQuery: map[int]*mendel.SearchStats{}}
	tracedMS := t.searchLoop(ctx, lc.cluster, secs(seconds*tracedShare), agg)
	bytesPerQuery := float64(counterSum(creg, "rpc_bytes_sent", "rpc_bytes_recv")-bytes0) / float64(len(tracedMS))
	t.traceMetrics(agg, plainMS, tracedMS)

	// Phase 3: per-stratum sensitivity on this database.
	t.probeRecall(ctx, lc.cluster)

	// Real group requests and replies, captured before any write changes
	// the trees, feed the codec and merge replays.
	rp, err := newReplay(ctx, t, lc)
	if err != nil {
		return nil, err
	}
	defer rp.close()

	// Phase 4: the HTTP gateway in front of the cluster, open loop.
	if name == wServeMixed {
		// The shipped binaries with their defaults; coordinator counters
		// come from scraping the serve process.
		if err := t.gatewayPhaseProcesses(ctx, root); err != nil {
			return nil, err
		}
	} else {
		t.set("transport.bytes_per_query", bytesPerQuery, len(tracedMS))
		t.set("sketch.skipped_per_query", agg.meanCount(func(s *mendel.SearchStats) int { return s.GroupsSkipped }), len(agg.perQuery))
		if err := t.gatewayPhaseInProcess(ctx, lc, creg, tracer); err != nil {
			return nil, err
		}
	}

	// Phase 5: replay each layer from outside.
	rp.run(ctx)

	if frac := t.metrics["core.unattributed_frac"].Value; math.Abs(frac) > 0.10 && (name == wQueryShort || name == wQueryLong) {
		t.gatef("core.unattributed_frac = %.3f: stage durations do not reconcile with the total within 10%%", frac)
	}
	t.printSelfTimes()
	out := filepath.Join(root, "benchmark", "out", "trace_"+name+".json")
	if err := t.rec.writeFile(out); err != nil {
		return nil, fmt.Errorf("writing span file: %w", err)
	}
	fmt.Printf("# %d spans written to %s\n", len(t.rec.snapshot()), out)
	return &t.tracedResult, ctx.Err()
}

func counterSum(reg *mendel.MetricsRegistry, names ...string) int64 {
	total := int64(0)
	for _, s := range reg.Snapshot() {
		for _, n := range names {
			if s.Name == n {
				total += s.Value
			}
		}
	}
	return total
}

// traceAgg collects what SearchTrace returned during the traced loop.
type traceAgg struct {
	// perQuery keeps one trace per distinct cycle query: the counts in it
	// are a function of the query alone, so means over it repeat exactly.
	perQuery map[int]*mendel.SearchStats
	all      []*mendel.SearchStats
}

func (a *traceAgg) meanCount(f func(*mendel.SearchStats) int) float64 {
	sum := 0
	for _, s := range a.perQuery {
		sum += f(s)
	}
	return float64(sum) / float64(len(a.perQuery))
}

func (a *traceAgg) medianMS(f func(*mendel.SearchStats) time.Duration) float64 {
	v := make([]float64, len(a.all))
	for i, s := range a.all {
		v[i] = ms(f(s))
	}
	return median(v)
}

// searchLoop cycles the scenario's queries, closed loop, for at least dur
// and at least one whole lap, after a short discarded lead-in. With agg it
// calls SearchTrace and records a root span per query with the stages the
// trace reports laid end to end under it; without, plain Search.
func (t *tracedRun) searchLoop(ctx context.Context, cl *mendel.Cluster, dur time.Duration, agg *traceAgg) []float64 {
	n := len(t.sc.Queries)
	for i := 0; i < n/4+1 && ctx.Err() == nil; i++ {
		cl.Search(ctx, t.sc.Queries[i%n].Seq, mendel.DefaultParams())
	}
	var lat []float64
	start := time.Now()
	for i := 0; (time.Since(start) < dur || i < n) && ctx.Err() == nil; i++ {
		q := &t.sc.Queries[i%n]
		t.attempted++
		t0 := time.Now()
		var err error
		var stats *mendel.SearchStats
		if agg != nil {
			_, stats, err = cl.SearchTrace(ctx, q.Seq, mendel.DefaultParams())
		} else {
			_, err = cl.Search(ctx, q.Seq, mendel.DefaultParams())
		}
		end := time.Now()
		if err != nil {
			t.failed++
			t.gatef("search %d: %v", i%n, err)
			continue
		}
		lat = append(lat, ms(end.Sub(t0)))
		if agg == nil {
			continue
		}
		agg.all = append(agg.all, stats)
		agg.perQuery[i%n] = stats
		op := t.nextOp()
		root := t.rec.add(0, op, "search", t0, end)
		at := t0
		for _, st := range []struct {
			name string
			d    time.Duration
		}{
			{"core.decompose", stats.Decompose}, {"core.prefilter", stats.Prefilter}, {"core.fanout", stats.FanOut},
			{"core.aggregate", stats.Aggregate}, {"core.gapped", stats.Extend},
		} {
			t.rec.add(root, op, st.name, at, at.Add(st.d))
			at = at.Add(st.d)
		}
	}
	return lat
}

// traceMetrics turns the traced loop into the core.*, node.*, seq.* and
// obs.* metrics.
func (t *tracedRun) traceMetrics(a *traceAgg, plainMS, tracedMS []float64) {
	n, q := len(a.all), len(a.perQuery)
	if n == 0 || len(plainMS) == 0 {
		t.gatef("traced loop made no successful search")
		return
	}
	type S = mendel.SearchStats
	t.set("seq.windows_per_query", a.meanCount(func(s *S) int { return s.SubQueries }), q)
	t.set("core.group_requests_per_query", a.meanCount(func(s *S) int { return s.GroupRequests }), q)
	t.set("core.anchors_per_query", a.meanCount(func(s *S) int { return s.AnchorsReturned }), q)
	t.set("core.merged_per_query", a.meanCount(func(s *S) int { return s.AnchorsMerged }), q)
	t.set("core.gapped_per_query", a.meanCount(func(s *S) int { return s.GappedCandidates }), q)
	t.set("core.hits_per_query", a.meanCount(func(s *S) int { return s.Hits }), q)
	t.set("node.visits_per_query", a.meanCount(func(s *S) int { return int(s.TreeVisits) }), q)
	t.set("node.knn_cpu_ms_per_query", a.medianMS(func(s *S) time.Duration { return s.KNN }), n)
	t.set("node.ungapped_cpu_ms_per_query", a.medianMS(func(s *S) time.Duration { return s.Ungapped }), n)
	t.set("core.decompose_ms", a.medianMS(func(s *S) time.Duration { return s.Decompose }), n)
	t.set("core.prefilter_ms", a.medianMS(func(s *S) time.Duration { return s.Prefilter }), n)
	t.set("core.fanout_ms", a.medianMS(func(s *S) time.Duration { return s.FanOut }), n)
	t.set("core.aggregate_ms", a.medianMS(func(s *S) time.Duration { return s.Aggregate }), n)
	t.set("core.gapped_ms", a.medianMS(func(s *S) time.Duration { return s.Extend }), n)
	t.set("core.total_ms", a.medianMS(func(s *S) time.Duration { return s.Total }), n)
	unattr := make([]float64, n)
	for i, s := range a.all {
		stages := s.Decompose + s.Prefilter + s.FanOut + s.Aggregate + s.Extend
		unattr[i] = float64(s.Total-stages) / float64(s.Total)
	}
	t.set("core.unattributed_frac", median(unattr), n)
	t.set("obs.trace_overhead_frac", (median(tracedMS)-median(plainMS))/median(plainMS), len(tracedMS))
	fmt.Printf("# search p50: %.3f ms with nothing attached (n=%d), %.3f ms observed and traced (n=%d)\n",
		median(plainMS), len(plainMS), median(tracedMS), len(tracedMS))
}

// probeRecall searches every probe once and reports recall per similarity
// stratum; the 0.9 stratum is also a correctness gate.
func (t *tracedRun) probeRecall(ctx context.Context, cl *mendel.Cluster) {
	found, total := map[string]int{}, map[string]int{}
	for i := range t.sc.Probes {
		if ctx.Err() != nil {
			return
		}
		p := &t.sc.Probes[i]
		t.attempted++
		hits, err := cl.Search(ctx, p.Seq, mendel.DefaultParams())
		if err != nil {
			t.failed++
			t.gatef("probe %d: %v", i, err)
			continue
		}
		total[p.Stratum]++
		if p.found(refsOf(hits)) {
			found[p.Stratum]++
		}
	}
	for _, s := range []string{"s90", "s50", "s30"} {
		if total[s] == 0 {
			t.gatef("no %s probe ran", s)
			continue
		}
		t.set("core.recall_"+s, float64(found[s])/float64(total[s]), total[s])
	}
	if r := t.metrics["core.recall_s90"]; r.N > 0 && r.Value < 0.98 {
		t.gatef("recall of 0.9-similarity probes %.3f < 0.98", r.Value)
	}
}

// gatewayMetrics derives the gateway.* and bench.* metrics of an open-loop
// window; shed and deadline counts come from the gateway's own counters.
func (t *tracedRun) gatewayMetrics(run *openLoopRun, shed, deadline float64) {
	var overhead []float64
	for i := range run.outcomes {
		o := &run.outcomes[i]
		t.attempted++
		if !o.ok() {
			t.failed++
			t.gatef("gateway request %d: HTTP %d err=%v", i, o.status, o.err)
			continue
		}
		if !o.write {
			overhead = append(overhead, ms(o.fromSend)-o.elapsedMS)
		}
	}
	n := float64(len(run.outcomes))
	t.set("gateway.http_overhead_ms", median(overhead), len(overhead))
	t.set("gateway.shed_frac", shed/n, len(run.outcomes))
	t.set("gateway.deadline_frac", deadline/n, len(run.outcomes))
	lag := percentile(run.lagMS, 95)
	t.set("bench.gen_lag_p95_ms", lag, len(run.lagMS))
	if lag > maxGenLagMS {
		t.gatef("open-loop generator ran late: p95 lag %.3f ms > %g ms", lag, maxGenLagMS)
	}
}

// gatewayPhaseInProcess mounts a default Gateway over the traced cluster
// inside the harness and drives it open loop.
func (t *tracedRun) gatewayPhaseInProcess(ctx context.Context, lc *localCluster, creg *mendel.MetricsRegistry, tracer *mendel.QueryTracer) error {
	gw := mendel.NewGateway(lc.cluster, mendel.GatewayConfig{}, creg)
	srv, addr, err := mendel.MetricsSurface{Registry: creg, Tracer: tracer, Routes: gw.Routes()}.Serve("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer srv.Close()
	ol := newOpenLoop(t.sc, "http://"+addr, 0)
	defer ol.close()
	if _, err := ol.search(ctx, t.sc.Queries[0].Seq); err != nil { // dial
		return err
	}
	op := t.nextOp()
	_, end := t.rec.begin(0, op, "gateway.open_loop")
	run := ol.run(ctx, secs(t.seconds*gatewayShare), 0)
	end()
	t.gatewayMetrics(run, float64(counterSum(creg, "gw_shed_total")), float64(counterSum(creg, "gw_deadline_total")))
	return nil
}

// gatewayPhaseProcesses is serve_mixed's gateway phase: the real processes,
// their counters scraped from the serve process's /metrics.
func (t *tracedRun) gatewayPhaseProcesses(ctx context.Context, root string) error {
	d, err := deploy(ctx, root, t.sc)
	if err != nil {
		return err
	}
	defer d.stop()
	ol := newOpenLoop(t.sc, d.base, 0)
	defer ol.close()
	warm := ol.run(ctx, warmup(t.seconds), 0)
	ol.firstWrite = warm.nextWrite
	before, err := d.scrape()
	if err != nil {
		return err
	}
	op := t.nextOp()
	_, end := t.rec.begin(0, op, "gateway.open_loop")
	run := ol.run(ctx, secs(t.seconds*gatewayShare), 0)
	end()
	after, err := d.scrape()
	if err != nil {
		return err
	}
	delta := func(names ...string) float64 {
		sum := 0.0
		for _, n := range names {
			sum += after[n] - before[n]
		}
		return sum
	}
	t.gatewayMetrics(run, delta("gw_shed_total"), delta("gw_deadline_total"))
	searches := delta("search_total")
	if searches <= 0 {
		t.gatef("serve process counted no search (scrape: %v)", strings.Join(sortedKeys(after), " "))
		return nil
	}
	t.set("transport.bytes_per_query", delta("rpc_bytes_sent", "rpc_bytes_recv")/float64(len(run.outcomes)), len(run.outcomes))
	t.set("sketch.skipped_per_query", delta("prefilter_groups_skipped")/searches, int(searches))
	return nil
}

// printSelfTimes prints, per span name, the count and the summed self time
// (duration minus the part child spans cover).
func (t *tracedRun) printSelfTimes() {
	self, count := selfByName(t.rec.snapshot())
	fmt.Println("# harness spans: name, count, self time")
	for _, name := range sortedKeys(self) {
		fmt.Printf("#   %-28s %7d %12.3f ms\n", name, count[name], float64(self[name])/1e6)
	}
}
