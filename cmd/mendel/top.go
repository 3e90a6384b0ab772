package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"text/tabwriter"
	"time"

	"mendel"
)

// cmdTop is the live cluster dashboard: it polls the windowed telemetry —
// either a serving process's /metrics/history + /debug/slo endpoints
// (-url) or the nodes directly over RPC (-manifest) — and re-renders
// per-node qps, windowed latency quantiles, the shed/deadline/error split,
// repair/hint activity, prefilter skip rate and SLO state in place.
// -once renders a single frame without clearing the screen, for scripts
// and CI artifacts.
func cmdTop(args []string) {
	fs := flag.NewFlagSet("top", flag.ExitOnError)
	url := fs.String("url", "", "base URL of a 'mendel serve' process (e.g. http://127.0.0.1:9090); polls /metrics/history and /debug/slo")
	manifest := fs.String("manifest", "", "manifest file from 'mendel index'; polls node histories over RPC instead of HTTP")
	interval := fs.Duration("interval", 2*time.Second, "refresh interval")
	window := fs.Duration("window", 30*time.Second, "trailing window for rates and quantiles")
	once := fs.Bool("once", false, "render one frame and exit (no screen clearing)")
	resilience := resilienceFlags(fs)
	fs.Parse(args)
	if (*url == "") == (*manifest == "") {
		log.Fatal("mendel top: provide exactly one of -url or -manifest")
	}

	var fetch func() (mendel.ClusterMetricsHistory, *mendel.SLOStatus, error)
	if *url != "" {
		base := strings.TrimSuffix(*url, "/")
		fetch = func() (mendel.ClusterMetricsHistory, *mendel.SLOStatus, error) {
			return fetchTopHTTP(base, *window)
		}
	} else {
		cluster, _ := loadManifest(*manifest, resilience())
		ctx := context.Background()
		fetch = func() (mendel.ClusterMetricsHistory, *mendel.SLOStatus, error) {
			results, down, err := cluster.HistoryDetailed(ctx, *window)
			if err != nil {
				return mendel.ClusterMetricsHistory{}, nil, err
			}
			histories := make([]mendel.MetricsHistory, 0, len(results))
			for _, r := range results {
				h := r.History
				if h.Node == "" {
					h.Node = r.Node
				}
				histories = append(histories, h)
			}
			ch := mendel.ClusterMetricsHistory{
				Merged: mendel.MergeMetricsHistories(histories...),
				Nodes:  histories,
				Down:   down,
			}
			return ch, nil, nil
		}
	}

	render := func() {
		ch, slo, err := fetch()
		if err != nil {
			fmt.Fprintf(os.Stderr, "mendel top: %v\n", err)
			if *once {
				os.Exit(1)
			}
			return
		}
		if !*once {
			fmt.Print("\x1b[2J\x1b[H") // clear screen, home cursor
		}
		renderTop(os.Stdout, ch, slo, *window)
	}

	render()
	if *once {
		return
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	tick := time.NewTicker(*interval)
	defer tick.Stop()
	for {
		select {
		case <-sig:
			fmt.Println()
			return
		case <-tick.C:
			render()
		}
	}
}

// fetchTopHTTP pulls one dashboard frame from a serving process.
func fetchTopHTTP(base string, window time.Duration) (mendel.ClusterMetricsHistory, *mendel.SLOStatus, error) {
	var ch mendel.ClusterMetricsHistory
	histURL := fmt.Sprintf("%s/metrics/history?window=%s&nodes=1", base, window)
	if err := getJSON(histURL, &ch); err != nil {
		return ch, nil, err
	}
	// /debug/slo 404s when the server runs without a watchdog; the
	// dashboard simply omits the SLO section then.
	var slo mendel.SLOStatus
	if err := getJSON(base+"/debug/slo", &slo); err == nil {
		return ch, &slo, nil
	}
	return ch, nil, nil
}

func getJSON(url string, v any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// renderTop draws one dashboard frame.
func renderTop(w io.Writer, ch mendel.ClusterMetricsHistory, slo *mendel.SLOStatus, window time.Duration) {
	m := ch.Merged
	now := time.Now().Format("15:04:05")
	if n := len(m.Points); n > 0 {
		now = m.Points[n-1].T.Format("15:04:05")
	}
	fmt.Fprintf(w, "mendel top — %s  window=%v  samples=%d", now, window, len(m.Points))
	if len(ch.Down) > 0 {
		fmt.Fprintf(w, "  DOWN: %s", strings.Join(ch.Down, ","))
	}
	fmt.Fprintln(w)

	// Cluster-wide serving row: the gateway metrics when a serve process is
	// in the mix, otherwise the coordinator search path.
	qpsName, latName := "gw_requests_total", "gw_search_ns"
	if m.CounterSum(qpsName, 0) == 0 && m.CounterSum("search_total", 0) > 0 {
		qpsName, latName = "search_total", "search_ns"
	}
	fmt.Fprintf(w, "\ncluster  qps=%.1f  p50=%v p95=%v p99=%v  shed=%.1f/s deadline=%.1f/s err=%.1f/s\n",
		m.Rate(qpsName, window),
		topDur(m.Quantile(latName, 0.50, window)),
		topDur(m.Quantile(latName, 0.95, window)),
		topDur(m.Quantile(latName, 0.99, window)),
		m.Rate("gw_shed_total", window),
		m.Rate("gw_deadline_total", window),
		m.Rate("gw_errors_total", window))
	skipped := m.CounterSum("prefilter_groups_skipped", window)
	fmt.Fprintf(w, "         hints_pending=%d  repair_moved=%.1f/s  prefilter_skips=%d (%.2f/query)\n",
		m.GaugeLast("hints_pending"),
		m.Rate("repair_blocks_moved", window),
		skipped, topRatio(skipped, m.CounterSum("search_total", window)))
	// What batching the fan-out buys (group subqueries per RPC) and what it
	// costs (how long a subquery was held for companions).
	fmt.Fprintf(w, "         coalesce: %.1f batches/s  mean_size=%.2f  wait_p95=%v\n",
		m.Rate("coalesce_batches", window),
		topRatio(m.CounterSum("coalesce_batched_queries", window), m.CounterSum("coalesce_batches", window)),
		topDur(m.Quantile("coalesce_wait_ns", 0.95, window)))

	if len(ch.Nodes) > 0 {
		fmt.Fprintln(w)
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "NODE\tQPS\tP50\tP95\tP99\tGOROUTINES\tHEAP\tGC/s")
		nodes := make([]mendel.MetricsHistory, len(ch.Nodes))
		copy(nodes, ch.Nodes)
		sort.Slice(nodes, func(i, j int) bool { return nodes[i].Node < nodes[j].Node })
		for _, nh := range nodes {
			qps := nh.Rate("server_requests", window)
			lat := "node_local_search_ns"
			if nh.HistCount(lat, window) == 0 && nh.HistCount("gw_search_ns", window) > 0 {
				lat = "gw_search_ns"
			}
			fmt.Fprintf(tw, "%s\t%.1f\t%v\t%v\t%v\t%d\t%s\t%.2f\n",
				nh.Node, qps,
				topDur(nh.Quantile(lat, 0.50, window)),
				topDur(nh.Quantile(lat, 0.95, window)),
				topDur(nh.Quantile(lat, 0.99, window)),
				nh.GaugeLast("runtime_goroutines"),
				topBytes(nh.GaugeLast("runtime_heap_bytes")),
				nh.Rate("runtime_gc_count", window))
		}
		tw.Flush()
	}

	if slo != nil {
		fmt.Fprintf(w, "\nslo: %s  (fast=%v slow=%v, %d transitions)\n",
			strings.ToUpper(slo.Level), slo.Fast, slo.Slow, slo.Transitions)
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "  OBJECTIVE\tLEVEL\tFAST\tSLOW\tTHRESHOLD")
		for _, o := range slo.Objectives {
			fmt.Fprintf(tw, "  %s\t%s\t%s\t%s\t%s\n",
				o.Name, o.Level,
				topObjVal(string(o.Kind), o.FastValue),
				topObjVal(string(o.Kind), o.SlowValue),
				topObjVal(string(o.Kind), o.Threshold))
		}
		tw.Flush()
	}
}

// topRatio is num/den, 0 while the window holds no den events.
func topRatio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

func topDur(ns int64) time.Duration {
	return time.Duration(ns).Round(10 * time.Microsecond)
}

func topBytes(b int64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.1fGiB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%dB", b)
	}
}

func topObjVal(kind string, v float64) string {
	switch kind {
	case "latency":
		return topDur(int64(v)).String()
	case "ratio":
		return fmt.Sprintf("%.2f%%", 100*v)
	default:
		return fmt.Sprintf("%.3g/s", v)
	}
}
