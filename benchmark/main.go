// Command benchmark is Mendel's one benchmark: four named workloads, ten
// end-to-end metrics from an untraced pass and the per-layer metrics from a
// separate traced pass, all generated from a seed and checked for
// correctness. See README.md in this directory and BENCHMARK.json at the
// repository root.
//
//	go run ./benchmark -workload query_short -seed 1 -seconds 15 -trace 0
//	go run ./benchmark -workload all -seed 1
//	go run ./benchmark -repeat 5
package main

import (
	"cmp"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"
)

// metricValue is one measured metric: its value and sample count. Its unit
// is declared once, in manifest.go.
type metricValue struct {
	Value float64
	N     int
}

// tally counts a pass's operations and collects its correctness-gate
// violations; any violation or failed operation makes the run incorrect.
type tally struct {
	attempted int
	failed    int
	gate      []string
}

func (t *tally) gatef(format string, args ...any) {
	if len(t.gate) < 20 { // the first few tell the story
		t.gate = append(t.gate, fmt.Sprintf(format, args...))
	}
}

// result is the last line a run prints: exactly these four keys.
type result struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]resultMetric `json:"metrics"`
}

type resultMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	workload := flag.String("workload", "all", "workload to run: query_short, query_long, ingest_bulk, serve_mixed, or all")
	seed := flag.Int64("seed", 1, "seed every input is generated from")
	seconds := flag.Float64("seconds", defaultSeconds, "length of the measured window")
	trace := flag.Int("trace", 0, "0: untraced pass, end-to-end metrics; 1: traced pass, per-layer metrics")
	repeat := flag.Int("repeat", 0, "run this many full sets (seeds seed, seed+1, ...) and report the spread of every end-to-end metric against its bound")
	sameSeed := flag.Bool("same-seed", false, "with -repeat: reuse one seed for every set, so counts must repeat exactly")
	flag.Parse()
	if flag.NArg() > 0 {
		fatalf("unexpected argument %q", flag.Arg(0))
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fatalf("-seconds must be positive and -trace 0 or 1")
	}

	root, err := repoRoot()
	if err != nil {
		fatalf("%v", err)
	}
	// Cancel on SIGINT/SIGTERM: every loop watches ctx, and every child
	// process and temp dir is released by deferred clean-up on the way out.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *repeat > 0 {
		os.Exit(runRepeat(ctx, root, *repeat, *seed, *seconds, *sameSeed))
	}
	names := []string{*workload}
	if *workload == "all" {
		names = workloadNames
	} else if !slices.Contains(workloadNames, *workload) {
		fatalf("unknown workload %q (want one of %s, or all)", *workload, strings.Join(workloadNames, ", "))
	}
	ok := true
	for _, name := range names {
		passes := []int{*trace}
		if *workload == "all" {
			passes = []int{0, 1} // traced pass after the untraced one
		}
		for _, tr := range passes {
			res, err := runOne(ctx, root, name, *seed, *seconds, tr)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", name, err)
				stop()
				os.Exit(1)
			}
			line, _ := json.Marshal(res)
			fmt.Println(string(line))
			ok = ok && res.Correct
		}
	}
	if !ok {
		os.Exit(1)
	}
}

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 20

// runOne runs one pass of one workload, prints its metrics by name with
// their units, and returns the result line.
func runOne(ctx context.Context, root, name string, seed int64, seconds float64, trace int) (*result, error) {
	fmt.Printf("# workload=%s pass=%s seed=%d seconds=%g nproc=%d GOMAXPROCS=%d\n",
		name, map[int]string{0: "untraced", 1: "traced"}[trace], seed, seconds, runtime.NumCPU(), runtime.GOMAXPROCS(0))
	start := time.Now()
	var (
		metrics map[string]metricValue
		tl      *tally
		want    []metricDef
	)
	if trace == 0 {
		var c *collector
		var err error
		switch name {
		case wQueryShort, wQueryLong:
			c, err = runQueryWorkload(ctx, name, seed, seconds)
		case wIngestBulk:
			c, err = runIngestWorkload(ctx, seed, seconds)
		default: // wServeMixed; main validated the name
			c, err = runServeWorkload(ctx, root, seed, seconds)
		}
		if err != nil {
			return nil, err
		}
		metrics, tl, want = c.metrics(), &c.tally, endToEnd
	} else {
		t, err := runTraced(ctx, root, name, seed, seconds)
		if err != nil {
			return nil, err
		}
		metrics, tl, want = t.metrics, &t.tally, perLayer
	}

	res := &result{Attempted: tl.attempted, Failed: tl.failed, Metrics: map[string]resultMetric{}}
	for _, d := range want {
		m, ok := metrics[d.Name]
		if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			tl.gatef("metric %s was not measured", d.Name)
			m.Value = 0
		}
		res.Metrics[d.Name] = resultMetric{Value: m.Value, Unit: d.Unit}
		fmt.Printf("%-34s %16.6g %-9s n=%d\n", d.Name, m.Value, d.Unit, m.N)
	}
	for n := range metrics {
		if _, ok := res.Metrics[n]; !ok {
			return nil, fmt.Errorf("harness emitted undeclared metric %q", n)
		}
	}
	for _, g := range tl.gate {
		fmt.Printf("# GATE FAILED: %s\n", g)
	}
	res.Correct = len(tl.gate) == 0 && tl.failed == 0
	fmt.Printf("# %s done in %.1fs: attempted=%d failed=%d correct=%v\n", name, time.Since(start).Seconds(), tl.attempted, tl.failed, res.Correct)
	return res, nil
}

// repoRoot finds the module root (the directory holding go.mod and
// cmd/mendel) from the working directory, so the harness can build the
// shipped binaries and keep its scratch files inside the checkout.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			if _, err := os.Stat(filepath.Join(dir, "cmd", "mendel")); err == nil {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no Mendel module root above the working directory")
		}
		dir = parent
	}
}

func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}
