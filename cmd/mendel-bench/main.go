// Command mendel-bench regenerates the tables and figures of the paper's
// evaluation section (§VI) plus the ablations in DESIGN.md, printing each
// as a text table. See EXPERIMENTS.md for the expected shapes.
//
// Usage:
//
//	mendel-bench [flags] <experiment>
//	mendel-bench load [flags]
//
// where experiment is one of: table1, fig5, fig6a, fig6b, fig6c, fig6d,
// ablate-depth, ablate-tier2, ablate-insert, ablate-bucket, all. The load
// subcommand drives a live `mendel serve` gateway open loop. Performance
// claims are made with the benchmark ledger (bash benchmark/run.sh), not
// with this command.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"mendel/internal/bench"
	"mendel/internal/loadgen"
	"mendel/internal/seq"
	"mendel/internal/transport"
)

func main() {
	// The load harness drives a live gateway over HTTP and takes its own
	// flags, so it dispatches before the experiment flag set.
	if len(os.Args) > 1 && os.Args[1] == "load" {
		runLoad(os.Args[2:])
		return
	}
	nodes := flag.Int("nodes", 20, "storage nodes in the simulated cluster")
	groups := flag.Int("groups", 4, "storage node groups")
	dbSeqs := flag.Int("db", 400, "database sequences")
	seqLen := flag.Int("seqlen", 500, "mean database sequence length")
	queries := flag.Int("queries", 5, "queries per measurement point")
	seed := flag.Int64("seed", 1, "workload seed")
	latency := flag.Duration("latency", 0, "simulated per-message LAN latency (e.g. 1ms)")
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: mendel-bench [flags] <table1|fig5|fig6a|fig6b|fig6c|fig6d|ablate-depth|ablate-tier2|ablate-insert|ablate-bucket|all>")
		os.Exit(2)
	}
	scale := bench.Scale{
		Nodes:           *nodes,
		Groups:          *groups,
		DBSequences:     *dbSeqs,
		SeqLen:          *seqLen,
		QueriesPerPoint: *queries,
		Seed:            *seed,
	}
	if *latency > 0 {
		scale.Latency = transport.LatencyModel{Base: *latency, Jitter: *latency / 2}
	}

	run(flag.Arg(0), scale)
}

func run(name string, scale bench.Scale) {
	experiments := map[string]func(bench.Scale) (fmt.Stringer, error){
		"fig5": func(s bench.Scale) (fmt.Stringer, error) { return wrap(bench.RunFig5(s)) },
		"fig6a": func(s bench.Scale) (fmt.Stringer, error) {
			return wrap(bench.RunFig6a(s, nil))
		},
		"fig6b": func(s bench.Scale) (fmt.Stringer, error) {
			return wrap(bench.RunFig6b(s, nil, 1000))
		},
		"fig6c": func(s bench.Scale) (fmt.Stringer, error) {
			return wrap(bench.RunFig6c(s, nil, 400))
		},
		"fig6d": func(s bench.Scale) (fmt.Stringer, error) {
			return wrap(bench.RunFig6d(s, nil, 10, 1000))
		},
		"ablate-depth": func(s bench.Scale) (fmt.Stringer, error) {
			return wrap(bench.RunAblateDepth(s, nil))
		},
		"ablate-tier2": func(s bench.Scale) (fmt.Stringer, error) {
			return wrap(bench.RunAblateTier2(s))
		},
		"ablate-insert": func(s bench.Scale) (fmt.Stringer, error) {
			return wrap(bench.RunAblateInsert(s))
		},
		"ablate-bucket": func(s bench.Scale) (fmt.Stringer, error) {
			return wrap(bench.RunAblateBucket(s, nil))
		},
	}
	order := []string{"table1", "fig5", "fig6a", "fig6b", "fig6c", "fig6d",
		"ablate-depth", "ablate-tier2", "ablate-insert", "ablate-bucket"}

	runOne := func(id string) {
		if id == "table1" {
			fmt.Println(bench.TableI())
			return
		}
		exp, ok := experiments[id]
		if !ok {
			log.Fatalf("mendel-bench: unknown experiment %q", id)
		}
		start := time.Now()
		result, err := exp(scale)
		if err != nil {
			log.Fatalf("mendel-bench: %s: %v", id, err)
		}
		fmt.Println(result.String())
		fmt.Printf("(%s completed in %v)\n\n", id, time.Since(start).Round(time.Millisecond))
	}

	if name == "all" {
		for _, id := range order {
			runOne(id)
		}
		return
	}
	runOne(name)
}

// runLoad is the `mendel-bench load` subcommand: an open-loop load run
// against a live `mendel serve` gateway, writing its JSON result with
// -json. Unlike the closed-loop experiments above (which own their simulated
// cluster), load offers requests on a fixed arrival schedule to a real HTTP
// endpoint, so it measures shed behaviour and goodput under overload rather
// than best-case latency.
func runLoad(args []string) {
	fs := flag.NewFlagSet("load", flag.ExitOnError)
	url := fs.String("url", "http://127.0.0.1:9090", "gateway base URL")
	rate := fs.Float64("rate", 50, "target arrival rate, requests/sec")
	duration := fs.Duration("duration", 10*time.Second, "load duration")
	mix := fs.String("mix", "read", "workload mix: read, write, or burst")
	tenants := fs.Int("tenants", 1, "spread requests over N tenants")
	qlen := fs.Int("qlen", 64, "synthesized query length, residues")
	kind := fs.String("kind", "protein", "molecule kind: protein or dna")
	seed := fs.Int64("seed", 1, "workload seed")
	timeout := fs.Duration("timeout", 30*time.Second, "per-request timeout")
	jsonPath := fs.String("json", "", "write the JSON result to this file")
	failOnErr := fs.Bool("fail-on-errors", false, "exit non-zero on non-shed errors or zero successes (CI gate)")
	fs.Parse(args)

	res, err := loadgen.Run(context.Background(), loadgen.Config{
		URL:      *url,
		Rate:     *rate,
		Duration: *duration,
		Mix:      loadgen.Mix(*mix),
		Kind:     parseKind(*kind),
		QueryLen: *qlen,
		Tenants:  *tenants,
		Timeout:  *timeout,
		Seed:     *seed,
	})
	if err != nil {
		log.Fatalf("mendel-bench load: %v", err)
	}
	fmt.Println(res.String())
	if *jsonPath != "" {
		data, err := res.JSON()
		if err != nil {
			log.Fatalf("mendel-bench load: %v", err)
		}
		if err := os.WriteFile(*jsonPath, append(data, '\n'), 0o644); err != nil {
			log.Fatalf("mendel-bench load: %v", err)
		}
	}
	// Gate after the artifact is written, so a failing run still uploads.
	if *failOnErr && (res.Errors > 0 || res.OK == 0) {
		log.Fatalf("mendel-bench load: gate failed: %d non-shed errors, %d ok responses", res.Errors, res.OK)
	}
}

func parseKind(name string) seq.Kind {
	switch name {
	case "protein":
		return seq.Protein
	case "dna":
		return seq.DNA
	default:
		log.Fatalf("mendel-bench load: unknown kind %q", name)
		return seq.Protein
	}
}

// renderer adapts the bench Render methods to fmt.Stringer.
type renderer struct{ render func() string }

func (r renderer) String() string { return r.render() }

func wrap[T interface{ Render() string }](v T, err error) (fmt.Stringer, error) {
	if err != nil {
		return nil, err
	}
	return renderer{render: v.Render}, nil
}
