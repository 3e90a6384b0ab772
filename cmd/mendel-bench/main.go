// Command mendel-bench drives a live `mendel serve` gateway open loop.
//
// Usage:
//
//	mendel-bench load [flags]
//
// load offers requests on a fixed arrival schedule to the gateway's HTTP
// endpoint, so it measures shed behaviour and goodput under overload rather
// than best-case latency. Performance claims are made with the benchmark
// ledger (bash benchmark/run.sh), not with this command.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"mendel/internal/loadgen"
	"mendel/internal/seq"
)

func main() {
	if len(os.Args) < 2 || os.Args[1] != "load" {
		fmt.Fprintln(os.Stderr, "usage: mendel-bench load [flags]")
		os.Exit(2)
	}
	runLoad(os.Args[2:])
}

// runLoad is the `mendel-bench load` subcommand: an open-loop load run
// against a live `mendel serve` gateway, writing its JSON result with -json.
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
