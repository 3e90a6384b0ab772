// Command mendel is the client CLI for a TCP Mendel cluster: it indexes
// FASTA data onto running mendel-node processes, saves the coordinator
// manifest, and evaluates alignment queries against a previously indexed
// cluster.
//
// Typical session (nodes started beforehand with cmd/mendel-node):
//
//	mendel index -nodes 127.0.0.1:7946,127.0.0.1:7947 -groups 2 \
//	    -kind protein -fasta nr.fasta -manifest cluster.mendel
//	mendel query -manifest cluster.mendel -fasta queries.fasta
//	mendel stats -manifest cluster.mendel
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"log/slog"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"text/tabwriter"
	"time"

	"mendel"
	"mendel/internal/seq"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "index":
		cmdIndex(os.Args[2:])
	case "query":
		cmdQuery(os.Args[2:])
	case "similarity":
		cmdSimilarity(os.Args[2:])
	case "explain":
		cmdExplain(os.Args[2:])
	case "stats":
		cmdStats(os.Args[2:])
	case "top":
		cmdTop(os.Args[2:])
	case "repair":
		cmdRepair(os.Args[2:])
	case "serve":
		cmdServe(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: mendel <command> [flags]

commands:
  index       fragment and index a FASTA file onto running storage nodes
  query       evaluate alignment queries against an indexed cluster
  similarity  rank indexed sequences by alignment-free MinHash Jaccard similarity
  explain     run one fully-traced query and render its cross-node span tree
  stats       print per-node storage statistics
  top         live cluster dashboard over the windowed telemetry
  repair      probe node health and run an anti-entropy repair pass
  serve       run a long-lived HTTP query gateway over an indexed cluster`)
	os.Exit(2)
}

// resilienceFlags registers the RPC resilience flags shared by every
// subcommand and returns a function assembling the config after parsing.
func resilienceFlags(fs *flag.FlagSet) func() mendel.ResilienceConfig {
	def := mendel.DefaultResilienceConfig()
	timeout := fs.Duration("rpc-timeout", def.CallTimeout, "per-RPC timeout (0 disables)")
	retries := fs.Int("rpc-retries", def.MaxRetries, "retries per RPC on unreachable nodes")
	trip := fs.Int("breaker-trip", def.TripAfter, "consecutive failures that trip a node's circuit breaker (0 disables)")
	cooldown := fs.Duration("breaker-cooldown", def.Cooldown, "circuit breaker cooldown before a half-open probe")
	return func() mendel.ResilienceConfig {
		def.CallTimeout = *timeout
		def.MaxRetries = *retries
		def.TripAfter = *trip
		def.Cooldown = *cooldown
		return def
	}
}

func cmdIndex(args []string) {
	fs := flag.NewFlagSet("index", flag.ExitOnError)
	nodeList := fs.String("nodes", "", "comma-separated storage node addresses (required)")
	groups := fs.Int("groups", 2, "number of storage groups")
	kindName := fs.String("kind", "protein", "molecule kind: protein or dna")
	fasta := fs.String("fasta", "", "FASTA file with reference sequences (required)")
	manifest := fs.String("manifest", "cluster.mendel", "manifest file to create or extend")
	blockLen := fs.Int("block", 16, "inverted index block length w")
	replicas := fs.Int("replicas", 1, "copies of each block and sequence within its group (>= 2 enables hinted handoff and repair to survive node loss)")
	resilience := resilienceFlags(fs)
	fs.Parse(args)
	if *nodeList == "" && !fileExists(*manifest) {
		log.Fatal("mendel index: -nodes is required for a new cluster")
	}
	if *fasta == "" {
		log.Fatal("mendel index: -fasta is required")
	}

	kind := parseKind(*kindName)
	var cluster *mendel.Cluster
	var rpc *mendel.ResilientCaller
	if fileExists(*manifest) {
		cluster, rpc = loadManifest(*manifest, resilience())
	} else {
		cfg := mendel.DefaultConfig(kind)
		cfg.Groups = *groups
		cfg.BlockLen = *blockLen
		cfg.Replicas = *replicas
		nodes := strings.Split(*nodeList, ",")
		groupLists, err := splitGroups(nodes, *groups)
		if err != nil {
			log.Fatalf("mendel index: %v", err)
		}
		cluster, rpc, err = mendel.NewTCPClusterResilient(cfg, groupLists, resilience())
		if err != nil {
			log.Fatalf("mendel index: %v", err)
		}
	}

	f, err := os.Open(*fasta)
	if err != nil {
		log.Fatalf("mendel index: %v", err)
	}
	set, err := mendel.ReadFASTA(f, cluster.Config().Kind)
	f.Close()
	if err != nil {
		log.Fatalf("mendel index: %v", err)
	}
	start := time.Now()
	if err := cluster.Index(context.Background(), set); err != nil {
		// The reply of a node that lost its state after the manifest was
		// written; it crosses the wire as a string.
		if strings.Contains(err.Error(), "not bootstrapped") {
			log.Fatalf("mendel index: %v\n  %s describes an indexed cluster, but these nodes have restarted empty: %s\n  re-bootstrap and refill them with 'mendel repair -manifest %s', or start over with a fresh -manifest",
				err, *manifest, strings.Join(cluster.EmptyNodes(context.Background()), ", "), *manifest)
		}
		log.Fatalf("mendel index: %v", err)
	}
	fmt.Printf("indexed %d sequences (%d residues) in %v\n",
		set.Len(), set.TotalResidues(), time.Since(start).Round(time.Millisecond))

	out, err := os.Create(*manifest)
	if err != nil {
		log.Fatalf("mendel index: %v", err)
	}
	defer out.Close()
	if err := mendel.SaveManifest(cluster, out); err != nil {
		log.Fatalf("mendel index: %v", err)
	}
	fmt.Printf("manifest written to %s\n", *manifest)
	if st := rpc.Stats(); st.Retries > 0 || st.Trips > 0 {
		fmt.Printf("rpc: %s\n", st)
	}
}

func cmdQuery(args []string) {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	manifest := fs.String("manifest", "cluster.mendel", "manifest file from 'mendel index'")
	fasta := fs.String("fasta", "", "FASTA file with query sequences")
	inline := fs.String("seq", "", "inline query sequence")
	maxHits := fs.Int("max-hits", 10, "hits to print per query")
	maxE := fs.Float64("evalue", 10, "expectation value threshold E")
	step := fs.Int("step", 0, "sliding window step k (0 = block length)")
	neighbors := fs.Int("n", 12, "nearest neighbours per subquery")
	identity := fs.Float64("identity", 0.30, "identity threshold i")
	cscore := fs.Float64("cscore", 0.40, "consecutivity threshold c")
	matrixName := fs.String("matrix", "", "scoring matrix M (default by kind)")
	bothStrands := fs.Bool("strands", false, "also search the reverse complement (DNA clusters)")
	mask := fs.Bool("mask", false, "mask low-complexity query regions before searching")
	translated := fs.Bool("translated", false, "treat queries as DNA and search a protein cluster in all six reading frames (blastx-style)")
	trace := fs.Bool("trace", false, "print a per-stage execution trace for each query")
	prefilter := fs.String("prefilter", "bloom", "sketch group prefilter consulted before fan-out: bloom, minhash, or off (escape hatch)")
	metricsAddr := fs.String("metrics-addr", "", "host:port for the coordinator's HTTP observability endpoint (/metrics, /debug/spans, /debug/trace/{id}, /debug/pprof); empty disables")
	traceSample := fs.Float64("trace-sample", 1, "fraction of queries traced cluster-wide (head-based sampling; 0 disables distributed tracing)")
	logJSON := fs.Bool("log-json", false, "emit per-query structured JSON logs on stderr, stamped with the trace ID")
	resilience := resilienceFlags(fs)
	fs.Parse(args)

	cluster, rpc := loadManifest(*manifest, resilience())
	pm, err := mendel.ParsePrefilterMode(*prefilter)
	if err != nil {
		log.Fatalf("mendel query: %v", err)
	}
	cluster.SetPrefilterMode(pm)
	var logger *slog.Logger
	if *logJSON {
		logger = mendel.NewLogger(os.Stderr, slog.LevelInfo)
	}
	if *metricsAddr != "" || *logJSON {
		reg := mendel.NewMetricsRegistry()
		tracer := mendel.NewQueryTracer(0)
		cluster.SetObservability(reg, tracer)
		rpc.Register(reg)
		if *traceSample <= 0 {
			// The flag's 0 disables tracing; the config zero value means
			// trace-all, so map it to the explicit "off" rate.
			cluster.SetTraceSampleRate(-1)
		} else {
			cluster.SetTraceSampleRate(*traceSample)
		}
		if *metricsAddr != "" {
			// The observability endpoint doubles as the cluster health view:
			// a background monitor probes the nodes, replays hinted handoffs
			// to recovered ones, and backs /debug/health.
			hm := mendel.NewHealthMonitor(cluster, mendel.DefaultHealthConfig())
			hm.ObserveBreakers(rpc)
			go hm.Run(context.Background())
			_, bound, err := mendel.MetricsSurface{
				Registry: reg,
				Tracer:   tracer,
				Trace:    cluster.TraceSource(context.Background()),
				Health:   hm.Source(),
			}.Serve(*metricsAddr)
			if err != nil {
				log.Fatalf("mendel query: metrics endpoint: %v", err)
			}
			fmt.Printf("metrics on http://%s/metrics, health on http://%s/debug/health\n", bound, bound)
		}
	}
	params := mendel.DefaultParams()
	params.MaxE = *maxE
	params.Neighbors = *neighbors
	params.Identity = *identity
	params.CScore = *cscore
	if *step > 0 {
		params.Step = *step
	} else {
		params.Step = cluster.Config().BlockLen
	}
	if *matrixName != "" {
		params.Matrix = *matrixName
	} else if cluster.Config().Kind == mendel.DNA {
		params.Matrix = "DNA"
	}
	params.BothStrands = *bothStrands
	params.Mask = *mask

	queryKind := cluster.Config().Kind
	if *translated {
		queryKind = mendel.DNA
	}
	queries := mendel.NewSet(queryKind)
	switch {
	case *inline != "":
		if _, err := queries.Add("query", []byte(*inline)); err != nil {
			log.Fatalf("mendel query: %v", err)
		}
	case *fasta != "":
		f, err := os.Open(*fasta)
		if err != nil {
			log.Fatalf("mendel query: %v", err)
		}
		queries, err = mendel.ReadFASTA(f, queryKind)
		f.Close()
		if err != nil {
			log.Fatalf("mendel query: %v", err)
		}
	default:
		log.Fatal("mendel query: provide -seq or -fasta")
	}

	ctx := context.Background()
	for _, q := range queries.Seqs {
		start := time.Now()
		var hits []mendel.Hit
		var frames []int
		if *translated {
			thits, err := cluster.SearchTranslated(ctx, q.Data, params)
			if err != nil {
				log.Fatalf("mendel query: %s: %v", q.Name, err)
			}
			for _, th := range thits {
				hits = append(hits, th.Hit)
				frames = append(frames, th.Frame)
			}
			fmt.Printf("query %s (%d nt, six frames): %d hits in %v\n",
				q.Name, q.Len(), len(hits), time.Since(start).Round(time.Microsecond))
			if logger != nil {
				logger.Info("query",
					slog.String("query", q.Name),
					slog.Bool("translated", true),
					slog.Int("hits", len(hits)),
					slog.Duration("duration", time.Since(start)))
			}
		} else if *trace || *logJSON {
			var tr *mendel.SearchStats
			var err error
			hits, tr, err = cluster.SearchTrace(ctx, q.Data, params)
			if err != nil {
				log.Fatalf("mendel query: %s: %v", q.Name, err)
			}
			if *trace {
				fmt.Printf("query %s: %s\n", q.Name, tr)
			} else {
				fmt.Printf("query %s (%d residues): %d hits in %v\n",
					q.Name, q.Len(), len(hits), time.Since(start).Round(time.Microsecond))
			}
			if logger != nil {
				logger.Info("query",
					slog.String("query", q.Name),
					slog.Int("hits", len(hits)),
					slog.Duration("duration", time.Since(start)),
					slog.String("trace_id", tr.TraceID))
			}
		} else {
			var err error
			hits, err = cluster.Search(ctx, q.Data, params)
			if err != nil {
				log.Fatalf("mendel query: %s: %v", q.Name, err)
			}
			fmt.Printf("query %s (%d residues): %d hits in %v\n",
				q.Name, q.Len(), len(hits), time.Since(start).Round(time.Microsecond))
		}
		for i, h := range hits {
			if i >= *maxHits {
				fmt.Printf("  ... %d more\n", len(hits)-*maxHits)
				break
			}
			extra := ""
			if len(frames) == len(hits) {
				extra = fmt.Sprintf(" frame=%d", frames[i])
			} else if h.Strand == '-' {
				extra = " strand=-"
			}
			fmt.Printf("  %-20s bits=%6.1f E=%8.2g  q[%d:%d] s[%d:%d] %s%s\n",
				h.Name, h.Bits, h.E,
				h.Alignment.QStart, h.Alignment.QEnd,
				h.Alignment.SStart, h.Alignment.SEnd,
				h.Alignment.CIGAR(), extra)
		}
	}
	if *trace {
		fmt.Printf("rpc: %s\n", rpc.Stats())
	}
}

// cmdSimilarity ranks indexed sequences by alignment-free MinHash Jaccard
// similarity to each query — no fan-out, no alignment, just the coordinator's
// per-sequence signatures from the manifest. With -verify it becomes the CI
// recall gate's minhash leg: the stored signatures are checked bit-for-bit
// against ones recomputed from the reference FASTA, and every estimate is
// checked against the exact k-mer Jaccard within -bound.
func cmdSimilarity(args []string) {
	fs := flag.NewFlagSet("similarity", flag.ExitOnError)
	manifest := fs.String("manifest", "cluster.mendel", "manifest file from 'mendel index'")
	fasta := fs.String("fasta", "", "FASTA file with query sequences")
	inline := fs.String("seq", "", "inline query sequence")
	top := fs.Int("top", 10, "ranked sequences to print per query")
	verify := fs.String("verify", "", "reference FASTA the cluster was indexed from; check every MinHash estimate against the exact k-mer Jaccard")
	bound := fs.Float64("bound", 0.05, "max |estimate - exact| tolerated by -verify")
	resilience := resilienceFlags(fs)
	fs.Parse(args)

	cluster, _ := loadManifest(*manifest, resilience())
	kind := cluster.Config().Kind
	queries := mendel.NewSet(kind)
	switch {
	case *inline != "":
		if _, err := queries.Add("query", []byte(*inline)); err != nil {
			log.Fatalf("mendel similarity: %v", err)
		}
	case *fasta != "":
		f, err := os.Open(*fasta)
		if err != nil {
			log.Fatalf("mendel similarity: %v", err)
		}
		queries, err = mendel.ReadFASTA(f, kind)
		f.Close()
		if err != nil {
			log.Fatalf("mendel similarity: %v", err)
		}
	default:
		log.Fatal("mendel similarity: provide -seq or -fasta")
	}

	for _, q := range queries.Seqs {
		start := time.Now()
		hits, err := cluster.Similarity(q.Data, *top)
		if err != nil {
			log.Fatalf("mendel similarity: %s: %v", q.Name, err)
		}
		fmt.Printf("query %s (%d residues): %d candidates in %v\n",
			q.Name, q.Len(), len(hits), time.Since(start).Round(time.Microsecond))
		for _, h := range hits {
			fmt.Printf("  %-20s seq=%-6d jaccard=%.4f\n", h.Name, h.Seq, h.Jaccard)
		}
	}
	if *verify != "" {
		verifySimilarity(cluster, queries, *verify, *bound)
	}
}

// verifySimilarity is the minhash leg of the CI recall gate. It first proves
// the manifest's per-sequence signatures are exactly what the reference FASTA
// produces (so the estimates under test are the ones queries actually see),
// then bounds the estimation error of every query x reference pair against
// the exact k-mer Jaccard computed from the full distinct-hash sets.
func verifySimilarity(cluster *mendel.Cluster, queries *mendel.Set, refPath string, bound float64) {
	cfg := cluster.Config()
	f, err := os.Open(refPath)
	if err != nil {
		log.Fatalf("mendel similarity: %v", err)
	}
	refs, err := mendel.ReadFASTA(f, cfg.Kind)
	f.Close()
	if err != nil {
		log.Fatalf("mendel similarity: %v", err)
	}
	if refs.Len() != cluster.NumSequences() {
		log.Fatalf("mendel similarity: -verify FASTA holds %d sequences, cluster indexed %d",
			refs.Len(), cluster.NumSequences())
	}
	for _, r := range refs.Seqs {
		stored := cluster.SeqSketch(r.ID)
		recomputed := mendel.MinHashesOf(r.Data, cfg)
		if len(stored) != len(recomputed) {
			log.Fatalf("mendel similarity: stored sketch of seq %d (%s) has %d hashes, recomputed %d — is %s the indexed corpus?",
				r.ID, r.Name, len(stored), len(recomputed), refPath)
		}
		for i := range stored {
			if stored[i] != recomputed[i] {
				log.Fatalf("mendel similarity: stored sketch of seq %d (%s) diverges from the reference FASTA at hash %d",
					r.ID, r.Name, i)
			}
		}
	}

	var maxErr float64
	var worstQ, worstR string
	pairs := 0
	for _, q := range queries.Seqs {
		hits, err := cluster.Similarity(q.Data, 0)
		if err != nil {
			log.Fatalf("mendel similarity: %s: %v", q.Name, err)
		}
		est := make(map[mendel.SequenceID]float64, len(hits))
		for _, h := range hits {
			est[h.Seq] = h.Jaccard
		}
		for _, r := range refs.Seqs {
			exact := mendel.ExactJaccard(q.Data, r.Data, cfg)
			diff := est[r.ID] - exact
			if diff < 0 {
				diff = -diff
			}
			pairs++
			if diff > maxErr {
				maxErr, worstQ, worstR = diff, q.Name, r.Name
			}
		}
	}
	fmt.Printf("verify: %d sequence sketches bit-identical to %s; max |estimate-exact| = %.4f over %d pairs",
		refs.Len(), refPath, maxErr, pairs)
	if maxErr > 0 {
		fmt.Printf(" (worst: %s vs %s)", worstQ, worstR)
	}
	fmt.Println()
	if maxErr > bound {
		log.Fatalf("mendel similarity: MinHash estimate error %.4f exceeds bound %.4f", maxErr, bound)
	}
}

// assembled cross-node span tree back from the whole cluster, and renders
// it as a per-stage table: what the coordinator did, which group entry
// points it fanned out to, and what every storage node spent its time on.
func cmdExplain(args []string) {
	fs := flag.NewFlagSet("explain", flag.ExitOnError)
	manifest := fs.String("manifest", "cluster.mendel", "manifest file from 'mendel index'")
	qFasta := fs.String("q", "", "FASTA file with the query sequence (the first record is explained)")
	inline := fs.String("seq", "", "inline query sequence")
	maxE := fs.Float64("evalue", 10, "expectation value threshold E")
	step := fs.Int("step", 0, "sliding window step k (0 = block length)")
	neighbors := fs.Int("n", 12, "nearest neighbours per subquery")
	identity := fs.Float64("identity", 0.30, "identity threshold i")
	cscore := fs.Float64("cscore", 0.40, "consecutivity threshold c")
	matrixName := fs.String("matrix", "", "scoring matrix M (default by kind)")
	jsonOut := fs.Bool("json", false, "print the assembled span tree as JSON instead of a table")
	resilience := resilienceFlags(fs)
	fs.Parse(args)

	cluster, rpc := loadManifest(*manifest, resilience())
	reg := mendel.NewMetricsRegistry()
	tracer := mendel.NewQueryTracer(0)
	cluster.SetObservability(reg, tracer)
	// Explain exists to show one query end to end; the head sampler must
	// not be allowed to skip it.
	cluster.SetTraceSampleRate(1)
	rpc.Register(reg)

	params := mendel.DefaultParams()
	params.MaxE = *maxE
	params.Neighbors = *neighbors
	params.Identity = *identity
	params.CScore = *cscore
	if *step > 0 {
		params.Step = *step
	} else {
		params.Step = cluster.Config().BlockLen
	}
	if *matrixName != "" {
		params.Matrix = *matrixName
	} else if cluster.Config().Kind == mendel.DNA {
		params.Matrix = "DNA"
	}

	queries := mendel.NewSet(cluster.Config().Kind)
	switch {
	case *inline != "":
		if _, err := queries.Add("query", []byte(*inline)); err != nil {
			log.Fatalf("mendel explain: %v", err)
		}
	case *qFasta != "":
		f, err := os.Open(*qFasta)
		if err != nil {
			log.Fatalf("mendel explain: %v", err)
		}
		queries, err = mendel.ReadFASTA(f, cluster.Config().Kind)
		f.Close()
		if err != nil {
			log.Fatalf("mendel explain: %v", err)
		}
	default:
		log.Fatal("mendel explain: provide -q or -seq")
	}
	if len(queries.Seqs) == 0 {
		log.Fatal("mendel explain: no query sequences")
	}
	q := queries.Seqs[0]
	if len(queries.Seqs) > 1 {
		fmt.Printf("explaining the first of %d queries\n", len(queries.Seqs))
	}

	ctx := context.Background()
	start := time.Now()
	hits, tr, err := cluster.SearchTrace(ctx, q.Data, params)
	if err != nil {
		log.Fatalf("mendel explain: %s: %v", q.Name, err)
	}
	fmt.Printf("query %s (%d residues): %d hits in %v\n",
		q.Name, q.Len(), len(hits), time.Since(start).Round(time.Microsecond))
	fmt.Printf("stages: %s\n", tr)
	if tr.TraceID == "" {
		log.Fatal("mendel explain: search produced no trace ID")
	}
	spans := cluster.FetchTrace(ctx, tr.TraceID)
	if len(spans) == 0 {
		log.Fatalf("mendel explain: no spans retained for trace %s", tr.TraceID)
	}
	fmt.Printf("trace %s (%d root spans)\n\n", tr.TraceID, len(spans))
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(spans); err != nil {
			log.Fatalf("mendel explain: %v", err)
		}
	} else {
		renderSpanTable(os.Stdout, spans)
		renderNodeSummary(os.Stdout, spans)
	}
	fmt.Printf("\nrpc: %s\n", rpc.Stats())
}

// renderSpanTable prints the assembled trace as an indented stage tree with
// one row per span: stage name, owning node, wall time, and the span's
// integer attributes (anchors in/out, bytes on the wire, RPC attempts, ...).
func renderSpanTable(w io.Writer, spans []mendel.SpanSnapshot) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "STAGE\tNODE\tDURATION\tDETAILS")
	var walk func(s mendel.SpanSnapshot, depth int)
	walk = func(s mendel.SpanSnapshot, depth int) {
		node := s.Node
		if node == "" {
			node = "coordinator"
		}
		fmt.Fprintf(tw, "%s%s\t%s\t%v\t%s\n",
			strings.Repeat("  ", depth), s.Name, node,
			time.Duration(s.NS).Round(time.Microsecond), formatSpanAttrs(s.Attrs))
		for _, c := range s.Children {
			walk(c, depth+1)
		}
	}
	for _, s := range spans {
		walk(s, 0)
	}
	tw.Flush()
}

// renderNodeSummary rolls the tree up per storage node: how long each node
// spent answering this query (local_search + fetch_region spans), how many
// keys it computed a distance for, and how many anchors it contributed.
func renderNodeSummary(w io.Writer, spans []mendel.SpanSnapshot) {
	type agg struct {
		spans   int
		busy    time.Duration
		visits  int64
		anchors int64
	}
	byNode := make(map[string]*agg)
	var walk func(s mendel.SpanSnapshot)
	walk = func(s mendel.SpanSnapshot) {
		if s.Node != "" && (s.Name == "local_search" || s.Name == "fetch_region") {
			a := byNode[s.Node]
			if a == nil {
				a = &agg{}
				byNode[s.Node] = a
			}
			a.spans++
			a.busy += time.Duration(s.NS)
			a.anchors += attrValue(s.Attrs, "anchors")
			for _, c := range s.Children {
				if c.Name == "knn" {
					a.visits += attrValue(c.Attrs, "visits")
				}
			}
		}
		for _, c := range s.Children {
			walk(c)
		}
	}
	for _, s := range spans {
		walk(s)
	}
	if len(byNode) == 0 {
		return
	}
	nodes := make([]string, 0, len(byNode))
	for n := range byNode {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	fmt.Fprintln(w, "\nper-node:")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "NODE\tSPANS\tBUSY\tTREE VISITS\tANCHORS")
	for _, n := range nodes {
		a := byNode[n]
		fmt.Fprintf(tw, "%s\t%d\t%v\t%d\t%d\n",
			n, a.spans, a.busy.Round(time.Microsecond), a.visits, a.anchors)
	}
	tw.Flush()
}

// formatSpanAttrs renders span attributes as key=value pairs, showing
// nanosecond-suffixed attributes as durations.
func formatSpanAttrs(attrs []mendel.SpanAttr) string {
	parts := make([]string, 0, len(attrs))
	for _, a := range attrs {
		if strings.HasSuffix(a.Key, "_ns") {
			parts = append(parts, fmt.Sprintf("%s=%v",
				strings.TrimSuffix(a.Key, "_ns"), time.Duration(a.Value).Round(time.Microsecond)))
			continue
		}
		parts = append(parts, fmt.Sprintf("%s=%d", a.Key, a.Value))
	}
	return strings.Join(parts, " ")
}

func attrValue(attrs []mendel.SpanAttr, key string) int64 {
	for _, a := range attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return 0
}

func cmdStats(args []string) {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	manifest := fs.String("manifest", "cluster.mendel", "manifest file from 'mendel index'")
	showMetrics := fs.Bool("metrics", false, "also aggregate observability metrics cluster-wide")
	watch := fs.Duration("watch", 0, "re-poll and re-render in place every interval (0 prints once); adds windowed qps/latency from the nodes' history rings")
	resilience := resilienceFlags(fs)
	fs.Parse(args)
	cluster, _ := loadManifest(*manifest, resilience())
	printStats(cluster, *showMetrics, *watch > 0)
	if *watch <= 0 {
		return
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	tick := time.NewTicker(*watch)
	defer tick.Stop()
	for {
		select {
		case <-sig:
			fmt.Println()
			return
		case <-tick.C:
			fmt.Print("\x1b[2J\x1b[H")
			printStats(cluster, *showMetrics, true)
		}
	}
}

func printStats(cluster *mendel.Cluster, showMetrics, windowed bool) {
	stats, down, err := cluster.StatsDetailed(context.Background())
	if err != nil {
		log.Fatalf("mendel stats: %v", err)
	}
	sort.Slice(stats, func(i, j int) bool { return stats[i].Node < stats[j].Node })
	total := 0
	for _, s := range stats {
		total += s.Blocks
	}
	fmt.Printf("%d nodes, %d blocks, %d sequences, %d residues indexed\n",
		len(stats), total, cluster.NumSequences(), cluster.TotalResidues())
	for _, s := range stats {
		pct := 0.0
		if total > 0 {
			pct = 100 * float64(s.Blocks) / float64(total)
		}
		fmt.Printf("  %-22s blocks=%-8d (%5.2f%%) repo-seqs=%d\n", s.Node, s.Blocks, pct, s.Sequences)
	}
	sort.Strings(down)
	for _, addr := range down {
		fmt.Printf("  %-22s UNREACHABLE\n", addr)
	}
	if windowed {
		printWindowedStats(cluster)
	}
	if showMetrics {
		printClusterMetrics(cluster)
	}
}

// printWindowedStats renders the nodes' trailing-30s activity from their
// history rings — the watch-mode companion to the cumulative counters.
func printWindowedStats(cluster *mendel.Cluster) {
	const window = 30 * time.Second
	results, _, err := cluster.HistoryDetailed(context.Background(), window)
	if err != nil || len(results) == 0 {
		return
	}
	fmt.Printf("\nlast %v (start nodes with metrics enabled to populate):\n", window)
	sort.Slice(results, func(i, j int) bool { return results[i].Node < results[j].Node })
	var merged []mendel.MetricsHistory
	for _, r := range results {
		h := r.History
		if len(h.Points) == 0 {
			continue
		}
		merged = append(merged, h)
		fmt.Printf("  %-22s rps=%-8.1f search_p95=%-10v goroutines=%d\n",
			r.Node,
			h.Rate("server_requests", window),
			time.Duration(h.Quantile("node_local_search_ns", 0.95, window)).Round(10*time.Microsecond),
			h.GaugeLast("runtime_goroutines"))
	}
	if len(merged) > 1 {
		m := mendel.MergeMetricsHistories(merged...)
		fmt.Printf("  %-22s rps=%-8.1f search_p95=%-10v\n",
			"cluster",
			m.Rate("server_requests", window),
			time.Duration(m.Quantile("node_local_search_ns", 0.95, window)).Round(10*time.Microsecond))
	}
}

// printClusterMetrics collects every node's registry snapshot and prints
// the cluster-wide aggregate: counters summed, histograms merged bucket-wise
// so the quantiles reflect the whole deployment.
func printClusterMetrics(cluster *mendel.Cluster) {
	metrics, down, err := cluster.MetricsDetailed(context.Background())
	if err != nil {
		log.Fatalf("mendel stats: %v", err)
	}
	reporting := 0
	groups := make([][]mendel.MetricSnapshot, 0, len(metrics))
	for _, m := range metrics {
		if len(m.Metrics) > 0 {
			reporting++
		}
		groups = append(groups, m.Metrics)
	}
	merged := mendel.MergeMetricSnapshots(groups...)
	fmt.Printf("\ncluster metrics (%d/%d nodes reporting; start nodes with -metrics-addr to enable):\n",
		reporting, len(metrics))
	if len(down) > 0 {
		fmt.Printf("  %d nodes unreachable\n", len(down))
	}
	for _, s := range merged {
		if s.Kind == "histogram" {
			if strings.HasSuffix(s.Name, "_ns") {
				// Nanosecond histograms read better as durations.
				fmt.Printf("  %-28s count=%-8d p50=%-10v p95=%-10v p99=%-10v max=%v\n",
					s.Name, s.Count,
					time.Duration(s.Quantile(0.50)),
					time.Duration(s.Quantile(0.95)),
					time.Duration(s.Quantile(0.99)),
					time.Duration(s.Max))
			} else {
				fmt.Printf("  %-28s count=%-8d p50=%-10d p95=%-10d p99=%-10d max=%d\n",
					s.Name, s.Count,
					s.Quantile(0.50), s.Quantile(0.95), s.Quantile(0.99), s.Max)
			}
			continue
		}
		fmt.Printf("  %-28s %d\n", s.Name, s.Value)
	}
}

// cmdRepair probes every node, reports the health view, and — unless the
// probe is all that was asked for — runs one anti-entropy pass: missing
// block and sequence replicas are re-pushed between nodes until every item
// is back at full replication. The probe itself already performs recovery
// (re-bootstrap, topology re-push, hinted-handoff replay) for nodes that
// just returned.
func cmdRepair(args []string) {
	fs := flag.NewFlagSet("repair", flag.ExitOnError)
	manifest := fs.String("manifest", "cluster.mendel", "manifest file from 'mendel index'")
	checkOnly := fs.Bool("check", false, "only probe and print node health, skip the repair pass")
	jsonOut := fs.Bool("json", false, "print the health snapshot as JSON")
	resilience := resilienceFlags(fs)
	fs.Parse(args)

	cluster, rpc := loadManifest(*manifest, resilience())
	ctx := context.Background()
	hm := mendel.NewHealthMonitor(cluster, mendel.DefaultHealthConfig())
	hm.ObserveBreakers(rpc)
	hm.ProbeOnce(ctx)

	snap := hm.Snapshot()
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(snap); err != nil {
			log.Fatalf("mendel repair: %v", err)
		}
	} else {
		tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "NODE\tGROUP\tSTATE\tBOOTED\tHINTS")
		for _, n := range snap {
			fmt.Fprintf(tw, "%s\t%d\t%s\t%v\t%d\n", n.Addr, n.Group, n.State, n.Booted, n.HintsPending)
		}
		tw.Flush()
	}
	if *checkOnly {
		return
	}

	start := time.Now()
	rep, err := cluster.Repair(ctx)
	if err != nil {
		log.Fatalf("mendel repair: %v", err)
	}
	fmt.Printf("repair: %s\n", rep)
	if pending := cluster.HintsPending(); pending > 0 {
		fmt.Printf("warning: %d hinted-handoff items still pending (target nodes down?)\n", pending)
	}
	fmt.Printf("done in %v; rpc: %s\n", time.Since(start).Round(time.Millisecond), rpc.Stats())
}

// cmdServe runs the long-lived query gateway: many concurrent HTTP clients
// against one shared cluster, with admission control and per-tenant quotas.
// The API and the observability surface (/metrics, /debug/...) share the
// one listener.
func cmdServe(args []string) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	manifest := fs.String("manifest", "cluster.mendel", "manifest file from 'mendel index'")
	addr := fs.String("addr", "127.0.0.1:9090", "HTTP listen address (use :0 for a free port)")
	maxInflight := fs.Int("max-inflight", 16, "queries running concurrently")
	maxQueue := fs.Int("max-queue", 64, "admission queue length before shedding with 429")
	deadline := fs.Duration("deadline", 30*time.Second, "per-request deadline (queue wait + query)")
	tenantRate := fs.Float64("tenant-rate", 0, "per-tenant query rate limit, qps (0 disables quotas)")
	tenantBurst := fs.Int("tenant-burst", 8, "per-tenant token bucket capacity")
	maxHits := fs.Int("max-hits", 50, "hits returned per query")
	sample := fs.Float64("trace-sample", 0.01, "fraction of queries traced end to end")
	prefilter := fs.String("prefilter", "bloom", "sketch group prefilter consulted before fan-out: bloom, minhash, or off (escape hatch)")
	sampleEvery := fs.Duration("sample-interval", time.Second, "windowed telemetry sampling interval")
	historySamples := fs.Int("history-samples", 300, "telemetry ring capacity (samples retained)")
	sloP95 := fs.Duration("slo-p95", 0, "SLO: windowed p95 search latency objective (0 disables)")
	sloErrRate := fs.Float64("slo-error-rate", 0, "SLO: error-rate objective as a fraction of requests (0 disables)")
	sloShedRate := fs.Float64("slo-shed-rate", 0, "SLO: shed-rate objective as a fraction of requests (0 disables)")
	sloHintGrowth := fs.Float64("slo-hint-growth", 0, "SLO: hints_pending growth objective, items/sec (0 disables)")
	sloFast := fs.Duration("slo-fast", 30*time.Second, "SLO fast burn-rate window")
	sloSlow := fs.Duration("slo-slow", 5*time.Minute, "SLO slow burn-rate window")
	profileDir := fs.String("profile-dir", "", "directory for breach-triggered pprof CPU+heap profiles (empty disables capture)")
	resilience := resilienceFlags(fs)
	fs.Parse(args)

	cluster, rpc := loadManifest(*manifest, resilience())
	pm, err := mendel.ParsePrefilterMode(*prefilter)
	if err != nil {
		log.Fatalf("mendel serve: %v", err)
	}
	cluster.SetPrefilterMode(pm)
	reg := mendel.NewMetricsRegistry()
	tracer := mendel.NewQueryTracer(0)
	cluster.SetObservability(reg, tracer)
	cluster.SetTraceSampleRate(*sample)
	rpc.Register(reg)

	gw := mendel.NewGateway(cluster, mendel.GatewayConfig{
		MaxInFlight: *maxInflight,
		MaxQueue:    *maxQueue,
		Deadline:    *deadline,
		TenantRate:  *tenantRate,
		TenantBurst: *tenantBurst,
		MaxHits:     *maxHits,
	}, reg)

	ctx := context.Background()

	// Windowed telemetry: sample the registry (plus the runtime collector)
	// on -sample-interval into a -history-samples ring; the SLO watchdog
	// evaluates every sample and /metrics/history merges this local series
	// with the nodes' via the cluster history source.
	series := mendel.NewTimeSeries(reg, mendel.TimeSeriesConfig{
		Interval: *sampleEvery,
		Capacity: *historySamples,
	})
	series.SetNode("coordinator")
	series.AddCollector(mendel.NewRuntimeCollector(reg).Collect)
	objectives := mendel.GatewaySLOObjectives(*sloP95, *sloErrRate, *sloShedRate, *sloHintGrowth)
	watchdog := mendel.NewWatchdog(series, mendel.SLOConfig{
		Fast:       *sloFast,
		Slow:       *sloSlow,
		Objectives: objectives,
		Logger:     mendel.NewLogger(os.Stderr, slog.LevelInfo, slog.String("role", "serve")),
	})
	if *profileDir != "" {
		pc, err := mendel.NewProfileCapturer(mendel.ProfileConfig{Dir: *profileDir, CPUDuration: 2 * time.Second})
		if err != nil {
			log.Fatalf("mendel serve: %v", err)
		}
		watchdog.OnBreach(pc.OnBreach)
	}
	watchdog.Watch()
	seriesCtx, stopSeries := context.WithCancel(ctx)
	defer stopSeries()
	go series.Run(seriesCtx)

	surface := mendel.MetricsSurface{
		Registry: reg,
		Tracer:   tracer,
		Trace:    cluster.TraceSource(ctx),
		History:  series,
		Cluster:  cluster.HistorySource(ctx, series),
		SLO:      watchdog,
		Routes:   gw.Routes(),
	}
	srv, bound, err := surface.Serve(*addr)
	if err != nil {
		log.Fatalf("mendel serve: %v", err)
	}
	// The e2e test and scripts read this line to find the bound port.
	fmt.Printf("mendel serve: listening on %s\n", bound)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	shutdownCtx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	srv.Shutdown(shutdownCtx)
}

func loadManifest(path string, rc mendel.ResilienceConfig) (*mendel.Cluster, *mendel.ResilientCaller) {
	f, err := os.Open(path)
	if err != nil {
		log.Fatalf("mendel: opening manifest: %v", err)
	}
	defer f.Close()
	cluster, rpc, err := mendel.LoadManifestTCPResilient(f, rc)
	if err != nil {
		log.Fatalf("mendel: loading manifest: %v", err)
	}
	return cluster, rpc
}

func parseKind(name string) mendel.Kind {
	switch name {
	case "protein":
		return mendel.Protein
	case "dna":
		return mendel.DNA
	default:
		log.Fatalf("mendel: unknown kind %q", name)
		return seq.Protein
	}
}

func splitGroups(nodes []string, groups int) ([][]string, error) {
	if groups <= 0 || len(nodes) < groups {
		return nil, fmt.Errorf("%d nodes cannot fill %d groups", len(nodes), groups)
	}
	out := make([][]string, groups)
	for i, n := range nodes {
		out[i%groups] = append(out[i%groups], strings.TrimSpace(n))
	}
	return out, nil
}

func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}
