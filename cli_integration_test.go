package mendel

// End-to-end test of the shipped binaries: mendel-datagen generates a FASTA
// database, two mendel-node daemons serve storage over TCP, and the mendel
// CLI indexes, queries, inspects stats, and — after the nodes checkpoint
// to disk and restart — queries again without re-indexing.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

func buildTool(t *testing.T, dir, pkg string) string {
	t.Helper()
	bin := filepath.Join(dir, filepath.Base(pkg))
	cmd := exec.Command("go", "build", "-o", bin, pkg)
	cmd.Dir = "."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building %s: %v\n%s", pkg, err, out)
	}
	return bin
}

// startNode launches a mendel-node daemon and returns its bound address and
// a stopper that delivers SIGTERM and waits for exit. When the daemon runs
// with -metrics-addr it announces the metrics URL before the listen line;
// startNodeMetrics exposes it.
func startNode(t *testing.T, bin string, args ...string) (string, func()) {
	t.Helper()
	addr, _, stop := startNodeMetrics(t, bin, args...)
	return addr, stop
}

func startNodeMetrics(t *testing.T, bin string, args ...string) (string, string, func()) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(stdout)
	addr, metricsURL := "", ""
	deadline := time.After(10 * time.Second)
	lineCh := make(chan string, 4)
	go func() {
		for sc.Scan() {
			lineCh <- sc.Text()
		}
		close(lineCh)
	}()
	for addr == "" {
		select {
		case line, ok := <-lineCh:
			if !ok {
				t.Fatal("mendel-node exited before announcing its address")
			}
			if strings.Contains(line, "metrics on ") {
				metricsURL = strings.TrimSpace(line[strings.Index(line, "metrics on ")+len("metrics on "):])
				metricsURL = strings.TrimSuffix(metricsURL, "/metrics")
			}
			if strings.Contains(line, "listening on ") {
				addr = strings.TrimSpace(line[strings.Index(line, "listening on ")+len("listening on "):])
			}
		case <-deadline:
			cmd.Process.Kill()
			t.Fatal("timed out waiting for mendel-node to start")
		}
	}
	go func() {
		for range lineCh {
		}
	}()
	stop := func() {
		cmd.Process.Signal(syscall.SIGTERM)
		done := make(chan error, 1)
		go func() { done <- cmd.Wait() }()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			cmd.Process.Kill()
			<-done
		}
	}
	return addr, metricsURL, stop
}

func runTool(t *testing.T, bin string, args ...string) string {
	t.Helper()
	cmd := exec.Command(bin, args...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%s %s: %v\n%s", filepath.Base(bin), strings.Join(args, " "), err, out)
	}
	return string(out)
}

// runToolFor runs a long-lived command (watch loops) for roughly d, then
// stops it with SIGTERM — the loops exit cleanly on it — and returns the
// combined output produced so far.
func runToolFor(t *testing.T, d time.Duration, bin string, args ...string) string {
	t.Helper()
	cmd := exec.Command(bin, args...)
	var buf bytes.Buffer
	cmd.Stdout = &buf
	cmd.Stderr = &buf
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(d)
	cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("%s %s: %v\n%s", filepath.Base(bin), strings.Join(args, " "), err, buf.String())
		}
	case <-time.After(10 * time.Second):
		cmd.Process.Kill()
		<-done
		t.Fatalf("%s %s ignored SIGTERM\n%s", filepath.Base(bin), strings.Join(args, " "), buf.String())
	}
	return buf.String()
}

func TestCLIEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries and spawns processes")
	}
	dir := t.TempDir()
	nodeBin := buildTool(t, dir, "./cmd/mendel-node")
	cliBin := buildTool(t, dir, "./cmd/mendel")
	genBin := buildTool(t, dir, "./cmd/mendel-datagen")

	// Dataset: 30 proteins of ~400 residues, plus 2 mutated queries.
	dbFasta := filepath.Join(dir, "nr.fasta")
	runTool(t, genBin, "-kind", "protein", "-n", "30", "-len", "400", "-out", dbFasta)
	queryFasta := filepath.Join(dir, "q.fasta")
	runTool(t, genBin, "-kind", "protein", "-queries-from", dbFasta,
		"-n", "2", "-len", "120", "-sub", "0.05", "-indel", "0.0", "-out", queryFasta)

	// Two storage nodes with snapshot files.
	snap1 := filepath.Join(dir, "n1.snap")
	snap2 := filepath.Join(dir, "n2.snap")
	addr1, stop1 := startNode(t, nodeBin, "-addr", "127.0.0.1:0", "-data", snap1)
	addr2, stop2 := startNode(t, nodeBin, "-addr", "127.0.0.1:0", "-data", snap2)

	manifest := filepath.Join(dir, "cluster.mendel")
	out := runTool(t, cliBin, "index",
		"-nodes", addr1+","+addr2, "-groups", "2", "-kind", "protein",
		"-fasta", dbFasta, "-manifest", manifest)
	if !strings.Contains(out, "indexed 30 sequences") {
		t.Fatalf("index output:\n%s", out)
	}

	out = runTool(t, cliBin, "stats", "-manifest", manifest)
	if !strings.Contains(out, "2 nodes") || !strings.Contains(out, "30 sequences") {
		t.Fatalf("stats output:\n%s", out)
	}

	out = runTool(t, cliBin, "query", "-manifest", manifest, "-fasta", queryFasta)
	if !strings.Contains(out, "hits in") {
		t.Fatalf("query output:\n%s", out)
	}
	if strings.Contains(out, ": 0 hits") {
		t.Fatalf("query found nothing:\n%s", out)
	}

	// Checkpoint both nodes (SIGTERM writes snapshots) ...
	stop1()
	stop2()
	if fi, err := os.Stat(snap1); err != nil || fi.Size() == 0 {
		t.Fatalf("snapshot 1 missing: %v", err)
	}

	// ... restart on the SAME addresses and query without re-indexing.
	addr1b, stop1b := startNode(t, nodeBin, "-addr", addr1, "-data", snap1)
	defer stop1b()
	addr2b, stop2b := startNode(t, nodeBin, "-addr", addr2, "-data", snap2)
	defer stop2b()
	if addr1b != addr1 || addr2b != addr2 {
		t.Fatalf("restart changed addresses: %s %s", addr1b, addr2b)
	}
	out = runTool(t, cliBin, "query", "-manifest", manifest, "-fasta", queryFasta)
	if strings.Contains(out, ": 0 hits") {
		t.Fatalf("restarted cluster lost data:\n%s", out)
	}
}

// TestCLIIndexIntoRestartedEmptyNodes pins the error path of extending a
// manifest whose nodes lost their state: the CLI must name the empty nodes
// and the way out instead of relaying a bare "not bootstrapped".
func TestCLIIndexIntoRestartedEmptyNodes(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries and spawns processes")
	}
	dir := t.TempDir()
	nodeBin := buildTool(t, dir, "./cmd/mendel-node")
	cliBin := buildTool(t, dir, "./cmd/mendel")
	genBin := buildTool(t, dir, "./cmd/mendel-datagen")
	dbFasta := filepath.Join(dir, "db.fasta")
	runTool(t, genBin, "-kind", "protein", "-n", "10", "-len", "300", "-out", dbFasta)

	addr1, stop1 := startNode(t, nodeBin, "-addr", "127.0.0.1:0")
	defer stop1()
	addr2, stop2 := startNode(t, nodeBin, "-addr", "127.0.0.1:0")
	manifest := filepath.Join(dir, "cluster.mendel")
	index := []string{"index", "-nodes", addr1 + "," + addr2, "-groups", "2", "-kind", "protein",
		"-fasta", dbFasta, "-manifest", manifest}
	runTool(t, cliBin, index...)

	// Node 2 comes back on its address with no -data: empty.
	stop2()
	_, stop2b := startNode(t, nodeBin, "-addr", addr2)
	defer stop2b()

	out, err := exec.Command(cliBin, index...).CombinedOutput()
	if err == nil {
		t.Fatalf("index into a half-empty cluster succeeded:\n%s", out)
	}
	for _, want := range []string{"not bootstrapped", "restarted empty: " + addr2, "mendel repair -manifest " + manifest, "fresh -manifest"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("index error lacks %q:\n%s", want, out)
		}
	}
	if strings.Contains(string(out), "manifest written") {
		t.Errorf("failed index rewrote the manifest:\n%s", out)
	}
}

// TestCLIObservability starts nodes with -metrics-addr, runs a query, and
// asserts the HTTP observability surface and the cluster-wide stats view
// both report the work: /metrics exposes RPC-server and search metrics,
// /debug/spans serves the node's span tree as JSON, and
// `mendel stats -metrics` merges every node's registry over the wire.
func TestCLIObservability(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries and spawns processes")
	}
	dir := t.TempDir()
	nodeBin := buildTool(t, dir, "./cmd/mendel-node")
	cliBin := buildTool(t, dir, "./cmd/mendel")
	genBin := buildTool(t, dir, "./cmd/mendel-datagen")

	dbFasta := filepath.Join(dir, "nr.fasta")
	runTool(t, genBin, "-kind", "protein", "-n", "20", "-len", "300", "-out", dbFasta)
	queryFasta := filepath.Join(dir, "q.fasta")
	runTool(t, genBin, "-kind", "protein", "-queries-from", dbFasta,
		"-n", "1", "-len", "120", "-sub", "0.05", "-indel", "0.0", "-out", queryFasta)

	addr1, metrics1, stop1 := startNodeMetrics(t, nodeBin,
		"-addr", "127.0.0.1:0", "-metrics-addr", "127.0.0.1:0")
	defer stop1()
	addr2, metrics2, stop2 := startNodeMetrics(t, nodeBin,
		"-addr", "127.0.0.1:0", "-metrics-addr", "127.0.0.1:0")
	defer stop2()
	if metrics1 == "" {
		t.Fatal("mendel-node did not announce its metrics address")
	}

	manifest := filepath.Join(dir, "cluster.mendel")
	runTool(t, cliBin, "index",
		"-nodes", addr1+","+addr2, "-groups", "2", "-kind", "protein",
		"-fasta", dbFasta, "-manifest", manifest)
	out := runTool(t, cliBin, "query", "-manifest", manifest, "-fasta", queryFasta)
	if strings.Contains(out, ": 0 hits") {
		t.Fatalf("query found nothing:\n%s", out)
	}

	client := &http.Client{Timeout: 5 * time.Second}
	get := func(url string) string {
		resp, err := client.Get(url)
		if err != nil {
			t.Fatalf("GET %s: %v", url, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d\n%s", url, resp.StatusCode, body)
		}
		return string(body)
	}

	body := get(metrics1 + "/metrics")
	for _, want := range []string{"server_requests ", "node_local_searches ", "server_handle_ns_p95 "} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}

	body = get(metrics1 + "/debug/spans?format=json")
	var spans []json.RawMessage
	if err := json.Unmarshal([]byte(body), &spans); err != nil {
		t.Fatalf("/debug/spans JSON invalid: %v\n%s", err, body)
	}
	if len(spans) == 0 || !strings.Contains(body, `"group_search"`) && !strings.Contains(body, `"local_search"`) {
		t.Fatalf("/debug/spans has no search spans:\n%s", body)
	}

	out = runTool(t, cliBin, "stats", "-manifest", manifest, "-metrics")
	if !strings.Contains(out, "cluster metrics (2/2 nodes reporting") {
		t.Fatalf("stats -metrics header wrong:\n%s", out)
	}
	for _, want := range []string{"node_local_searches", "server_handle_ns", "p95="} {
		if !strings.Contains(out, want) {
			t.Errorf("stats -metrics missing %q:\n%s", want, out)
		}
	}

	// mendel explain: one fully-sampled query whose assembled cross-node
	// span tree is rendered as a table naming the storage nodes.
	out = runTool(t, cliBin, "explain", "-manifest", manifest, "-q", queryFasta)
	for _, want := range []string{"trace ", "STAGE", "local_search", "per-node:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("explain output missing %q:\n%s", want, out)
		}
	}
	if !strings.Contains(out, addr1) && !strings.Contains(out, addr2) {
		t.Fatalf("explain table names no storage node:\n%s", out)
	}
	traceID := ""
	for _, line := range strings.Split(out, "\n") {
		if rest, ok := strings.CutPrefix(line, "trace "); ok {
			traceID = strings.Fields(rest)[0]
		}
	}
	if len(traceID) != 32 {
		t.Fatalf("explain printed no 32-hex trace ID:\n%s", out)
	}

	// Every node the query touched retains its spans under that trace and
	// serves them at /debug/trace/{id}; at least one must have been touched.
	served := 0
	for _, base := range []string{metrics1, metrics2} {
		resp, err := client.Get(base + "/debug/trace/" + traceID)
		if err != nil {
			t.Fatalf("GET trace from node: %v", err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			served++
			if !strings.Contains(string(body), traceID[:8]) && !strings.Contains(string(body), "_search") {
				t.Errorf("node trace body unexpected:\n%s", body)
			}
		}
	}
	if served == 0 {
		t.Fatalf("no node serves /debug/trace/%s", traceID)
	}

	// -log-json: the query lands a structured record on stderr stamped with
	// its trace ID (shape pinned by obs.TestLogOutputShape).
	out = runTool(t, cliBin, "query", "-manifest", manifest, "-fasta", queryFasta, "-log-json")
	if !strings.Contains(out, `"msg":"query"`) || !strings.Contains(out, `"trace_id":"`) {
		t.Fatalf("-log-json produced no trace-correlated record:\n%s", out)
	}
}

// metricValue parses the plain-text /metrics format ("name value" lines)
// and returns the named reading, or fails the test if absent.
func metricValue(t *testing.T, body, name string) int64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		fields := strings.Fields(line)
		if len(fields) == 2 && fields[0] == name {
			v, err := strconv.ParseInt(fields[1], 10, 64)
			if err != nil {
				t.Fatalf("metric %s has non-integer value %q", name, fields[1])
			}
			return v
		}
	}
	t.Fatalf("metric %s not found in:\n%s", name, body)
	return 0
}

// TestCLIServeGateway exercises the full serving path over real TCP: two
// mendel-node daemons, `mendel index`, then `mendel serve` fronting the
// cluster with the HTTP gateway. Concurrent HTTP clients all get correct
// answers, /v1/status and /metrics agree with what the clients observed,
// and a short `mendel-bench load` read mix sustains traffic with zero
// non-shed errors, leaving the gateway counters consistent with its report.
func TestCLIServeGateway(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries and spawns processes")
	}
	dir := t.TempDir()
	nodeBin := buildTool(t, dir, "./cmd/mendel-node")
	cliBin := buildTool(t, dir, "./cmd/mendel")
	genBin := buildTool(t, dir, "./cmd/mendel-datagen")
	benchBin := buildTool(t, dir, "./cmd/mendel-bench")

	dbFasta := filepath.Join(dir, "nr.fasta")
	runTool(t, genBin, "-kind", "protein", "-n", "24", "-len", "400", "-out", dbFasta)

	addr1, stop1 := startNode(t, nodeBin, "-addr", "127.0.0.1:0")
	defer stop1()
	addr2, stop2 := startNode(t, nodeBin, "-addr", "127.0.0.1:0")
	defer stop2()

	manifest := filepath.Join(dir, "cluster.mendel")
	runTool(t, cliBin, "index",
		"-nodes", addr1+","+addr2, "-groups", "2", "-kind", "protein",
		"-fasta", dbFasta, "-manifest", manifest)

	// `mendel serve` announces its bound address with the same
	// "listening on" line mendel-node uses, so the node starter doubles
	// as the gateway starter.
	gwAddr, stopGW := startNode(t, cliBin, "serve",
		"-manifest", manifest, "-addr", "127.0.0.1:0",
		"-max-inflight", "8", "-max-queue", "32")
	defer stopGW()
	base := "http://" + gwAddr
	client := &http.Client{Timeout: 15 * time.Second}

	// Queries are exact windows of the generated database, so every one
	// must land at least one hit.
	f, err := os.Open(dbFasta)
	if err != nil {
		t.Fatal(err)
	}
	db, err := ReadFASTA(f, Protein)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	queries := make([]string, 8)
	for i := range queries {
		s := db.Seqs[i%len(db.Seqs)]
		queries[i] = string(s.Data[10:130])
	}

	const clients, perClient = 6, 4
	var (
		mu       sync.Mutex
		okCount  int
		hitTotal int
		wg       sync.WaitGroup
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < perClient; r++ {
				q := queries[(c+r)%len(queries)]
				body, _ := json.Marshal(map[string]any{"query": q, "max_hits": 5})
				resp, err := client.Post(base+"/v1/search", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Errorf("client %d: %v", c, err)
					return
				}
				data, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("client %d: status %d\n%s", c, resp.StatusCode, data)
					return
				}
				var sr struct {
					Hits []struct {
						Name  string  `json:"name"`
						Cigar string  `json:"cigar"`
						Bits  float64 `json:"bits"`
					} `json:"hits"`
				}
				if err := json.Unmarshal(data, &sr); err != nil {
					t.Errorf("client %d: bad response JSON: %v\n%s", c, err, data)
					return
				}
				if len(sr.Hits) == 0 {
					t.Errorf("client %d: exact database window found no hits", c)
					return
				}
				if sr.Hits[0].Cigar == "" || sr.Hits[0].Bits <= 0 {
					t.Errorf("client %d: degenerate top hit %+v", c, sr.Hits[0])
					return
				}
				mu.Lock()
				okCount++
				hitTotal += len(sr.Hits)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	if okCount != clients*perClient {
		t.Fatalf("%d/%d concurrent requests succeeded", okCount, clients*perClient)
	}

	// /v1/status reflects the indexed cluster and a drained gateway.
	resp, err := client.Get(base + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	var status struct {
		InFlight    int64  `json:"inflight"`
		MaxInFlight int    `json:"max_inflight"`
		Sequences   int    `json:"sequences"`
		Groups      int    `json:"groups"`
		Nodes       int    `json:"nodes"`
		Kind        string `json:"kind"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if status.Sequences != 24 || status.Groups != 2 || status.Nodes != 2 {
		t.Fatalf("status reports %d sequences / %d groups / %d nodes, want 24/2/2", status.Sequences, status.Groups, status.Nodes)
	}
	if status.MaxInFlight != 8 || status.InFlight != 0 {
		t.Fatalf("status admission view: inflight=%d max=%d, want 0/8", status.InFlight, status.MaxInFlight)
	}
	if status.Kind != "protein" {
		t.Fatalf("status kind = %q", status.Kind)
	}

	// The gateway's own counters agree exactly with what the clients saw.
	getMetrics := func() string {
		resp, err := client.Get(base + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /metrics: status %d", resp.StatusCode)
		}
		return string(body)
	}
	body := getMetrics()
	okBefore := metricValue(t, body, "gw_search_ok_total")
	if okBefore != int64(okCount) {
		t.Fatalf("gw_search_ok_total = %d, clients observed %d OK responses", okBefore, okCount)
	}
	if reqs := metricValue(t, body, "gw_requests_total"); reqs < int64(okCount) {
		t.Fatalf("gw_requests_total = %d < %d observed requests", reqs, okCount)
	}
	if v := metricValue(t, body, "gw_inflight"); v != 0 {
		t.Fatalf("gw_inflight = %d after drain", v)
	}

	// A short open-loop read mix against the live gateway: it must sustain
	// traffic with zero non-shed errors, and the gateway counter delta must
	// match the harness's own accounting.
	benchJSON := filepath.Join(dir, "bench_load.json")
	out := runTool(t, benchBin, "load",
		"-url", base, "-rate", "40", "-duration", "2s", "-mix", "read",
		"-qlen", "64", "-seed", "1", "-json", benchJSON)
	if !strings.Contains(out, "sent") {
		t.Fatalf("bench load output:\n%s", out)
	}
	data, err := os.ReadFile(benchJSON)
	if err != nil {
		t.Fatal(err)
	}
	var load struct {
		Sent         int64   `json:"sent"`
		OK           int64   `json:"ok"`
		Shed         int64   `json:"shed"`
		Deadline     int64   `json:"deadline"`
		Errors       int64   `json:"errors"`
		SustainedQPS float64 `json:"sustained_qps"`
		P95Ms        float64 `json:"p95_ms"`
	}
	if err := json.Unmarshal(data, &load); err != nil {
		t.Fatalf("bench JSON artifact: %v\n%s", err, data)
	}
	if load.Sent < 40 || load.OK == 0 {
		t.Fatalf("load harness barely ran: %+v", load)
	}
	if load.Errors != 0 {
		t.Fatalf("%d non-shed errors from live gateway under read mix:\n%s", load.Errors, data)
	}
	if load.SustainedQPS <= 0 || load.P95Ms <= 0 {
		t.Fatalf("degenerate load result: %+v", load)
	}
	okAfter := metricValue(t, getMetrics(), "gw_search_ok_total")
	if okAfter-okBefore != load.OK {
		t.Fatalf("gateway counted %d successful searches during load, harness counted %d", okAfter-okBefore, load.OK)
	}
}

// TestCLITelemetryDashboard exercises the windowed-telemetry surface over
// real TCP processes: mendel-node samplers answer the coordinator's history
// pulls, `mendel serve` exposes /metrics/history and /debug/slo, and the
// dashboards — `mendel top -once` over both transports and
// `mendel stats -watch` — render live cluster state from the same rings.
func TestCLITelemetryDashboard(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries and spawns processes")
	}
	dir := t.TempDir()
	nodeBin := buildTool(t, dir, "./cmd/mendel-node")
	cliBin := buildTool(t, dir, "./cmd/mendel")
	genBin := buildTool(t, dir, "./cmd/mendel-datagen")

	dbFasta := filepath.Join(dir, "nr.fasta")
	runTool(t, genBin, "-kind", "protein", "-n", "20", "-len", "300", "-out", dbFasta)
	queryFasta := filepath.Join(dir, "q.fasta")
	runTool(t, genBin, "-kind", "protein", "-queries-from", dbFasta,
		"-n", "2", "-len", "120", "-sub", "0.05", "-indel", "0.0", "-out", queryFasta)

	// Fast sampling so the rings fill within the test's patience.
	addr1, stop1 := startNode(t, nodeBin, "-addr", "127.0.0.1:0", "-sample-interval", "100ms")
	defer stop1()
	addr2, stop2 := startNode(t, nodeBin, "-addr", "127.0.0.1:0", "-sample-interval", "100ms")
	defer stop2()

	manifest := filepath.Join(dir, "cluster.mendel")
	runTool(t, cliBin, "index",
		"-nodes", addr1+","+addr2, "-groups", "2", "-kind", "protein",
		"-fasta", dbFasta, "-manifest", manifest)

	gwAddr, stopGW := startNode(t, cliBin, "serve",
		"-manifest", manifest, "-addr", "127.0.0.1:0",
		"-sample-interval", "100ms",
		"-slo-p95", "10s", "-slo-shed-rate", "0.5", "-slo-fast", "2s", "-slo-slow", "5s")
	defer stopGW()
	base := "http://" + gwAddr
	client := &http.Client{Timeout: 5 * time.Second}

	// Light traffic through the gateway so the windows hold real activity.
	for i := 0; i < 4; i++ {
		body := []byte(`{"query":"` + strings.Repeat("ACDEFGHIKL", 8) + `","max_hits":3}`)
		resp, err := client.Post(base+"/v1/search", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	// /metrics/history: the coordinator merges its own ring with the nodes'.
	// Poll until a few samples land (the sampler ticks every 100ms).
	var ch struct {
		Merged struct {
			Points []json.RawMessage
		}
		Nodes []struct{ Node string }
		Down  []string
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := client.Get(base + "/metrics/history?window=30s&nodes=1")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /metrics/history: status %d\n%s", resp.StatusCode, body)
		}
		if cc := resp.Header.Get("Cache-Control"); cc != "no-store" {
			t.Fatalf("/metrics/history Cache-Control = %q, want no-store", cc)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "application/json") {
			t.Fatalf("/metrics/history Content-Type = %q", ct)
		}
		if err := json.Unmarshal(body, &ch); err != nil {
			t.Fatalf("/metrics/history JSON invalid: %v\n%s", err, body)
		}
		if len(ch.Merged.Points) >= 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("history never filled: %d points\n%s", len(ch.Merged.Points), body)
		}
		time.Sleep(100 * time.Millisecond)
	}
	if len(ch.Down) != 0 {
		t.Fatalf("down nodes reported: %v", ch.Down)
	}
	// Per-node breakdown: both storage nodes plus the coordinator's own ring.
	names := map[string]bool{}
	for _, n := range ch.Nodes {
		names[n.Node] = true
	}
	if !names[addr1] || !names[addr2] || !names["coordinator"] {
		t.Fatalf("per-node breakdown = %v, want both nodes + coordinator", names)
	}

	// /debug/slo: configured objectives evaluated, healthy traffic → ok.
	resp, err := client.Get(base + "/debug/slo")
	if err != nil {
		t.Fatal(err)
	}
	sloBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/slo: status %d\n%s", resp.StatusCode, sloBody)
	}
	if cc := resp.Header.Get("Cache-Control"); cc != "no-store" {
		t.Fatalf("/debug/slo Cache-Control = %q, want no-store", cc)
	}
	var slo struct {
		Level      string
		Objectives []struct{ Name string }
	}
	if err := json.Unmarshal(sloBody, &slo); err != nil {
		t.Fatalf("/debug/slo JSON invalid: %v\n%s", err, sloBody)
	}
	if slo.Level != "ok" {
		t.Fatalf("healthy cluster SLO level = %q, want ok\n%s", slo.Level, sloBody)
	}
	if len(slo.Objectives) != 2 {
		t.Fatalf("objectives = %d (%s), want p95 + shed_rate", len(slo.Objectives), sloBody)
	}

	// `mendel top -once` over HTTP: one frame with the cluster row, the
	// per-node table and the SLO section.
	out := runTool(t, cliBin, "top", "-once", "-url", base, "-window", "30s")
	for _, want := range []string{"mendel top — ", "cluster  qps=", "coalesce: ", "mean_size=", "wait_p95=", "NODE", "coordinator", "slo: OK", "search_p95"} {
		if !strings.Contains(out, want) {
			t.Fatalf("top -once -url output missing %q:\n%s", want, out)
		}
	}

	// `mendel top -once` over RPC: polls the node rings directly, no serve
	// process involved; both storage nodes must appear.
	out = runTool(t, cliBin, "top", "-once", "-manifest", manifest, "-window", "30s")
	if !strings.Contains(out, addr1) || !strings.Contains(out, addr2) {
		t.Fatalf("top -once -manifest names no storage node:\n%s", out)
	}

	// `mendel stats -watch` re-renders in place and adds the windowed view
	// from the same history rings.
	out = runToolFor(t, 1500*time.Millisecond, cliBin, "stats", "-manifest", manifest, "-watch", "300ms")
	if !strings.Contains(out, "2 nodes") {
		t.Fatalf("stats -watch lost the cumulative view:\n%s", out)
	}
	if !strings.Contains(out, "rps=") || !strings.Contains(out, "last 30s") {
		t.Fatalf("stats -watch missing the windowed section:\n%s", out)
	}
	if !strings.Contains(out, "\x1b[2J") {
		t.Fatalf("stats -watch never re-rendered in place:\n%s", out)
	}
}

// TestNodeServerHistoryShutdownGoroutines is the CLI-side goroutine-leak
// assertion: a NodeServer with the full observability stack attached —
// registry, default sampler from Observe, then a replacement sampler from
// StartHistory — must release every goroutine on Close. Guards the exact
// lifecycle mendel-node runs.
func TestNodeServerHistoryShutdownGoroutines(t *testing.T) {
	baseline := runtime.NumGoroutine()

	func() {
		srv, err := ServeNode("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		reg := NewMetricsRegistry()
		srv.Observe(reg, NewQueryTracer(0)) // auto-starts the default sampler
		series := srv.StartHistory(reg, TimeSeriesConfig{Interval: 5 * time.Millisecond, Capacity: 32})
		for series.Samples() < 3 {
			time.Sleep(time.Millisecond)
		}
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
	}()

	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		now := runtime.NumGoroutine()
		if now <= baseline+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: baseline %d, now %d\n%s", baseline, now, buf[:n])
		}
		time.Sleep(20 * time.Millisecond)
	}
}
