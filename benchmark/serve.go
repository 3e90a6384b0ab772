package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"mendel"
	"mendel/internal/invindex"
)

// Fixed loopback ports. Block placement inside a group hashes node
// addresses onto a SHA-1 ring, so ephemeral ports would give every run a
// different layout, different per-node trees and a different recall; fixed
// addresses make a seed reproduce its counts exactly.
const (
	basePort  = 21700 // in-process nodes: basePort .. basePort+Nodes-1
	childPort = 21800 // mendel-node processes, then mendel serve
)

// child is one process of the shipped binaries.
type child struct {
	cmd  *exec.Cmd
	done chan struct{} // closed once Wait has returned
}

// deployment is the shipped binaries running as processes: sc.Nodes
// mendel-node, indexed by `mendel index`, fronted by `mendel serve`.
type deployment struct {
	dir      string
	children []*child
	nodePIDs []int
	servePID int
	base     string // gateway URL

	// indexBytes is the growth of the nodes' resident memory across
	// `mendel index`.
	indexBytes int64
}

// stop terminates every child (SIGTERM, then SIGKILL), waits for each to
// exit and removes the working directory. Safe on a partial deployment.
func (d *deployment) stop() {
	for i := len(d.children) - 1; i >= 0; i-- { // serve first, then nodes
		d.children[i].cmd.Process.Signal(syscall.SIGTERM)
	}
	for _, ch := range d.children {
		select {
		case <-ch.done:
		case <-time.After(5 * time.Second):
			ch.cmd.Process.Kill()
			<-ch.done
		}
	}
	d.children = nil
	os.RemoveAll(d.dir)
}

// start launches bin and returns the address it announced: both shipped
// servers print a line ending in "listening on <addr>" once bound.
func (d *deployment) start(bin string, args ...string) (*child, string, error) {
	const marker = "listening on"
	cmd := exec.Command(filepath.Join(d.dir, bin), args...)
	cmd.Dir = d.dir
	cmd.Stderr = io.Discard
	// A harness killed outright must not leave servers behind.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, "", err
	}
	if err := cmd.Start(); err != nil {
		return nil, "", err
	}
	ch := &child{cmd: cmd, done: make(chan struct{})}
	d.children = append(d.children, ch)
	lines := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		announced := false
		for sc.Scan() { // keep draining so the child never blocks on stdout
			if !announced && strings.Contains(sc.Text(), marker) {
				announced = true
				lines <- sc.Text()
			}
		}
		cmd.Wait()
		close(ch.done)
	}()
	select {
	case line := <-lines:
		return ch, line[strings.LastIndexByte(line, ' ')+1:], nil
	case <-ch.done:
		return nil, "", fmt.Errorf("%s exited before announcing its address", bin)
	case <-time.After(20 * time.Second):
		return nil, "", fmt.Errorf("%s did not announce its address within 20s", bin)
	}
}

// startOn starts a server on its fixed loopback port, falling back to a free
// one (with a warning: placement then differs from other runs of the seed)
// when the fixed port is taken.
func (d *deployment) startOn(port int, bin string, args ...string) (*child, string, error) {
	ch, addr, err := d.start(bin, append(args, "-addr", "127.0.0.1:"+strconv.Itoa(port))...)
	if err != nil {
		fmt.Printf("# WARNING: %s on port %d: %v; retrying on a free port, exact counts differ from other runs of this seed\n", bin, port, err)
		ch, addr, err = d.start(bin, append(args, "-addr", "127.0.0.1:0")...)
	}
	return ch, addr, err
}

// deploy is serve_mixed's whole set-up: build the two binaries, start the
// nodes, index the database through the CLI and start the gateway with all
// of its defaults.
func deploy(ctx context.Context, root string, sc *scenario) (*deployment, error) {
	if err := os.MkdirAll(filepath.Join(root, ".bench_build"), 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(filepath.Join(root, ".bench_build"), "serve-")
	if err != nil {
		return nil, err
	}
	d := &deployment{dir: dir}
	ok := false
	defer func() {
		if !ok {
			d.stop()
		}
	}()

	for _, bin := range []string{"mendel", "mendel-node"} {
		cmd := exec.CommandContext(ctx, "go", "build", "-o", filepath.Join(dir, bin), "./cmd/"+bin)
		cmd.Dir = root
		if out, err := cmd.CombinedOutput(); err != nil {
			return nil, fmt.Errorf("go build ./cmd/%s: %v\n%s", bin, err, out)
		}
	}

	fasta, err := os.Create(filepath.Join(dir, "db.fasta"))
	if err != nil {
		return nil, err
	}
	if err := mendel.WriteFASTA(fasta, sc.DB, 70); err != nil {
		return nil, err
	}
	if err := fasta.Close(); err != nil {
		return nil, err
	}

	var addrs []string
	for i := 0; i < sc.Nodes; i++ {
		ch, addr, err := d.startOn(childPort+i, "mendel-node")
		if err != nil {
			return nil, err
		}
		addrs = append(addrs, addr)
		d.nodePIDs = append(d.nodePIDs, ch.cmd.Process.Pid)
	}
	rssBefore := d.nodesRSS()
	index := exec.CommandContext(ctx, filepath.Join(dir, "mendel"), "index",
		"-nodes", strings.Join(addrs, ","), "-groups", strconv.Itoa(sc.Groups), "-kind", "protein",
		"-fasta", "db.fasta", "-manifest", "cluster.mendel")
	index.Dir = dir
	if out, err := index.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("mendel index: %v\n%s", err, out)
	}
	d.indexBytes = d.nodesRSS() - rssBefore

	ch, addr, err := d.startOn(childPort+sc.Nodes, "mendel", "serve", "-manifest", "cluster.mendel")
	if err != nil {
		return nil, err
	}
	d.servePID = ch.cmd.Process.Pid
	d.base = "http://" + addr

	// The cluster the gateway reports must be the database just indexed.
	var status struct {
		Sequences int `json:"sequences"`
		Residues  int `json:"residues"`
		Nodes     int `json:"nodes"`
	}
	resp, err := http.Get(d.base + "/v1/status")
	if err != nil {
		return nil, err
	}
	err = json.NewDecoder(resp.Body).Decode(&status)
	resp.Body.Close()
	if err != nil {
		return nil, fmt.Errorf("/v1/status: %w", err)
	}
	if status.Sequences != sc.DB.Len() || status.Residues != sc.Residues || status.Nodes != sc.Nodes {
		return nil, fmt.Errorf("/v1/status reports %+v, want %d sequences, %d residues, %d nodes", status, sc.DB.Len(), sc.Residues, sc.Nodes)
	}
	ok = true
	return d, nil
}

// nodesRSS sums the resident memory of the node processes.
func (d *deployment) nodesRSS() int64 {
	total := int64(0)
	for _, pid := range d.nodePIDs {
		rss, _ := procRSS(pid)
		total += rss
	}
	return total
}

// cpu sums the CPU time of every server process: the nodes and the gateway.
func (d *deployment) cpu() time.Duration {
	total := time.Duration(0)
	for _, pid := range append([]int{d.servePID}, d.nodePIDs...) {
		t, _ := procCPU(pid)
		total += t
	}
	return total
}

// scrape reads the gateway process's /metrics text into name -> value.
func (d *deployment) scrape() (map[string]float64, error) {
	resp, err := http.Get(d.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 2 {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			out[f[0]] = v
		}
	}
	return out, sc.Err()
}

// runServeWorkload is serve_mixed: an open loop of searches with a write
// every WriteEvery-th arrival against `mendel serve` running with all its
// defaults, so a changed default is measured without editing this file.
func runServeWorkload(ctx context.Context, root string, seed int64, seconds float64) (*collector, error) {
	c := newCollector(nil)
	var sc *scenario
	var d *deployment
	for i := 0; i < setupRepeats; i++ {
		if d != nil {
			d.stop()
		}
		t0 := time.Now()
		var err error
		if sc, err = buildScenario(wServeMixed, seed); err != nil {
			return nil, err
		}
		if d, err = deploy(ctx, root, sc); err != nil {
			return nil, err
		}
		c.setupS = append(c.setupS, time.Since(t0).Seconds())
		c.indexBytes = append(c.indexBytes, float64(d.indexBytes))
	}
	c.sc = sc
	defer d.stop()

	ol := newOpenLoop(sc, d.base, 0)
	defer ol.close()
	warm := ol.run(ctx, warmup(seconds), 0) // discarded, but its writes are real
	ol.firstWrite = warm.nextWrite
	cpu0 := d.cpu()
	run := ol.run(ctx, secs(seconds), 0)
	cpu := d.cpu() - cpu0
	run.book(c)
	// The servers' CPU is read from /proc in 10 ms ticks: one figure for
	// the whole window, not one per part.
	c.partCPU = []float64{ms(cpu) / float64(len(run.outcomes))}
	// The Index calls of this workload are its writes: the blocks of one
	// written sequence over the time the server reports spending on it.
	c.indexBlocks = invindex.BlockCount(writeLen, blockLen)
	for i := range run.outcomes {
		if o := &run.outcomes[i]; o.write && o.ok() {
			c.indexS = append(c.indexS, o.elapsedMS/1e3)
		}
	}
	if lag := percentile(run.lagMS, 95); lag > maxGenLagMS {
		c.gatef("open-loop generator ran late: p95 lag %.3f ms > %g ms, the offered load was not the stated one", lag, maxGenLagMS)
	}
	ol.selfQueries(ctx, c, 0, run.nextWrite)
	return c, ctx.Err()
}

// maxGenLagMS voids an open-loop run whose generator fired its arrivals
// later than this at the 95th percentile.
const maxGenLagMS = 1.0
