package main

import (
	"context"
	"time"

	"mendel"
	"mendel/internal/seq"
)

// setupRepeats is how many times a run performs its whole set-up; setup_s
// and the figures taken from set-up (index rate and size on the query
// workloads) are medians over them.
const setupRepeats = 5

// postWrites is how many single-sequence writes the in-process query
// workloads issue in all, each cluster's share after its read window
// closes, so write_p50_ms and the read-your-write gate exist on every
// workload without disturbing the exact work counts of the read window.
const postWrites = 120

// verifyPerOp is how many searches follow each bulk Index of ingest_bulk:
// they prove the fresh index answers, and give the query metrics a value
// on the write workload.
const verifyPerOp = 24

// collector accumulates one untraced pass.
type collector struct {
	tally
	sc *scenario

	queryMS []float64
	writeMS []float64
	issued  map[int]bool // query index -> issued at least once
	missed  map[int]bool // query index -> some issue did not find its source

	setupS      []float64
	indexS      []float64 // seconds per Index call
	indexBlocks int       // blocks one such Index call places
	indexBytes  []float64

	// The measured window is cut into windowParts parts. The metrics a
	// median over the whole window does not already protect — the tail, the
	// rate and the CPU per operation — are taken per part and reported as
	// the median over parts, so a stretch in which the host ran slower
	// moves them only when it covers most of the run.
	cur     part
	partP95 []float64 // query_p95_ms of each part
	partQPS []float64 // query_qps of each part
	partCPU []float64 // cpu_ms_per_op of each part
}

// windowParts is how many parts a measured window is cut into: the clusters
// of a query workload, fifths of the window elsewhere.
const windowParts = setupRepeats

// part accumulates the open part of the window.
type part struct {
	q0     int           // its searches are queryMS[q0:]
	window time.Duration // wall time those searches ran in
	cpu    time.Duration // CPU charged to ops operations
	ops    int
}

// endPart closes the open part and starts the next one.
func (c *collector) endPart() {
	if qs := c.queryMS[c.cur.q0:]; len(qs) > 0 && c.cur.window > 0 {
		c.partP95 = append(c.partP95, percentile(qs, 95))
		c.partQPS = append(c.partQPS, float64(len(qs))/c.cur.window.Seconds())
	}
	if c.cur.ops > 0 {
		c.partCPU = append(c.partCPU, ms(c.cur.cpu)/float64(c.cur.ops))
	}
	c.cur = part{q0: len(c.queryMS)}
}

func newCollector(sc *scenario) *collector {
	return &collector{sc: sc, issued: map[int]bool{}, missed: map[int]bool{}}
}

// setScenario binds the collector to the scenario its run generated; the
// Index calls it times are of the whole database unless the workload says
// otherwise.
func (c *collector) setScenario(sc *scenario) { c.sc, c.indexBlocks = sc, sc.Blocks }

// search books one search of cycle query i.
func (c *collector) search(i int, lat time.Duration, hits []hitRef, err error) {
	c.attempted++
	if err != nil {
		c.failed++
		c.gatef("search %d: %v", i, err)
		return
	}
	c.queryMS = append(c.queryMS, ms(lat))
	c.issued[i] = true
	if q := &c.sc.Queries[i]; q.Planted && !q.found(hits) {
		c.missed[i] = true
	}
}

// recall counts, over the distinct planted queries issued, those every
// issue of which found its source. Counting each distinct query once makes
// the figure independent of how many laps of the cycle fit in the window.
func (c *collector) recall(keep func(*query) bool) (found, total int) {
	for i := range c.sc.Queries {
		q := &c.sc.Queries[i]
		if !q.Planted || !c.issued[i] || !keep(q) {
			continue
		}
		total++
		if !c.missed[i] {
			found++
		}
	}
	return found, total
}

// metrics turns the pass into the ten end-to-end metrics and applies the
// recall gate: near-identical planted queries (>= 0.8 similarity) must find
// their source.
func (c *collector) metrics() map[string]metricValue {
	found, total := c.recall(func(*query) bool { return true })
	easy, easyTotal := c.recall(func(q *query) bool { return q.Stratum == "s90" || q.Stratum == "s80" })
	if easyTotal == 0 {
		c.gatef("no near-identical planted query was issued")
	} else if r := float64(easy) / float64(easyTotal); r < 0.98 {
		c.gatef("recall of near-identical planted queries %.3f < 0.98 (%d of %d)", r, easy, easyTotal)
	}
	if len(c.queryMS) == 0 || len(c.writeMS) == 0 || total == 0 {
		c.gatef("empty sample: %d searches, %d writes, %d planted", len(c.queryMS), len(c.writeMS), total)
	}
	blocksPerS := float64(c.indexBlocks) / median(c.indexS)
	return map[string]metricValue{
		"setup_s":                 {median(c.setupS), len(c.setupS)},
		"query_p50_ms":            {median(c.queryMS), len(c.queryMS)},
		"query_p95_ms":            {median(c.partP95), len(c.queryMS)},
		"query_qps":               {median(c.partQPS), len(c.queryMS)},
		"recall":                  {float64(found) / float64(total), total},
		"cpu_ms_per_op":           {median(c.partCPU), len(c.partCPU)},
		"ingest_blocks_per_s":     {blocksPerS, len(c.indexS)},
		"index_bytes_per_residue": {median(c.indexBytes) / float64(c.sc.Residues), len(c.indexBytes)},
		"write_p50_ms":            {median(c.writeMS), len(c.writeMS)},
		"success_frac":            {1 - float64(c.failed)/float64(c.attempted), c.attempted},
	}
}

// searchOnce runs cycle query i through Cluster.Search and books it.
func (c *collector) searchOnce(ctx context.Context, cl *mendel.Cluster, i int) {
	q := &c.sc.Queries[i]
	t0 := time.Now()
	hits, err := cl.Search(ctx, q.Seq, mendel.DefaultParams())
	c.search(i, time.Since(t0), refsOf(hits), err)
}

// runQueryWorkload is query_short and query_long: a closed loop of one
// client cycling the scenario's queries through Cluster.Search, with no
// registry and no tracer attached anywhere.
//
// The window is split evenly over the setupRepeats clusters the run sets up
// anyway. Where a cluster's trees happen to land in memory moves its median
// latency by several percent (measured: 9.4-10.2 ms across five clusters of
// one process, same seed), so a window on a single cluster would make the
// run-to-run spread that large; pooling five keeps it near 2 %. Each cluster's
// share is one part of the window.
func runQueryWorkload(ctx context.Context, name string, seed int64, seconds float64) (*collector, error) {
	c := newCollector(nil)
	next, written := 0, 0
	for epoch := 0; epoch < setupRepeats && ctx.Err() == nil; epoch++ {
		sc, res, took, err := setupLocal(ctx, name, seed, nil)
		if err != nil {
			return nil, err
		}
		c.setScenario(sc)
		c.setupS = append(c.setupS, took.Seconds())
		c.indexS = append(c.indexS, res.index.Seconds())
		c.indexBytes = append(c.indexBytes, float64(res.indexBytes))
		c.queryEpoch(ctx, res.lc.cluster, secs(seconds/setupRepeats), warmup(seconds)/setupRepeats, &next)
		c.writeEpoch(ctx, res.lc.cluster, written, written+postWrites/setupRepeats)
		written += postWrites / setupRepeats
		res.lc.close()
	}
	return c, ctx.Err()
}

// queryEpoch runs one cluster's share of the read window: one part.
func (c *collector) queryEpoch(ctx context.Context, cl *mendel.Cluster, dur, lead time.Duration, next *int) {
	n := len(c.sc.Queries)
	warm := newCollector(c.sc) // discarded
	for end := time.Now().Add(lead); time.Now().Before(end) && ctx.Err() == nil; *next++ {
		warm.searchOnce(ctx, cl, *next%n)
	}
	cpu0, start := selfCPU(), time.Now()
	for end := start.Add(dur); time.Now().Before(end) && ctx.Err() == nil; *next++ {
		c.searchOnce(ctx, cl, *next%n)
	}
	c.cur.window = time.Since(start)
	c.cur.cpu = selfCPU() - cpu0
	c.cur.ops = len(c.queryMS) - c.cur.q0
	c.endPart()
}

// writeEpoch issues writes [from, to) after a cluster's read window — one
// fresh sequence per Index call — then searches for each: a written
// sequence must be findable.
func (c *collector) writeEpoch(ctx context.Context, cl *mendel.Cluster, from, to int) {
	for i := from; i < to && ctx.Err() == nil; i++ {
		c.attempted++
		t0 := time.Now()
		if err := cl.Index(ctx, c.sc.write(i)); err != nil {
			c.failed++
			c.gatef("write %d: %v", i, err)
			continue
		}
		c.writeMS = append(c.writeMS, ms(time.Since(t0)))
	}
	for i := from; i < to && ctx.Err() == nil; i++ {
		s := c.sc.write(i).Seqs[0]
		hits, err := cl.Search(ctx, s.Data, mendel.DefaultParams())
		c.checkSelfQuery(s, refsOf(hits), err)
	}
}

// checkSelfQuery gates on a written sequence being found by searching for it.
func (c *collector) checkSelfQuery(s *seq.Sequence, hits []hitRef, err error) {
	self := query{Source: s.Name, SrcEnd: s.Len()}
	if err != nil || !self.found(hits) {
		c.gatef("written sequence %s not findable (err=%v)", s.Name, err)
	}
}

// runIngestWorkload is ingest_bulk: bulk Index of the whole database into a
// fresh cluster, back to back. Only Index is timed for the ingest metrics;
// the searches that follow are the proof the index answers.
func runIngestWorkload(ctx context.Context, seed int64, seconds float64) (*collector, error) {
	c := newCollector(nil)
	var sc *scenario
	for i := 0; i < setupRepeats; i++ {
		// Only setup_s is taken from set-up here: this workload measures
		// Index inside its window.
		var res *indexed
		var took time.Duration
		var err error
		if sc, res, took, err = setupLocal(ctx, wIngestBulk, seed, nil); err != nil {
			return nil, err
		}
		res.lc.close()
		c.setupS = append(c.setupS, took.Seconds())
	}
	c.setScenario(sc)

	next := 0
	op := func(c *collector) error {
		c.attempted++
		res, err := indexFresh(ctx, sc, nil)
		if err != nil {
			return err
		}
		defer res.lc.close()
		c.indexS = append(c.indexS, res.index.Seconds())
		c.writeMS = append(c.writeMS, ms(res.index))
		c.cur.cpu += res.indexCPU
		c.cur.ops++
		c.indexBytes = append(c.indexBytes, float64(res.indexBytes))
		// A few discarded searches dial the coordinator's connections and
		// touch the fresh trees.
		for i, warm := 0, newCollector(sc); i < 8; i++ {
			warm.searchOnce(ctx, res.lc.cluster, (next+i)%len(sc.Queries))
		}
		t0 := time.Now()
		for i := 0; i < verifyPerOp; i++ {
			c.searchOnce(ctx, res.lc.cluster, next%len(sc.Queries))
			next++
		}
		c.cur.window += time.Since(t0)
		return nil
	}
	if err := op(newCollector(sc)); err != nil { // warm-up, discarded
		return nil, err
	}
	// The operations that start within one fifth of the window are one part.
	start := time.Now()
	for p := 1; p <= windowParts; p++ {
		for end := start.Add(secs(seconds * float64(p) / windowParts)); time.Now().Before(end) && ctx.Err() == nil; {
			if err := op(c); err != nil {
				return nil, err
			}
		}
		c.endPart()
	}
	return c, ctx.Err()
}

func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// warmup is the discarded lead-in before a measured window: 2 s at the
// benchmark's run length, shorter on quick runs.
func warmup(seconds float64) time.Duration {
	if w := secs(seconds / 5); w < 2*time.Second {
		return w
	}
	return 2 * time.Second
}
