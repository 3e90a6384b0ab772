package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"time"
)

// openLoop drives a gateway's HTTP API at a fixed arrival rate, regardless
// of how fast replies come back: independent users, not callers that wait.
type openLoop struct {
	sc         *scenario
	base       string // http://host:port
	firstWrite int    // index of the first sequence this loop ingests
	client     *http.Client
	conns      int
}

// outcome is one arrival's fate.
type outcome struct {
	write     bool
	index     int           // query index in the cycle, or write index
	fromDue   time.Duration // reply received − instant the arrival was due
	fromSend  time.Duration // reply received − request handed to the client
	status    int
	err       error
	hits      []hitRef
	elapsedMS float64 // server-side time, from the reply
}

func (o *outcome) ok() bool { return o.err == nil && o.status == http.StatusOK }

// openLoopRun is everything one open-loop window observed.
type openLoopRun struct {
	outcomes  []outcome
	lagMS     []float64 // how late the generator fired each arrival
	wall      time.Duration
	nextWrite int
}

func newOpenLoop(sc *scenario, base string, firstWrite int) *openLoop {
	conns := runtime.NumCPU() // at most nproc keep-alive connections
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, IdleConnTimeout: time.Minute}
	return &openLoop{
		sc: sc, base: base, firstWrite: firstWrite, conns: conns,
		client: &http.Client{Transport: tr, Timeout: 60 * time.Second},
	}
}

func (ol *openLoop) close() { ol.client.CloseIdleConnections() }

// run fires arrivals for dur, starting the query cycle at firstQuery, and
// waits for every reply.
func (ol *openLoop) run(ctx context.Context, dur time.Duration, firstQuery int) *openLoopRun {
	type job struct {
		due time.Time
		out *outcome
	}
	total := int(dur.Seconds() * ol.sc.OpenRate)
	if total < 1 {
		total = 1
	}
	res := &openLoopRun{outcomes: make([]outcome, total), nextWrite: ol.firstWrite}
	// Sized to hold every arrival: the generator must never wait for a
	// worker, or a slow server would slow the offered load.
	jobs := make(chan job, total)
	var wg sync.WaitGroup
	for w := 0; w < ol.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				ol.send(ctx, j.due, j.out)
			}
		}()
	}
	start := time.Now()
	nq := firstQuery
	for k := 0; k < total && ctx.Err() == nil; k++ {
		out := &res.outcomes[k]
		if ol.sc.WriteEvery > 0 && (k+1)%ol.sc.WriteEvery == 0 {
			out.write, out.index = true, res.nextWrite
			res.nextWrite++
		} else {
			out.index = nq % len(ol.sc.Queries)
			nq++
		}
		due := dueTime(start, k, ol.sc.OpenRate)
		sleepUntil(due)
		res.lagMS = append(res.lagMS, ms(time.Since(due)))
		jobs <- job{due, out}
	}
	close(jobs)
	wg.Wait()
	res.wall = time.Since(start)
	return res
}

// sleepUntil returns at t. The kernel timer behind time.Sleep wakes up to a
// millisecond late on a virtual machine, which at a 6 ms median would be a
// tenth of the latency being measured, so the last stretch is spun.
func sleepUntil(t time.Time) {
	const spin = 1500 * time.Microsecond
	if d := time.Until(t) - spin; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
	}
}

// send issues one request and records its outcome.
func (ol *openLoop) send(ctx context.Context, due time.Time, out *outcome) {
	var path string
	var body any
	if out.write {
		s := ol.sc.write(out.index).Seqs[0]
		path = "/v1/ingest"
		body = map[string]any{"sequences": []map[string]string{{"name": s.Name, "data": string(s.Data)}}}
	} else {
		path = "/v1/search"
		body = map[string]string{"query": string(ol.sc.Queries[out.index].Seq)}
	}
	sent := time.Now()
	status, reply, err := ol.post(ctx, path, body)
	done := time.Now()
	out.fromDue, out.fromSend = dueLatency(due, done), done.Sub(sent)
	out.status, out.err = status, err
	if err != nil || status != http.StatusOK {
		return
	}
	out.hits, out.elapsedMS, out.err = parseReply(reply, out.write)
}

func (ol *openLoop) post(ctx context.Context, path string, body any) (int, []byte, error) {
	data, err := json.Marshal(body)
	if err != nil {
		return 0, nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ol.base+path, bytes.NewReader(data))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := ol.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	reply, err := io.ReadAll(resp.Body)
	return resp.StatusCode, reply, err
}

// search issues one search outside any schedule (self-queries after the
// window, warm-up of a fresh gateway).
func (ol *openLoop) search(ctx context.Context, q []byte) ([]hitRef, error) {
	status, reply, err := ol.post(ctx, "/v1/search", map[string]string{"query": string(q)})
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("search: HTTP %d: %s", status, bytes.TrimSpace(reply))
	}
	hits, _, err := parseReply(reply, false)
	return hits, err
}

// parseReply checks a 200 reply is the well-formed JSON the API documents.
func parseReply(reply []byte, write bool) ([]hitRef, float64, error) {
	if write {
		var r struct {
			Indexed   *int     `json:"indexed"`
			ElapsedMS *float64 `json:"elapsed_ms"`
		}
		if err := json.Unmarshal(reply, &r); err != nil {
			return nil, 0, fmt.Errorf("ingest reply: %w", err)
		}
		if r.Indexed == nil || *r.Indexed != 1 || r.ElapsedMS == nil {
			return nil, 0, fmt.Errorf("ingest reply malformed: %s", bytes.TrimSpace(reply))
		}
		return nil, *r.ElapsedMS, nil
	}
	var r struct {
		Hits []struct {
			Name   string `json:"name"`
			SStart int    `json:"s_start"`
			SEnd   int    `json:"s_end"`
		} `json:"hits"`
		ElapsedMS *float64 `json:"elapsed_ms"`
	}
	if err := json.Unmarshal(reply, &r); err != nil {
		return nil, 0, fmt.Errorf("search reply: %w", err)
	}
	if r.Hits == nil || r.ElapsedMS == nil {
		return nil, 0, fmt.Errorf("search reply malformed: %s", bytes.TrimSpace(reply))
	}
	hits := make([]hitRef, len(r.Hits))
	for i, h := range r.Hits {
		hits[i] = hitRef{Name: h.Name, SStart: h.SStart, SEnd: h.SEnd}
	}
	return hits, *r.ElapsedMS, nil
}

// book files a window's outcomes into the collector: searches by their
// latency from the due time, writes likewise; anything but a well-formed
// 200 is a failure and has no latency. Arrivals come at a fixed rate, so each
// fifth of them is one part of the window.
func (res *openLoopRun) book(c *collector) {
	n := len(res.outcomes)
	for p := 0; p < windowParts; p++ {
		for i := p * n / windowParts; i < (p+1)*n/windowParts; i++ {
			o := &res.outcomes[i]
			if o.status == 0 && o.err == nil {
				continue // never fired: the run was cancelled
			}
			if o.write {
				c.attempted++
				if !o.ok() {
					c.failed++
					c.gatef("ingest %d: HTTP %d err=%v", o.index, o.status, o.err)
					continue
				}
				c.writeMS = append(c.writeMS, ms(o.fromDue))
				continue
			}
			err := o.err
			if err == nil && o.status != http.StatusOK {
				err = fmt.Errorf("HTTP %d", o.status)
			}
			c.search(o.index, o.fromDue, o.hits, err)
		}
		c.cur.window = res.wall / windowParts
		c.endPart()
	}
}

// selfQueries checks that every sequence ingested in [first, next) is
// findable by searching for it.
func (ol *openLoop) selfQueries(ctx context.Context, c *collector, first, next int) {
	for i := first; i < next && ctx.Err() == nil; i++ {
		s := ol.sc.write(i).Seqs[0]
		hits, err := ol.search(ctx, s.Data)
		c.checkSelfQuery(s, hits, err)
	}
}
