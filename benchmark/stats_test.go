package main

import (
	"context"
	"math"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentile(t *testing.T) {
	v := []float64{5, 1, 4, 2, 3} // unsorted on purpose; the input must not be reordered
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {50, 3}, {100, 5}, {25, 2}, {95, 4.8}, {-3, 1}, {250, 5},
	} {
		if got := percentile(v, c.p); !near(got, c.want) {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if v[0] != 5 {
		t.Error("percentile sorted its input in place")
	}
	if got := percentile([]float64{7}, 95); got != 7 {
		t.Errorf("single sample: %v", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("an empty sample must not yield a number")
	}
	if got := median([]float64{1, 2, 3, 4}); !near(got, 2.5) {
		t.Errorf("median of even sample = %v", got)
	}
}

// The expected values are what Python's statistics.quantiles(v, n=4) prints.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if !near(q1, 2.75) || !near(q3, 8.25) {
		t.Errorf("1..10: q1=%v q3=%v, want 2.75 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3})
	if !near(q1, 1.75) || !near(q3, 5.25) {
		t.Errorf("pi digits: q1=%v q3=%v, want 1.75 5.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{10, 20}) // extrapolates, as Python does
	if !near(q1, 7.5) || !near(q3, 22.5) {
		t.Errorf("two samples: q1=%v q3=%v, want 7.5 22.5", q1, q3)
	}
}

// One part of five in which everything took twice as long must not move
// the per-part metrics, though it owns the whole pooled tail.
func TestPartsShieldMetricsFromSlowStretch(t *testing.T) {
	c := newCollector(&scenario{Queries: []query{{}}})
	for p := 0; p < windowParts; p++ {
		slow := time.Duration(1)
		if p == 1 {
			slow = 2
		}
		for i := 0; i < 100; i++ {
			c.search(0, slow*10*time.Millisecond, nil, nil)
		}
		c.cur.window, c.cur.cpu, c.cur.ops = slow*time.Second, slow*500*time.Millisecond, 100
		c.endPart()
	}
	if pooled := percentile(c.queryMS, 95); !near(pooled, 20) {
		t.Fatalf("pooled p95 = %v: the slow part should own the tail", pooled)
	}
	if len(c.partP95) != windowParts || !near(median(c.partP95), 10) || !near(median(c.partQPS), 100) || !near(median(c.partCPU), 5) {
		t.Errorf("p95 %v, qps %v, cpu %v; want medians 10, 100, 5", c.partP95, c.partQPS, c.partCPU)
	}
	c.endPart() // nothing since the last one: no part
	if len(c.partP95) != windowParts || len(c.partCPU) != windowParts {
		t.Error("an empty part was recorded")
	}
}

func TestDueTimeAndLatency(t *testing.T) {
	start := time.Unix(1000, 0)
	if got := dueTime(start, 0, 50); !got.Equal(start) {
		t.Errorf("arrival 0 due %v", got)
	}
	if got := dueTime(start, 25, 50); !got.Equal(start.Add(500 * time.Millisecond)) {
		t.Errorf("arrival 25 at 50/s due %v", got.Sub(start))
	}
	// Sent 300 ms late because the connection was busy, answered in 5 ms:
	// the user waited 305 ms.
	due := dueTime(start, 10, 100)
	done := due.Add(300 * time.Millisecond).Add(5 * time.Millisecond)
	if got := dueLatency(due, done); got != 305*time.Millisecond {
		t.Errorf("latency from due time = %v, want 305ms", got)
	}
}

// One connection, a server that stalls on its first request: every arrival
// queued behind the stall must be charged the wait from its due time, even
// though each was answered the instant it was finally sent.
func TestOpenLoopChargesStallToQueuedArrivals(t *testing.T) {
	const stall = 300 * time.Millisecond
	var served atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if served.Add(1) == 1 {
			time.Sleep(stall)
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"hits":[],"elapsed_ms":0.01}`))
	}))
	defer srv.Close()

	sc := &scenario{Queries: []query{{Seq: []byte("ACDEFGHIKLMNPQRSTVWY")}}, OpenRate: 100}
	ol := newOpenLoop(sc, srv.URL, 0)
	defer ol.close()
	ol.conns = 1
	run := ol.run(context.Background(), 200*time.Millisecond, 0) // 20 arrivals, 10 ms apart
	if len(run.outcomes) != 20 {
		t.Fatalf("%d arrivals, want 20", len(run.outcomes))
	}
	for i := range run.outcomes {
		o := &run.outcomes[i]
		if !o.ok() {
			t.Fatalf("arrival %d: status %d err %v", i, o.status, o.err)
		}
		// Arrival i was due i*10 ms in and could not be sent before the
		// stall ended at 300 ms.
		wantAtLeast := stall - time.Duration(i)*10*time.Millisecond - 5*time.Millisecond
		if o.fromDue < wantAtLeast {
			t.Errorf("arrival %d: %v from its due time, want >= %v", i, o.fromDue, wantAtLeast)
		}
		if i > 0 && o.fromSend > 100*time.Millisecond {
			t.Errorf("arrival %d: %v from send; only the first request met the stall", i, o.fromSend)
		}
	}
	// A closed-loop clock would report the median of fromSend (about zero);
	// the open-loop median must show the stall.
	c := newCollector(sc)
	run.book(c)
	if got := median(c.queryMS); got < 150 {
		t.Errorf("median latency %v ms hides a %v stall", got, stall)
	}
	if c.failed != 0 || c.attempted != 20 {
		t.Errorf("attempted=%d failed=%d", c.attempted, c.failed)
	}
	if lag := percentile(run.lagMS, 95); lag > 5 {
		t.Errorf("generator lag p95 %v ms: the schedule slipped with the server", lag)
	}
}

func TestParseReplyRejectsMalformed(t *testing.T) {
	for _, bad := range []string{`{}`, `{"hits":null,"elapsed_ms":1}`, `{"hits":[]}`, `not json`} {
		if _, _, err := parseReply([]byte(bad), false); err == nil {
			t.Errorf("search reply %s accepted", bad)
		}
	}
	for _, bad := range []string{`{}`, `{"indexed":0,"elapsed_ms":1}`, `{"indexed":1}`} {
		if _, _, err := parseReply([]byte(bad), true); err == nil {
			t.Errorf("ingest reply %s accepted", bad)
		}
	}
	hits, el, err := parseReply([]byte(`{"hits":[{"name":"bg000001","s_start":3,"s_end":40}],"elapsed_ms":2.5}`), false)
	if err != nil || len(hits) != 1 || hits[0] != (hitRef{"bg000001", 3, 40}) || el != 2.5 {
		t.Errorf("good reply: %v %v %v", hits, el, err)
	}
}
