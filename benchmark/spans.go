package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed interval recorded by the harness itself, from outside
// the code under test: a root per operation and a child per replayed layer
// call. Mendel's own tracer is a separate thing (internal/obs) and is only
// ever attached in the traced pass.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // 0 = root
	Name     string `json:"name"`
	StartNS  int64  `json:"start_ns"` // since the recorder was created
	EndNS    int64  `json:"end_ns"`
	Workload string `json:"workload"`
	Op       int    `json:"op"` // operation index; children share their root's
}

// recorder keeps spans in memory and writes them when the run ends.
type recorder struct {
	workload string
	epoch    time.Time

	mu    sync.Mutex
	spans []span
}

func newRecorder(workload string) *recorder {
	return &recorder{workload: workload, epoch: time.Now()}
}

// add records a finished span and returns its ID.
func (r *recorder) add(parent, op int, name string, start, end time.Time) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{
		ID: id, Parent: parent, Name: name,
		StartNS: start.Sub(r.epoch).Nanoseconds(), EndNS: end.Sub(r.epoch).Nanoseconds(),
		Workload: r.workload, Op: op,
	})
	return id
}

// begin opens a span whose end is set by the returned function; children
// recorded meanwhile pass the returned ID as their parent.
func (r *recorder) begin(parent, op int, name string) (id int, end func()) {
	start := time.Now()
	r.mu.Lock()
	id = len(r.spans) + 1
	r.spans = append(r.spans, span{
		ID: id, Parent: parent, Name: name,
		StartNS: start.Sub(r.epoch).Nanoseconds(), EndNS: -1,
		Workload: r.workload, Op: op,
	})
	r.mu.Unlock()
	return id, func() {
		now := time.Since(r.epoch).Nanoseconds()
		r.mu.Lock()
		r.spans[id-1].EndNS = now
		r.mu.Unlock()
	}
}

// timed runs fn inside a child span.
func (r *recorder) timed(parent, op int, name string, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	r.add(parent, op, name, start, end)
	return end.Sub(start)
}

func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// writeFile writes every span as one JSON array.
func (r *recorder) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(r.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes returns, per span ID, the span's duration minus the part of its
// interval that its direct children cover (overlapping children are counted
// once; children are clipped to the parent).
func selfTimes(spans []span) map[int]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
		covered, cursor := int64(0), s.StartNS
		for _, k := range kids {
			lo, hi := k.StartNS, k.EndNS
			if lo < cursor {
				lo = cursor
			}
			if hi > s.EndNS {
				hi = s.EndNS
			}
			if hi > lo {
				covered += hi - lo
				cursor = hi
			}
		}
		out[s.ID] = (s.EndNS - s.StartNS) - covered
	}
	return out
}

// selfByName sums self time and counts spans per span name.
func selfByName(spans []span) (self map[string]int64, count map[string]int) {
	st := selfTimes(spans)
	self = make(map[string]int64)
	count = make(map[string]int)
	for _, s := range spans {
		self[s.Name] += st[s.ID]
		count[s.Name]++
	}
	return self, count
}
