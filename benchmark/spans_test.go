package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestSelfTimeIsDurationMinusChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "op", StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, Name: "a", StartNS: 10, EndNS: 30},
		{ID: 3, Parent: 1, Name: "b", StartNS: 20, EndNS: 50},  // overlaps a: 30..50 is new
		{ID: 4, Parent: 1, Name: "c", StartNS: 90, EndNS: 120}, // runs past the parent: clipped at 100
		{ID: 5, Parent: 3, Name: "leaf", StartNS: 25, EndNS: 45},
		{ID: 6, Parent: 0, Name: "op", StartNS: 200, EndNS: 260}, // no children
	}
	st := selfTimes(spans)
	for id, want := range map[int]int64{1: 50, 2: 20, 3: 10, 4: 30, 5: 20, 6: 60} {
		if st[id] != want {
			t.Errorf("span %d self time = %d, want %d", id, st[id], want)
		}
	}
	self, count := selfByName(spans)
	if self["op"] != 110 || count["op"] != 2 {
		t.Errorf("op: self %d over %d spans, want 110 over 2", self["op"], count["op"])
	}
}

func TestRecorderWritesLinkedSpans(t *testing.T) {
	r := newRecorder("query_short")
	root, end := r.begin(0, 7, "search")
	d := r.timed(root, 7, "vptree.knn", func() { time.Sleep(time.Millisecond) })
	end()
	if d < time.Millisecond {
		t.Errorf("timed returned %v for a 1 ms call", d)
	}
	path := filepath.Join(t.TempDir(), "out", "trace.json")
	if err := r.writeFile(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got []map[string]any
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("%d spans written, want 2", len(got))
	}
	for _, key := range []string{"id", "parent", "name", "start_ns", "end_ns", "workload", "op"} {
		if _, ok := got[1][key]; !ok {
			t.Errorf("span lacks key %q: %v", key, got[1])
		}
	}
	spans := r.snapshot()
	if spans[1].Parent != spans[0].ID || spans[0].Parent != 0 || spans[1].Op != 7 {
		t.Errorf("child not linked to its root: %+v", spans)
	}
	if spans[0].EndNS < spans[1].EndNS || spans[1].StartNS < spans[0].StartNS {
		t.Errorf("child not inside its root: %+v", spans)
	}
	if self := selfTimes(spans)[root]; self < 0 || self > spans[0].EndNS-spans[0].StartNS-int64(time.Millisecond) {
		t.Errorf("root self time %d does not exclude its child", self)
	}
}
