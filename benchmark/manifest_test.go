package main

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestManifestContract holds ../BENCHMARK.json to the contract the
// acceptance driver refuses a manifest on, before a single run is made.
func TestManifestContract(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(raw))
	}
	m, err := loadManifest("..") // strict: an unknown key is an error
	if err != nil {
		t.Fatal(err)
	}

	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(kind, n string) {
		t.Helper()
		if !nameRE.MatchString(n) {
			t.Errorf("%s name %q does not match %s", kind, n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q is used more than once", n)
		}
		seen[n] = true
	}

	if len(m.Command) == 0 || len(m.Command) > 32 {
		t.Errorf("command has %d strings, want 1..32", len(m.Command))
	}
	for _, arg := range m.Command {
		if len(arg) > 200 || strings.HasPrefix(arg, "/") || strings.Contains(arg, "..") {
			t.Errorf("command argument %q is too long, absolute or leaves the repo", arg)
		}
		// An argument that names a file must name one under paths.
		if strings.Contains(arg, "/") && !strings.HasPrefix(arg, "benchmark/") && arg != "./benchmark" {
			t.Errorf("command argument %q names a path outside benchmark/", arg)
		}
	}
	if len(m.Paths) != 1 || m.Paths[0] != "benchmark" {
		t.Errorf(`paths = %q, want exactly ["benchmark"]`, m.Paths)
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds = %d, want 1..60", m.RunSeconds)
	}
	if m.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d but the harness defaults to %d", m.RunSeconds, defaultSeconds)
	}

	if len(m.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads, want the %d the harness runs", len(m.Workloads), len(workloadNames))
	}
	for i, w := range m.Workloads {
		name("workload", w.Name)
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q, the harness runs %q", i, w.Name, workloadNames[i])
		}
		if w.Why == "" || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\r\n") {
			t.Errorf("workload %s: why must be one line of 1..200 characters, got %d", w.Name, len(w.Why))
		}
	}

	if len(m.EndToEnd) < 1 || len(m.EndToEnd) > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", len(m.EndToEnd))
	}
	if len(m.PerLayer) < 1 || len(m.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", len(m.PerLayer))
	}
	hasSetup := false
	for _, e := range m.EndToEnd {
		name("end-to-end", e.Name)
		if e.Bound == nil || *e.Bound <= 0 || *e.Bound > 0.25 {
			t.Errorf("%s: bound must be in (0, 0.25]", e.Name)
		}
		if e.Name == "setup_s" {
			hasSetup = e.Unit == "s" && e.Better == "lower"
		}
	}
	if !hasSetup {
		t.Error(`end_to_end lacks {"name":"setup_s","unit":"s","better":"lower"}`)
	}
	for _, p := range m.PerLayer {
		name("per-layer", p.Name)
		if p.Bound != nil {
			t.Errorf("%s: a per-layer metric has no bound", p.Name)
		}
	}
	for _, e := range append(append([]manifestMetric(nil), m.EndToEnd...), m.PerLayer...) {
		if !unitRE.MatchString(e.Unit) {
			t.Errorf("%s: unit %q does not match %s", e.Name, e.Unit, unitRE)
		}
		if e.Better != "lower" && e.Better != "higher" {
			t.Errorf("%s: better = %q", e.Name, e.Better)
		}
	}

	// The names, units and directions the harness emits equal the ones the
	// manifest declares, in both directions and in the same order.
	same := func(kind string, emitted []metricDef, declared []manifestMetric) {
		t.Helper()
		want := map[string]metricDef{}
		for _, d := range emitted {
			want[d.Name] = d
		}
		for _, d := range declared {
			h, ok := want[d.Name]
			switch {
			case !ok:
				t.Errorf("%s metric %s is declared but the harness cannot emit it", kind, d.Name)
			case h.Unit != d.Unit || h.Better != d.Better:
				t.Errorf("%s metric %s: manifest says %s/%s, harness %s/%s", kind, d.Name, d.Unit, d.Better, h.Unit, h.Better)
			}
			delete(want, d.Name)
		}
		for n := range want {
			t.Errorf("%s metric %s is emitted by the harness but not declared", kind, n)
		}
	}
	same("end-to-end", endToEnd, m.EndToEnd)
	same("per-layer", perLayer, m.PerLayer)
}
