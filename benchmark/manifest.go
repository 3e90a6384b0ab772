package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// metricDef declares one metric the harness emits: its name, unit and which
// direction is better. manifest_test.go holds these tables and
// BENCHMARK.json to each other, in both directions.
type metricDef struct{ Name, Unit, Better string }

// endToEnd are the metrics an untraced pass emits, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"query_p50_ms", "ms", "lower"},
	{"query_p95_ms", "ms", "lower"},
	{"query_qps", "1/s", "higher"},
	{"recall", "fraction", "higher"},
	{"cpu_ms_per_op", "ms", "lower"},
	{"ingest_blocks_per_s", "1/s", "higher"},
	{"index_bytes_per_residue", "B", "lower"},
	{"write_p50_ms", "ms", "lower"},
	{"success_frac", "fraction", "higher"},
}

// perLayer are the metrics a traced pass emits, named <package>.<metric>
// after the package of this repository they measure.
var perLayer = []metricDef{
	{"seq.windows_per_query", "count", "lower"},
	{"vphash.groupsfor_ns", "ns", "lower"},
	{"vphash.groups_per_window", "count", "lower"},
	{"vphash.useful_group_frac", "fraction", "higher"},
	{"vphash.build_ms", "ms", "lower"},
	{"vphash.hash_ns", "ns", "lower"},
	{"invindex.blocks_per_s", "1/s", "higher"},
	{"dht.lookup_ns", "ns", "lower"},
	{"sketch.add_ns_per_residue", "ns", "lower"},
	{"sketch.sharesany_ns", "ns", "lower"},
	{"sketch.skipped_per_query", "count", "higher"},
	{"metric.distance_ns", "ns", "lower"},
	{"vptree.knn_us", "us", "lower"},
	{"vptree.visits_per_lookup", "count", "lower"},
	{"vptree.ns_per_visit", "ns", "lower"},
	{"vptree.budget_hit_frac", "fraction", "lower"},
	{"vptree.knn_exact_overlap", "fraction", "higher"},
	{"vptree.scan_floor_us", "us", "lower"},
	{"vptree.build_items_per_s", "1/s", "higher"},
	{"vptree.insert_us", "us", "lower"},
	{"node.knn_cpu_ms_per_query", "ms", "lower"},
	{"node.ungapped_cpu_ms_per_query", "ms", "lower"},
	{"node.visits_per_query", "count", "lower"},
	{"align.ungapped_ns", "ns", "lower"},
	{"align.banded_us", "us", "lower"},
	{"align.banded_cells_per_us", "1/us", "higher"},
	{"anchorset.merge_ns_per_anchor", "ns", "lower"},
	{"anchorset.keep_frac", "fraction", "higher"},
	{"wire.groupsearch_bytes", "B", "lower"},
	{"wire.groupsearch_enc_ns", "ns", "lower"},
	{"wire.groupsearch_dec_ns", "ns", "lower"},
	{"wire.groupresult_bytes", "B", "lower"},
	{"wire.groupresult_enc_ns", "ns", "lower"},
	{"wire.groupresult_dec_ns", "ns", "lower"},
	{"wire.indexblocks_bytes_per_block", "B", "lower"},
	{"wire.indexblocks_enc_ns_per_block", "ns", "lower"},
	{"wire.indexblocks_dec_ns_per_block", "ns", "lower"},
	{"transport.ping_rtt_us", "us", "lower"},
	{"transport.bytes_per_query", "B", "lower"},
	{"core.decompose_ms", "ms", "lower"},
	{"core.prefilter_ms", "ms", "lower"},
	{"core.fanout_ms", "ms", "lower"},
	{"core.aggregate_ms", "ms", "lower"},
	{"core.gapped_ms", "ms", "lower"},
	{"core.total_ms", "ms", "lower"},
	{"core.unattributed_frac", "fraction", "lower"},
	{"core.group_requests_per_query", "count", "lower"},
	{"core.anchors_per_query", "count", "lower"},
	{"core.merged_per_query", "count", "lower"},
	{"core.gapped_per_query", "count", "lower"},
	{"core.hits_per_query", "count", "higher"},
	{"core.recall_s90", "fraction", "higher"},
	{"core.recall_s50", "fraction", "higher"},
	{"core.recall_s30", "fraction", "higher"},
	{"obs.trace_overhead_frac", "fraction", "lower"},
	{"gateway.http_overhead_ms", "ms", "lower"},
	{"gateway.shed_frac", "fraction", "lower"},
	{"gateway.deadline_frac", "fraction", "lower"},
	{"bench.gen_lag_p95_ms", "ms", "lower"},
}

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string         `json:"command"`
	Paths      []string         `json:"paths"`
	RunSeconds int              `json:"run_seconds"`
	Workloads  []manifestLoad   `json:"workloads"`
	EndToEnd   []manifestMetric `json:"end_to_end"`
	PerLayer   []manifestMetric `json:"per_layer"`
}

type manifestLoad struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// loadManifest reads BENCHMARK.json strictly: an unknown key is an error.
func loadManifest(root string) (*manifest, error) {
	f, err := os.Open(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	var m manifest
	if err := dec.Decode(&m); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &m, nil
}
