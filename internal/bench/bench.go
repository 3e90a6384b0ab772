// Package bench regenerates every figure of the paper's evaluation section
// (§VI) against the synthetic workloads of internal/datagen: Fig. 5 (load
// balance of flat vs two-tier hashing), Fig. 6a (turnaround vs query
// length), Fig. 6b (turnaround vs database size), Fig. 6c (turnaround vs
// cluster size) and Fig. 6d (sensitivity vs similarity level), plus the
// ablations DESIGN.md calls out. Each experiment returns a typed result
// with a Render method that prints the same rows/series the paper reports.
//
// Absolute numbers differ from the paper's 50-node testbed — the substrate
// here is an in-process cluster — but the shapes (who wins, how curves
// trend) are the reproduction target; see EXPERIMENTS.md.
package bench

import (
	"context"
	"fmt"
	"strings"

	"mendel/internal/core"
	"mendel/internal/datagen"
	"mendel/internal/seq"
	"mendel/internal/transport"
	"mendel/internal/wire"
)

// Scale fixes the workload dimensions of an experiment so the same harness
// runs at unit-test size and at full benchmark size.
type Scale struct {
	Nodes           int
	Groups          int
	DBSequences     int
	SeqLen          int
	QueriesPerPoint int
	Seed            int64
	// Latency optionally simulates LAN delay per message.
	Latency transport.LatencyModel
	// QueryEps overrides the vp-prefix branching radius used at query
	// time (0 = framework default). Large values trade the LSH's
	// search-space reduction for sensitivity to remote homologs.
	QueryEps int
}

// DefaultScale is the size used by cmd/mendel-bench.
func DefaultScale() Scale {
	return Scale{
		Nodes:           20,
		Groups:          4,
		DBSequences:     400,
		SeqLen:          500,
		QueriesPerPoint: 5,
		Seed:            1,
	}
}

// TestScale is a miniature used by unit tests.
func TestScale() Scale {
	return Scale{
		Nodes:           4,
		Groups:          2,
		DBSequences:     30,
		SeqLen:          300,
		QueriesPerPoint: 2,
		Seed:            1,
	}
}

// Validate reports scale errors.
func (s Scale) Validate() error {
	switch {
	case s.Nodes <= 0 || s.Groups <= 0 || s.Nodes < s.Groups:
		return fmt.Errorf("bench: nodes=%d groups=%d", s.Nodes, s.Groups)
	case s.DBSequences <= 0 || s.SeqLen <= 0:
		return fmt.Errorf("bench: db %dx%d", s.DBSequences, s.SeqLen)
	case s.QueriesPerPoint <= 0:
		return fmt.Errorf("bench: queries per point = %d", s.QueriesPerPoint)
	}
	return nil
}

// newCluster builds and indexes an in-process Mendel cluster over db.
func newCluster(s Scale, db *seq.Set) (*core.InProcess, error) {
	cfg := core.DefaultConfig(db.Kind)
	cfg.Groups = s.Groups
	cfg.Seed = s.Seed
	cfg.QueryEps = s.QueryEps
	var opts []transport.MemOption
	if s.Latency.Base > 0 || s.Latency.Jitter > 0 {
		opts = append(opts, transport.WithLatency(s.Latency))
	}
	ip, err := core.NewInProcess(cfg, s.Nodes, opts...)
	if err != nil {
		return nil, err
	}
	if err := ip.Index(context.Background(), db); err != nil {
		return nil, err
	}
	return ip, nil
}

// proteinParams are the Mendel query parameters used by the experiments.
func proteinParams() wire.Params {
	p := wire.DefaultParams()
	p.Neighbors = 8
	return p
}

// makeDB builds the nr-like database for a scale.
func makeDB(s Scale) (*seq.Set, *datagen.Generator, error) {
	gen := datagen.New(seq.Protein, s.Seed)
	jitter := s.SeqLen / 5
	db, err := gen.Database(s.DBSequences, s.SeqLen, jitter, "nr")
	if err != nil {
		return nil, nil, err
	}
	return db, gen, nil
}

// table renders an aligned text table.
func table(headers []string, rows [][]string) string {
	width := make([]int, len(headers))
	for i, h := range headers {
		width[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if len(cell) > width[i] {
				width[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", width[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(headers)
	sep := make([]string, len(headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", width[i])
	}
	writeRow(sep)
	for _, row := range rows {
		writeRow(row)
	}
	return b.String()
}
