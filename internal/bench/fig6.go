package bench

import (
	"context"
	"fmt"
	"time"

	"mendel/internal/blast"
	"mendel/internal/core"
	"mendel/internal/matrix"
)

// Point is one X position of a comparative timing series.
type Point struct {
	X          float64
	MendelMS   float64
	BlastMS    float64
	MendelHits int
	BlastHits  int
}

// SeriesResult holds a Mendel-vs-BLAST timing series (Figs. 6a and 6b).
type SeriesResult struct {
	Title  string
	XLabel string
	Points []Point
}

// Render prints the series as a table.
func (r *SeriesResult) Render() string {
	rows := make([][]string, len(r.Points))
	for i, p := range r.Points {
		rows[i] = []string{
			fmt.Sprintf("%.0f", p.X),
			fmt.Sprintf("%.3f", p.MendelMS),
			fmt.Sprintf("%.3f", p.BlastMS),
			fmt.Sprintf("%d", p.MendelHits),
			fmt.Sprintf("%d", p.BlastHits),
		}
	}
	return r.Title + "\n" + table([]string{r.XLabel, "mendel ms", "blast ms", "mendel hits", "blast hits"}, rows)
}

// RunFig6a measures average query turnaround as a function of query length
// (the paper sweeps 500–3000 residues over nr with s_aureus queries) for
// Mendel and the BLAST baseline over the same database.
func RunFig6a(s Scale, lengths []int) (*SeriesResult, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if len(lengths) == 0 {
		lengths = []int{500, 1000, 1500, 2000, 2500, 3000}
	}
	maxLen := 0
	for _, l := range lengths {
		if l > maxLen {
			maxLen = l
		}
	}
	// Database sequences must be long enough to source the longest query;
	// scale the sequence count down to keep total residues comparable.
	if minSeqLen := maxLen + maxLen/4; s.SeqLen < minSeqLen {
		s.DBSequences = s.DBSequences * s.SeqLen / minSeqLen
		if s.DBSequences < 4 {
			s.DBSequences = 4
		}
		s.SeqLen = minSeqLen
	}
	db, gen, err := makeDB(s)
	if err != nil {
		return nil, err
	}
	ip, err := newCluster(s, db)
	if err != nil {
		return nil, err
	}
	bdb, err := blast.NewDB(db, blast.DefaultProteinConfig(), matrix.BLOSUM62)
	if err != nil {
		return nil, err
	}
	res := &SeriesResult{
		Title:  "Fig 6a — avg turnaround vs query length",
		XLabel: "query len",
	}
	ctx := context.Background()
	params := proteinParams()
	for _, length := range lengths {
		queries, err := gen.QuerySet(db, s.QueriesPerPoint, length, 0.05, 0.01)
		if err != nil {
			return nil, err
		}
		p := Point{X: float64(length)}
		mendelTime, blastTime := time.Duration(0), time.Duration(0)
		for _, q := range queries {
			start := time.Now()
			mh, err := ip.Search(ctx, q, params)
			if err != nil {
				return nil, err
			}
			mendelTime += time.Since(start)
			p.MendelHits += len(mh)

			start = time.Now()
			bh, err := bdb.Search(q, params.MaxE)
			if err != nil {
				return nil, err
			}
			blastTime += time.Since(start)
			p.BlastHits += len(bh)
		}
		n := time.Duration(len(queries))
		p.MendelMS = float64((mendelTime / n).Microseconds()) / 1000
		p.BlastMS = float64((blastTime / n).Microseconds()) / 1000
		res.Points = append(res.Points, p)
	}
	return res, nil
}

// RunFig6b measures average turnaround at a fixed query length (the paper
// uses 1000 residues) while the database grows; dbSeqCounts lists the
// database sizes in sequences. Mendel's DHT keeps turnaround near constant
// while BLAST degrades with volume.
func RunFig6b(s Scale, dbSeqCounts []int, queryLen int) (*SeriesResult, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if len(dbSeqCounts) == 0 {
		dbSeqCounts = []int{100, 200, 400, 800}
	}
	if queryLen <= 0 {
		queryLen = 1000
	}
	res := &SeriesResult{
		Title:  "Fig 6b — avg turnaround vs database size (query len " + fmt.Sprint(queryLen) + ")",
		XLabel: "db residues",
	}
	ctx := context.Background()
	params := proteinParams()
	for _, count := range dbSeqCounts {
		sz := s
		sz.DBSequences = count
		// Database sequences must fit the query length.
		if sz.SeqLen < queryLen+sz.SeqLen/5 {
			sz.SeqLen = queryLen + queryLen/4
		}
		db, gen, err := makeDB(sz)
		if err != nil {
			return nil, err
		}
		ip, err := newCluster(sz, db)
		if err != nil {
			return nil, err
		}
		bdb, err := blast.NewDB(db, blast.DefaultProteinConfig(), matrix.BLOSUM62)
		if err != nil {
			return nil, err
		}
		queries, err := gen.QuerySet(db, sz.QueriesPerPoint, queryLen, 0.05, 0.01)
		if err != nil {
			return nil, err
		}
		p := Point{X: float64(db.TotalResidues())}
		mendelTime, blastTime := time.Duration(0), time.Duration(0)
		for _, q := range queries {
			start := time.Now()
			mh, err := ip.Search(ctx, q, params)
			if err != nil {
				return nil, err
			}
			mendelTime += time.Since(start)
			p.MendelHits += len(mh)
			start = time.Now()
			bh, err := bdb.Search(q, params.MaxE)
			if err != nil {
				return nil, err
			}
			blastTime += time.Since(start)
			p.BlastHits += len(bh)
		}
		n := time.Duration(len(queries))
		p.MendelMS = float64((mendelTime / n).Microseconds()) / 1000
		p.BlastMS = float64((blastTime / n).Microseconds()) / 1000
		res.Points = append(res.Points, p)
	}
	return res, nil
}

// ScalePoint is one cluster size of the Fig. 6c sweep. WallMS is the
// in-process wall time, which shares one machine's cores across all
// simulated nodes; CriticalMS is the maximum per-node busy time per query —
// the turnaround a deployment with one machine per node would approach,
// and the series whose shape corresponds to the paper's Fig. 6c.
type ScalePoint struct {
	Nodes      int
	WallMS     float64
	CriticalMS float64
	Hits       int
}

// Fig6cResult reproduces the scalability experiment: average turnaround of
// a fixed query set as nodes are added to the cluster.
type Fig6cResult struct {
	Points []ScalePoint
}

// Render prints the series.
func (r *Fig6cResult) Render() string {
	rows := make([][]string, len(r.Points))
	for i, p := range r.Points {
		rows[i] = []string{
			fmt.Sprintf("%d", p.Nodes),
			fmt.Sprintf("%.3f", p.CriticalMS),
			fmt.Sprintf("%.3f", p.WallMS),
			fmt.Sprintf("%d", p.Hits),
		}
	}
	return "Fig 6c — avg turnaround vs cluster size\n" +
		table([]string{"nodes", "per-node critical-path ms", "in-process wall ms", "hits"}, rows)
}

// RunFig6c indexes the same database over clusters of increasing size and
// measures the e_coli-like query set's average turnaround on each. Local
// lookups are exact and scan every key a node holds, so per-node work
// genuinely shrinks as the data spreads over more nodes, and the per-node busy counters capture the
// parallel critical path that the single shared machine cannot express in
// wall time.
func RunFig6c(s Scale, nodeCounts []int, queryLen int) (*Fig6cResult, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if len(nodeCounts) == 0 {
		nodeCounts = []int{5, 10, 20, 30, 40, 50}
	}
	if queryLen <= 0 {
		queryLen = 400
	}
	db, gen, err := makeDB(s)
	if err != nil {
		return nil, err
	}
	queries, err := gen.QuerySet(db, s.QueriesPerPoint, queryLen, 0.05, 0.01)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	params := proteinParams()
	res := &Fig6cResult{}
	for _, nodes := range nodeCounts {
		sz := s
		sz.Nodes = nodes
		if sz.Groups > nodes {
			sz.Groups = nodes
		}
		ip, err := newCluster(sz, db)
		if err != nil {
			return nil, err
		}
		before, err := busyByNode(ctx, ip)
		if err != nil {
			return nil, err
		}
		point := ScalePoint{Nodes: nodes}
		total := time.Duration(0)
		for _, q := range queries {
			start := time.Now()
			hits, err := ip.Search(ctx, q, params)
			if err != nil {
				return nil, err
			}
			total += time.Since(start)
			point.Hits += len(hits)
		}
		after, err := busyByNode(ctx, ip)
		if err != nil {
			return nil, err
		}
		maxBusy := int64(0)
		for node, b := range after {
			if delta := b - before[node]; delta > maxBusy {
				maxBusy = delta
			}
		}
		point.WallMS = float64((total / time.Duration(len(queries))).Microseconds()) / 1000
		point.CriticalMS = float64(maxBusy) / float64(len(queries)) / 1e6
		res.Points = append(res.Points, point)
	}
	return res, nil
}

// busyByNode snapshots each node's cumulative LocalSearch busy time.
func busyByNode(ctx context.Context, ip *core.InProcess) (map[string]int64, error) {
	stats, err := ip.Stats(ctx)
	if err != nil {
		return nil, err
	}
	out := make(map[string]int64, len(stats))
	for _, s := range stats {
		out[s.Node] = s.BusyNS
	}
	return out, nil
}
