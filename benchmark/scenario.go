package main

import (
	"fmt"
	"math/rand"
	"strings"

	"mendel"
	"mendel/internal/datagen"
	"mendel/internal/invindex"
	"mendel/internal/seq"
)

// Workload names, in the order BENCHMARK.json lists them.
const (
	wQueryShort = "query_short"
	wQueryLong  = "query_long"
	wIngestBulk = "ingest_bulk"
	wServeMixed = "serve_mixed"
)

var workloadNames = []string{wQueryShort, wQueryLong, wIngestBulk, wServeMixed}

// query is one search input. A planted query was cut from a known database
// region and mutated; it counts as found when a hit names a sequence with
// the Source prefix and overlaps [SrcStart, SrcEnd) on the subject.
type query struct {
	Seq      []byte
	Planted  bool
	Source   string // name prefix of the sequence(s) the query was cut from
	SrcStart int
	SrcEnd   int
	Stratum  string // "s90", "s80", "s50", "s30", or "foreign"
}

// found reports whether any hit recovers the planted source.
func (q *query) found(hits []hitRef) bool {
	for _, h := range hits {
		if strings.HasPrefix(h.Name, q.Source) && h.SStart < q.SrcEnd && h.SEnd > q.SrcStart {
			return true
		}
	}
	return false
}

// hitRef is the part of a hit the correctness checks need, common to
// core.Hit and the gateway's JSON reply.
type hitRef struct {
	Name         string
	SStart, SEnd int
}

func refsOf(hits []mendel.Hit) []hitRef {
	out := make([]hitRef, len(hits))
	for i, h := range hits {
		out[i] = hitRef{Name: h.Name, SStart: h.Alignment.SStart, SEnd: h.Alignment.SEnd}
	}
	return out
}

// scenario is everything a workload runs on, generated from the seed alone.
type scenario struct {
	Name     string
	Nodes    int
	Groups   int
	DB       *seq.Set
	Residues int
	Blocks   int // Σ invindex.BlockCount over DB: what Index must place

	// Queries is the measured cycle. Probes are 120-residue planted
	// queries at 0.9 / 0.5 / 0.3 similarity against this DB: the traced
	// pass reads the per-stratum recall from them on every workload.
	Queries []query
	Probes  []query

	// Open-loop shape (serve_mixed's measured window; the gateway phase of
	// every traced pass): arrivals per second, and every WriteEvery-th
	// arrival is an ingest instead of a search.
	OpenRate   float64
	WriteEvery int

	writeSeed int64
}

const (
	blockLen   = 16 // DefaultConfig(Protein).BlockLen
	writeLen   = 128
	probeLen   = 120
	strataEach = 32
)

// Independent generator streams per purpose, so changing how many queries a
// workload draws never changes its database.
func subSeed(seed int64, stream int64) int64 { return seed*1000003 + stream }

func buildScenario(name string, seed int64) (*scenario, error) {
	sc := &scenario{Name: name, Nodes: 20, Groups: 4, OpenRate: 50, WriteEvery: 25, writeSeed: subSeed(seed, 3)}
	dbGen := datagen.New(seq.Protein, subSeed(seed, 1))
	qGen := datagen.New(seq.Protein, subSeed(seed, 2))
	qRng := rand.New(rand.NewSource(subSeed(seed, 4)))
	var err error
	switch name {
	case wQueryShort, wIngestBulk:
		// The paper's interactive case at the repo's default scale.
		if sc.DB, err = dbGen.Database(400, 500, 100, "bg"); err != nil {
			return nil, err
		}
		sc.Probes = plantedStrata(sc.DB, qGen, qRng, probeLen, strataEach)
		sc.Queries = sc.Probes
	case wQueryLong:
		// Family-rich database: a 1000-residue query has ten true homologs,
		// so anchors, result messages and gapped extensions are ~10x the
		// short workload's.
		if sc.DB, err = dbGen.Database(150, 1500, 300, "bg"); err != nil {
			return nil, err
		}
		const families, members, targetLen, queryLen, perFamily = 10, 10, 1500, 1000, 4
		for f := 0; f < families; f++ {
			target := dbGen.Sequence(targetLen)
			prefix := fmt.Sprintf("fam%02d", f)
			fam, err := dbGen.Family(target, members, 0.8, prefix)
			if err != nil {
				return nil, err
			}
			for _, s := range fam.Seqs {
				if _, err := sc.DB.Add(s.Name, s.Data); err != nil {
					return nil, err
				}
			}
			for i := 0; i < perFamily; i++ {
				start := qRng.Intn(targetLen - queryLen + 1)
				sc.Queries = append(sc.Queries, query{
					Seq:     qGen.MutateToSimilarity(target[start:start+queryLen], 0.8),
					Planted: true, Source: prefix + "_", SrcStart: start, SrcEnd: start + queryLen,
					Stratum: "s80",
				})
			}
		}
		qRng.Shuffle(len(sc.Queries), func(i, j int) { sc.Queries[i], sc.Queries[j] = sc.Queries[j], sc.Queries[i] })
		sc.Probes = plantedStrata(sc.DB, qGen, qRng, probeLen, strataEach)
		// A long query is ~8x a short one's work; keep the open-loop
		// gateway phase of the traced pass well below saturation.
		sc.OpenRate = 4
	case wServeMixed:
		// A corpus small enough that every node's tree stays below the
		// 4096-evaluation k-NN budget even after the window's writes
		// (~2.5k blocks per node growing to ~3.9k), on a small cluster:
		// fixed per-request costs dominate, not k-NN.
		sc.Nodes, sc.Groups = 4, 2
		if sc.DB, err = dbGen.Database(26, 400, 80, "bg"); err != nil {
			return nil, err
		}
		const queryLen, each = 64, 32
		planted := plantedAt(sc.DB, qGen, qRng, queryLen, each, 0.9, "s90")
		for i := 0; i < each; i++ {
			sc.Queries = append(sc.Queries, planted[i],
				query{Seq: qGen.Sequence(queryLen), Stratum: "foreign"})
		}
		sc.Probes = plantedStrata(sc.DB, qGen, qRng, probeLen, strataEach)
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
	}
	sc.Residues = sc.DB.TotalResidues()
	for _, s := range sc.DB.Seqs {
		sc.Blocks += invindex.BlockCount(s.Len(), blockLen)
	}
	return sc, nil
}

// plantedAt cuts count windows of the given length from random database
// sequences and mutates each to the given similarity.
func plantedAt(db *seq.Set, g *datagen.Generator, rng *rand.Rand, length, count int, similarity float64, stratum string) []query {
	out := make([]query, 0, count)
	for len(out) < count {
		s := db.Seqs[rng.Intn(db.Len())]
		if s.Len() < length {
			continue
		}
		start := rng.Intn(s.Len() - length + 1)
		out = append(out, query{
			Seq:     g.MutateToSimilarity(s.Window(start, length), similarity),
			Planted: true, Source: s.Name, SrcStart: start, SrcEnd: start + length,
			Stratum: stratum,
		})
	}
	return out
}

// plantedStrata interleaves each-many planted queries at 0.9, 0.5 and 0.3
// similarity. The 0.3 stratum is below the index's sensitivity ceiling, so
// a speed-up bought with recall shows.
func plantedStrata(db *seq.Set, g *datagen.Generator, rng *rand.Rand, length, each int) []query {
	s90 := plantedAt(db, g, rng, length, each, 0.9, "s90")
	s50 := plantedAt(db, g, rng, length, each, 0.5, "s50")
	s30 := plantedAt(db, g, rng, length, each, 0.3, "s30")
	out := make([]query, 0, 3*each)
	for i := 0; i < each; i++ {
		out = append(out, s90[i], s50[i], s30[i])
	}
	return out
}

// write returns the i-th fresh sequence a workload ingests while (or after)
// it serves reads. Each is random, so it is foreign to the database and
// findable only through its own blocks.
func (sc *scenario) write(i int) *seq.Set {
	g := datagen.New(seq.Protein, subSeed(sc.writeSeed, int64(i)))
	set := seq.NewSet(seq.Protein)
	if _, err := set.Add(fmt.Sprintf("w%06d", i), g.Sequence(writeLen)); err != nil {
		panic(err) // generator output is always a valid protein sequence
	}
	return set
}
