package vptree

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"math/rand"
	"os"
	"runtime"
	"testing"

	"mendel/internal/metric"
	"mendel/internal/seq"
)

const shapeGoldenPath = "testdata/shape_golden.json"

// shapeDigest summarises one tree's exact shape: a SHA-256 over its vertices
// in pre-order, each contributing mu, count and height, then its vantage
// bytes (internal vertex) or its leaf refs in bucket order.
type shapeDigest struct {
	Tree     string `json:"tree"`
	Vertices int    `json:"vertices"`
	Height   int    `json:"height"`
	SHA256   string `json:"sha256"`
}

func digestShape(name string, t *Tree) shapeDigest {
	h := sha256.New()
	var buf []byte
	vertices := 0
	var walk func(n *node)
	walk = func(n *node) {
		if n == nil {
			return
		}
		vertices++
		buf = buf[:0]
		buf = binary.LittleEndian.AppendUint32(buf, uint32(n.mu))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(n.count))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(n.height))
		if n.refs != nil {
			buf = append(buf, 'L')
			for _, ref := range n.refs {
				buf = binary.LittleEndian.AppendUint64(buf, ref)
			}
		} else {
			buf = append(buf, 'I')
			buf = append(buf, n.keys...)
		}
		h.Write(buf)
		walk(n.left)
		walk(n.right)
	}
	walk(t.root)
	return shapeDigest{Tree: name, Vertices: vertices, Height: t.Height(), SHA256: hex.EncodeToString(h.Sum(nil))}
}

// shapeTrees builds every tree the shape golden covers: the four golden kNN
// trees (protein and DNA, bulk-built above parallelBuildMin and grown through
// all four insert cases), plus small-bucket builds whose duplicate-heavy DNA
// keys reach the degenerate oversized leaf.
func shapeTrees() []shapeDigest {
	trees, _, names, _ := goldenTrees()
	var out []shapeDigest
	for _, name := range names {
		out = append(out, digestShape(name, trees[name]))
	}
	for _, kind := range []struct {
		name    string
		m       metric.Metric
		letters string
		keyLen  int
		seed    int64
	}{
		{"protein/bucket4", metric.ForKind(seq.Protein), "ARNDCQEGHILKMFPSTWYV", 12, 303},
		{"dna/bucket4-short", metric.ForKind(seq.DNA), "ACGT", 4, 404},
	} {
		rng := rand.New(rand.NewSource(kind.seed))
		items := make([]Item, 3000)
		for i := range items {
			k := make([]byte, kind.keyLen)
			for j := range k {
				k[j] = kind.letters[rng.Intn(len(kind.letters))]
			}
			items[i] = Item{Key: k, Ref: uint64(i)}
		}
		out = append(out, digestShape(kind.name, Build(kind.m, 4, kind.seed, items)))
	}
	return out
}

// TestBuildShapeGolden pins the exact shape of every tree — vantage points,
// radii, counts, heights and leaf order — to a digest recorded before the
// build's RNG and scratch buffers were reworked: kNN answers agreeing is
// weaker than the trees being identical. Serial (GOMAXPROCS 1) and parallel
// builds must both reproduce it.
func TestBuildShapeGolden(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	serial := shapeTrees()
	runtime.GOMAXPROCS(max(4, runtime.NumCPU()))
	parallel := shapeTrees()
	runtime.GOMAXPROCS(prev)

	var buf bytes.Buffer
	buf.WriteString("[\n")
	for i, d := range serial {
		if d != parallel[i] {
			t.Fatalf("%s: serial build %+v, parallel build %+v", d.Tree, d, parallel[i])
		}
		line, err := json.Marshal(d)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(line)
		if i < len(serial)-1 {
			buf.WriteByte(',')
		}
		buf.WriteByte('\n')
	}
	buf.WriteString("]\n")
	if *updateGolden {
		if err := os.WriteFile(shapeGoldenPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(shapeGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("tree shapes diverged from %s:\n got  %s\n want %s", shapeGoldenPath, buf.Bytes(), want)
	}
}
