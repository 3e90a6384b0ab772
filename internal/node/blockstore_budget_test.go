//go:build !race

package node

import (
	"runtime"
	"testing"
)

// TestResidentBytesPerBlock bounds what a stored, indexed block keeps on the
// heap once every request that carried it is garbage: context chunk,
// directory entry and the search index's entry for the key. A map[uint64]wire.Block whose
// slices pinned the request frames held about 270 B here; the block store
// with one whole context per block about 145 B; sharing contexts along a
// sequence about 89 B; a sorted directory in place of the map and 80-byte
// vp-tree vertices about 73 B; the screen, 18 B per DNA key, in place of the
// vp-tree about 58 B; the screen without its 4-byte content-position column,
// which lookups stopped reading, about 54 B. (Not under -race: the detector's
// shadow memory and allocator change the accounting.)
func TestResidentBytesPerBlock(t *testing.T) {
	const blocks, budget = 20000, 66
	frames := hotFrames(t, blocks, 4096)
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := heap()
	n := ingestFrames(t, frames)
	perBlock := float64(heap()-before) / blocks
	if st := n.stats(); st.Blocks != blocks || st.TreeSize != blocks {
		t.Fatalf("stats = %+v, want %d blocks", st, blocks)
	}
	t.Logf("%.1f resident bytes per block (%d B of it in the block store)", perBlock, n.Health().BlockBytes/blocks)
	if perBlock > budget {
		t.Fatalf("%.1f resident bytes per block, budget %d", perBlock, budget)
	}
	runtime.KeepAlive(frames)
}
