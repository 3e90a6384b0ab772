package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"mendel/internal/dht"
	"mendel/internal/invindex"
	"mendel/internal/seq"
	"mendel/internal/transport"
	"mendel/internal/vphash"
	"mendel/internal/wire"
)

// indexBatchBlocks is the number of blocks accumulated per node before an
// IndexBlocks message is flushed (a batch ends with a whole run, so it may
// hold a run's worth more).
const indexBatchBlocks = 4096

// Index ingests a sequence set into the cluster following §V-A:
//
//  1. on the first call, a sample of inverted index blocks seeds the
//     vp-prefix hash tree, which is then shipped to every node in a
//     Bootstrap message together with the topology;
//  2. full sequences are placed on their repository shards (consulted later
//     for gapped extension);
//  3. every sequence is fragmented into stride-1 blocks, each hashed first
//     to a group (vp-prefix tree) and then to a node within the group
//     (a SHA-1 ring keyed by the block's sequence and 256-residue region),
//     and shipped in batches of runs: a node gets each stretch of a
//     sequence it holds blocks of once, with the offsets of those blocks,
//     and cuts the blocks itself.
//
// Sequence IDs are remapped onto a cluster-global dense ID space so Index
// may be called repeatedly to grow the database.
func (c *Cluster) Index(ctx context.Context, set *seq.Set) error {
	if set.Kind != c.cfg.Kind {
		return fmt.Errorf("core: indexing %v data into a %v cluster", set.Kind, c.cfg.Kind)
	}
	if set.Len() == 0 {
		return fmt.Errorf("core: empty sequence set")
	}
	blockCfg := invindex.Config{BlockLen: c.cfg.BlockLen, Margin: c.cfg.Margin}
	if err := blockCfg.Validate(); err != nil {
		return err
	}

	c.mu.Lock()
	if c.hashTree == nil {
		tree, err := c.buildHashTree(set, blockCfg)
		if err != nil {
			c.mu.Unlock()
			return err
		}
		c.hashTree = tree
		c.mu.Unlock()
		if err := c.bootstrapNodes(ctx); err != nil {
			return err
		}
		c.mu.Lock()
	}
	base := c.nextID
	c.nextID += seq.ID(set.Len())
	for _, s := range set.Seqs {
		gid := base + s.ID
		c.names[gid] = s.Name
		c.lengths[gid] = s.Len()
		c.totalResidues += s.Len()
	}
	tree := c.hashTree
	c.mu.Unlock()

	w := c.beginWrite()
	if err := c.storeSequences(ctx, set, base, w); err != nil {
		c.invalidateSketches()
		return err
	}
	if err := c.dispatchBlocks(ctx, set, base, blockCfg, tree, w); err != nil {
		c.invalidateSketches()
		return err
	}
	// Sketch maintenance: per-sequence MinHash signatures for the
	// alignment-free Similarity mode, then the group sketches — folded from
	// the write's own placements when the view allows it, else pulled from
	// every node. Both are no-ops when sketching is disabled.
	c.updateSeqSketches(set, base)
	if !c.foldSketches(w) {
		c.refreshSketches(ctx)
	}
	return nil
}

// buildHashTree samples block contents evenly across the set and builds the
// vp-prefix tree (§V-A2). Callers hold c.mu.
func (c *Cluster) buildHashTree(set *seq.Set, blockCfg invindex.Config) (*vphash.Tree, error) {
	total := 0
	for _, s := range set.Seqs {
		total += invindex.BlockCount(s.Len(), blockCfg.BlockLen)
	}
	if total == 0 {
		return nil, fmt.Errorf("core: no sequence long enough for %d-residue blocks", blockCfg.BlockLen)
	}
	stride := total / c.cfg.SampleSize
	if stride < 1 {
		stride = 1
	}
	var sample [][]byte
	count := 0
	for _, s := range set.Seqs {
		for start := 0; start+blockCfg.BlockLen <= s.Len(); start++ {
			if count%stride == 0 {
				sample = append(sample, s.Window(start, blockCfg.BlockLen))
			}
			count++
		}
	}
	depth := c.cfg.DepthThreshold
	if depth == 0 {
		depth = vphash.HalfDepth(len(sample))
	}
	return vphash.Build(c.met, sample, depth, c.cfg.Groups, c.cfg.Seed)
}

// bootstrapNodes ships the shared cluster state to every node. Individual
// unreachable nodes do not fail the bootstrap — the health monitor
// re-bootstraps them on recovery (Pong.Booted tells it to) — but a cluster
// where nobody answers, or a live node that rejects the state, does.
func (c *Cluster) bootstrapNodes(ctx context.Context) error {
	boot, err := c.bootstrapMsg()
	if err != nil {
		return err
	}
	nodes := c.topology().AllNodes()
	_, errs := transport.BroadcastAll(ctx, c.caller, nodes, boot)
	reached := 0
	for i, e := range errs {
		switch {
		case e == nil:
			reached++
		case errors.Is(e, transport.ErrUnreachable):
			// Recovered later by the health monitor.
		default:
			return fmt.Errorf("core: bootstrap %s: %w", nodes[i], e)
		}
	}
	if reached == 0 {
		return fmt.Errorf("core: bootstrap: no node reachable")
	}
	return nil
}

// bootstrapMsg assembles the Bootstrap message carrying the current shared
// cluster state, used both at first ingest and when the health monitor
// re-bootstraps a node that restarted empty.
func (c *Cluster) bootstrapMsg() (wire.Bootstrap, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.hashTree == nil {
		return wire.Bootstrap{}, ErrNotIndexed
	}
	enc, err := c.hashTree.MarshalBinary()
	if err != nil {
		return wire.Bootstrap{}, err
	}
	sp := c.cfg.sketchParams()
	return wire.Bootstrap{
		HashTree:        enc,
		Metric:          c.met.Name(),
		BlockLen:        c.cfg.BlockLen,
		Margin:          c.cfg.Margin,
		Groups:          c.groups,
		Kind:            c.cfg.Kind,
		SketchK:         sp.K,
		SketchBloomBits: sp.BloomBits,
		SketchMinHashK:  sp.MinHashK,
	}, nil
}

// storeSequences places each sequence on its repository shard. Shards are
// independent, so the per-node StoreSequences calls run concurrently. An
// unreachable shard does not fail the ingest: its write set is parked as a
// hint and replayed when the health monitor sees the node return (with
// Replicas >= 2 the surviving copies keep queries at full recall meanwhile).
func (c *Cluster) storeSequences(ctx context.Context, set *seq.Set, base seq.ID, w *sketchWrite) error {
	byNode := make(map[string]*wire.StoreSequences)
	for _, s := range set.Seqs {
		gid := base + s.ID
		for _, node := range c.seqRing.LookupN(seqKey(gid), c.cfg.replicas()) {
			msg := byNode[node]
			if msg == nil {
				msg = &wire.StoreSequences{}
				byNode[node] = msg
			}
			msg.IDs = append(msg.IDs, gid)
			msg.Names = append(msg.Names, s.Name)
			msg.Data = append(msg.Data, s.Data)
		}
	}
	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	for node, msg := range byNode {
		wg.Add(1)
		go func(node string, msg *wire.StoreSequences) {
			defer wg.Done()
			_, err := c.caller.Call(ctx, node, *msg)
			switch {
			case err == nil:
			case errors.Is(err, transport.ErrUnreachable):
				c.hintSequences(node, *msg)
				w.spoilt.Store(true)
			default:
				errOnce.Do(func() { firstErr = fmt.Errorf("core: storing sequences on %s: %w", node, err) })
			}
		}(node, msg)
	}
	wg.Wait()
	return firstErr
}

// hintSequences parks an undeliverable StoreSequences as a hinted handoff.
func (c *Cluster) hintSequences(node string, msg wire.StoreSequences) {
	c.hints.addSequences(node, msg)
	c.reg.Counter("hints_queued").Add(int64(len(msg.IDs)))
}

// hintRuns parks undeliverable runs as a hinted handoff.
func (c *Cluster) hintRuns(node string, runs []wire.Run) {
	c.hints.addRuns(node, runs)
	c.reg.Counter("hints_queued").Add(int64(runBlocks(runs)))
}

// dispatchBlocks fragments, hashes and ships every block, then broadcasts
// BuildIndex so each node adds its staged blocks to its local index in one
// bulk append. Nodes sort the staged set first, so the indexes do not depend
// on the worker count or on RPC arrival order (asserted by
// TestIngestIndependentOfWorkerCount).
func (c *Cluster) dispatchBlocks(ctx context.Context, set *seq.Set, base seq.ID, blockCfg invindex.Config, tree *vphash.Tree, w *sketchWrite) error {
	perGroup, err := c.shipBlocks(ctx, set, base, blockCfg, tree, w)
	c.mu.Lock()
	if err != nil {
		c.groupBlocks = nil // some blocks may have landed: the count is unknown
	}
	if c.groupBlocks != nil {
		for g, n := range perGroup {
			c.groupBlocks[g] += n
		}
	}
	c.mu.Unlock()
	if err != nil {
		return err
	}
	// A node that went down mid-ingest must not fail the build for everyone
	// else: its staged blocks are parked as hints, and the recovery sequence
	// always ends with a BuildIndex, so nothing is lost — only deferred.
	nodes := w.topo.AllNodes()
	_, errs := transport.BroadcastAll(ctx, c.caller, nodes, wire.BuildIndex{})
	for i, e := range errs {
		if e != nil && !errors.Is(e, transport.ErrUnreachable) {
			return fmt.Errorf("core: building local index on %s: %w", nodes[i], e)
		}
	}
	return nil
}

// sendRuns ships one staged batch of runs holding blocks blocks to node,
// parking it as a hinted handoff for replay on recovery if the node is
// unreachable (§VII-B fault tolerance). A hint or a short ack spoils the
// write's sketch fold.
func (c *Cluster) sendRuns(ctx context.Context, node string, b *runBatch, w *sketchWrite) error {
	resp, err := c.caller.Call(ctx, node, wire.IndexBlocks{Runs: b.runs, Stage: true})
	if err != nil {
		if errors.Is(err, transport.ErrUnreachable) {
			c.hintRuns(node, b.runs)
			w.spoilt.Store(true)
			return nil
		}
		return fmt.Errorf("core: indexing blocks on %s: %w", node, err)
	}
	if ack, ok := resp.(wire.IndexBlocksAck); !ok || ack.Accepted != len(b.keys) {
		w.spoilt.Store(true)
	}
	return nil
}

// shipBatchCap is the capacity a fragmentation worker gives each per-node
// batch: the write's block copies spread evenly over the nodes, a quarter
// more for uneven groups, and never past a full batch. A bulk write fills its
// batches without regrowing them, and a single-sequence write allocates for
// its own few blocks, not for indexBatchBlocks.
func shipBatchCap(set *seq.Set, blockCfg invindex.Config, replicas, nodes int) int {
	blocks := 0
	for _, s := range set.Seqs {
		blocks += invindex.BlockCount(s.Len(), blockCfg.BlockLen)
	}
	perNode := blocks * replicas / max(nodes, 1)
	return min(indexBatchBlocks, perNode+perNode/4+1)
}

// runBatch is one node's IndexBlocks under construction in a fragmentation
// worker: its runs, the last of which may still grow, and every run's keys
// back to back, so that a run's Keys is its stretch of keys.
type runBatch struct {
	runs []wire.Run
	keys []int
	from int // keys[from:] are the last run's
}

// add adds the block at start of sequence id, whose residues are data, to
// the batch. It extends the last run when that run is of the same sequence
// and the block's context starts inside the run or right after it, within
// wire.MaxRunResidues; else it opens a run at the block's context. That is
// the rule blockStore.shares applies on the node, so a node stores exactly
// what it stored when each block shipped alone.
func (b *runBatch) add(id seq.ID, data []byte, start int, cfg invindex.Config) {
	lo, hi := max(0, start-cfg.Margin), min(len(data), start+cfg.BlockLen+cfg.Margin)
	if n := len(b.runs); n > 0 && b.runs[n-1].Seq == id {
		r := &b.runs[n-1]
		if lo <= r.Start+len(r.Residues) && hi-r.Start <= wire.MaxRunResidues {
			r.Residues = data[r.Start:hi]
			b.keys = append(b.keys, start-r.Start)
			r.Keys = b.keys[b.from:len(b.keys):len(b.keys)]
			return
		}
	}
	b.from = len(b.keys)
	b.keys = append(b.keys, start-lo)
	b.runs = append(b.runs, wire.Run{Seq: id, Start: lo, Residues: data[lo:hi], Keys: b.keys[b.from:len(b.keys):len(b.keys)]})
}

// shipBlocks is the ingest pipeline: one fragmentation worker per core
// (GOMAXPROCS; a one-core host runs the same pipeline with one worker) pulls
// whole sequences from a feed, slides the block window over each, and hashes
// every window in place through both DHT tiers (vp-prefix tree, then
// dht.Topology.Place, resolved once per group and 256-residue region). Each
// block joins its replica nodes' worker-local batches as a key of a run (see
// runBatch.add); full batches are handed to one sender goroutine per node,
// which serializes that node's IndexBlocks RPCs. Fragmenting/hashing (CPU)
// thus overlaps with RPC encode/transfer, and no two goroutines ever write to
// the same node concurrently. The first error cancels the pipeline; block
// placement is a pure function of the block's content and reference, so
// concurrency never changes where a block lands, and staging (see
// dispatchBlocks) keeps the trees deterministic. It returns the blocks placed
// in each group, each counted once whatever its replicas.
func (c *Cluster) shipBlocks(ctx context.Context, set *seq.Set, base seq.ID, blockCfg invindex.Config, tree *vphash.Tree, w *sketchWrite) ([]int, error) {
	workers := runtime.GOMAXPROCS(0)
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		errOnce  sync.Once
		firstErr error
	)
	fail := func(err error) {
		errOnce.Do(func() {
			firstErr = err
			cancel()
		})
	}

	nodes := w.topo.AllNodes()
	sendCh := make(map[string]chan *runBatch, len(nodes))
	var senders sync.WaitGroup
	for _, node := range nodes {
		ch := make(chan *runBatch, workers)
		sendCh[node] = ch
		senders.Add(1)
		go func(node string, ch <-chan *runBatch) {
			defer senders.Done()
			for b := range ch {
				if ctx.Err() != nil {
					continue // failed: drain so workers never block
				}
				// The sender goroutine owns this node's batches, so hints
				// preserve delivery order per node.
				if err := c.sendRuns(ctx, node, b, w); err != nil {
					fail(err)
				}
			}
		}(node, ch)
	}

	replicas := c.cfg.replicas()
	batchCap := shipBatchCap(set, blockCfg, replicas, len(nodes))
	perGroup := make([]int, w.topo.Groups())
	var countMu sync.Mutex // guards perGroup
	seqCh := make(chan *seq.Sequence)
	var frags sync.WaitGroup
	for range workers {
		frags.Add(1)
		go func() {
			defer frags.Done()
			pending := make(map[string]*runBatch)
			var placed []placement
			counts := make([]int, len(perGroup))
			emit := func(node string, b *runBatch) {
				select {
				case sendCh[node] <- b:
				case <-ctx.Done():
				}
			}
			// regionReps[g] is group g's replica set for the current region,
			// resolved on the region's first block that the tree sends to g.
			regionReps := make([][]string, w.topo.Groups())
			bl := blockCfg.BlockLen
			for s := range seqCh {
				if ctx.Err() != nil {
					continue // drain the feed after a failure
				}
				gid := base + s.ID
				region := -1
				for start := 0; start+bl <= len(s.Data); start++ {
					if r := start >> dht.RegionShift; r != region {
						region = r
						clear(regionReps)
					}
					window := s.Data[start : start+bl]
					group := tree.Group(window)
					if regionReps[group] == nil {
						regionReps[group] = w.topo.Place(group, gid, start, replicas)
					}
					counts[group]++
					for _, node := range regionReps[group] {
						if w.fold {
							placed = append(placed, placement{group, window})
						}
						b := pending[node]
						if b == nil {
							b = &runBatch{keys: make([]int, 0, batchCap)}
							pending[node] = b
						}
						b.add(gid, s.Data, start, blockCfg)
						if len(b.keys) >= indexBatchBlocks {
							emit(node, b)
							delete(pending, node)
						}
					}
				}
			}
			for node, b := range pending {
				emit(node, b)
			}
			w.mu.Lock()
			w.placed = append(w.placed, placed...)
			w.mu.Unlock()
			countMu.Lock()
			for g, n := range counts {
				perGroup[g] += n
			}
			countMu.Unlock()
		}()
	}

feed:
	for _, s := range set.Seqs {
		select {
		case seqCh <- s:
		case <-ctx.Done():
			break feed
		}
	}
	close(seqCh)
	frags.Wait()
	for _, ch := range sendCh {
		close(ch)
	}
	senders.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return perGroup, ctx.Err()
}
