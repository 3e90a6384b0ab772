package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"mendel/internal/obs"
	"mendel/internal/transport"
	"mendel/internal/wire"
)

const (
	// coalesceHold bounds how long a subquery that found its group busy
	// waits for companions: the most latency coalescing can cost a query.
	coalesceHold = 2 * time.Millisecond
	// coalesceMaxBatch dispatches a group's queue as soon as this many
	// subqueries are held, so a hot group never builds a batch larger than
	// one entry point comfortably serves.
	coalesceMaxBatch = 32
)

// EnableFanOutCoalescing routes concurrent queries' per-group subqueries
// through a shared batcher that sends wire.GroupSearchBatch RPCs. The
// policy adapts to load by itself: a subquery whose group has nothing in
// flight leaves immediately as a batch of one (exactly the direct path's
// work, no waiting); one that arrives while the group is busy is held — for
// at most coalesceHold, or until coalesceMaxBatch are held — and travels
// with every companion that arrives meanwhile, amortizing round trips when
// many queries are in flight (the gateway's serving mode). Queries keep
// their individual results and trace contexts. Coalescing composes with the
// sketch prefilter: searchStrand prunes groupOffsets before the fan-out
// reaches the batcher, so a skipped group contributes nothing to any batch.
// Like SetObservability, call before serving queries.
func (c *Cluster) EnableFanOutCoalescing() {
	c.batcher = newFanoutBatcher(c)
}

// DisableFanOutCoalescing tears the batcher down, failing any queries still
// held in a group queue. Only for tests and orderly shutdown; like
// EnableFanOutCoalescing it must not race in-flight searches.
func (c *Cluster) DisableFanOutCoalescing() {
	if c.batcher != nil {
		c.batcher.close()
		c.batcher = nil
	}
}

// errCoalescerClosed fails queries caught in the queue by a shutdown.
var errCoalescerClosed = errors.New("core: fan-out coalescer closed")

// batchOutcome is one query's share of a batch reply.
type batchOutcome struct {
	res wire.GroupSearchResult
	err error
}

// batchWaiter is one query's pending subquery in a group queue.
type batchWaiter struct {
	ctx    context.Context // the query's; a waiter whose ctx is done is not shipped
	item   wire.GroupSearch
	tc     obs.TraceContext
	queued time.Time         // when it was held; zero if dispatched on arrival
	wait   time.Duration     // queued → dispatch, written before done is signalled
	done   chan batchOutcome // buffered(1): send never blocks, waiter may abandon
}

// fanoutBatcher coalesces concurrent queries' GroupSearch calls into
// per-group batch RPCs under the policy EnableFanOutCoalescing describes.
type fanoutBatcher struct {
	c      *Cluster
	hold   time.Duration   // coalesceHold; tests stretch it to take the clock out of play
	ctx    context.Context // bounds batch RPCs to the batcher's lifetime
	cancel context.CancelFunc

	mu       sync.Mutex
	closed   bool
	inflight map[int]int // batch RPCs outstanding per group
	pending  map[int][]*batchWaiter
	timer    map[int]*time.Timer // armed while pending[g] is non-empty
}

func newFanoutBatcher(c *Cluster) *fanoutBatcher {
	ctx, cancel := context.WithCancel(context.Background())
	return &fanoutBatcher{
		c:        c,
		hold:     coalesceHold,
		ctx:      ctx,
		cancel:   cancel,
		inflight: make(map[int]int),
		pending:  make(map[int][]*batchWaiter),
		timer:    make(map[int]*time.Timer),
	}
}

// do submits one group subquery, waits for its batch to complete, and
// returns this query's share of the reply plus the time it was held for
// companions. Cancelling ctx abandons the wait (the batch itself keeps
// running for its other members).
func (b *fanoutBatcher) do(ctx context.Context, msg wire.GroupSearch, tc obs.TraceContext) (wire.GroupSearchResult, time.Duration, error) {
	w := &batchWaiter{ctx: ctx, item: msg, tc: tc, done: make(chan batchOutcome, 1)}
	g := msg.Group
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return wire.GroupSearchResult{}, 0, errCoalescerClosed
	}
	var ready []*batchWaiter
	if b.inflight[g] == 0 && len(b.pending[g]) == 0 {
		// Idle group: no companion to wait for, and none worth waiting for.
		ready = []*batchWaiter{w}
		b.inflight[g]++
	} else {
		w.queued = time.Now()
		b.pending[g] = append(b.pending[g], w)
		switch len(b.pending[g]) {
		case coalesceMaxBatch:
			ready = b.takeLocked(g)
		case 1:
			b.timer[g] = time.AfterFunc(b.hold, func() { b.flush(g) })
		}
	}
	b.mu.Unlock()
	if len(ready) > 0 {
		go b.send(g, ready)
	}
	select {
	case out := <-w.done:
		return out.res, w.wait, out.err
	case <-ctx.Done():
		return wire.GroupSearchResult{}, 0, ctx.Err()
	}
}

// takeLocked empties group g's queue, disarms its timer and returns the
// held waiters still worth shipping as one batch, counted in flight. A
// waiter whose query is already over (deadline, client gone) is dropped
// here: its do has returned ctx.Err() and no node should search for it.
// Caller holds b.mu.
func (b *fanoutBatcher) takeLocked(g int) []*batchWaiter {
	held := b.pending[g]
	delete(b.pending, g)
	if t := b.timer[g]; t != nil {
		t.Stop()
		delete(b.timer, g)
	}
	now := time.Now()
	ws := held[:0]
	for _, w := range held {
		if w.ctx.Err() == nil {
			w.wait = now.Sub(w.queued)
			ws = append(ws, w)
		}
	}
	if len(ws) > 0 {
		b.inflight[g]++
	}
	return ws
}

// flush is the hold-timer callback: sends whatever is held for group g.
func (b *fanoutBatcher) flush(g int) {
	b.mu.Lock()
	ws := b.takeLocked(g)
	b.mu.Unlock()
	if len(ws) > 0 {
		b.send(g, ws)
	}
}

// send ships one batch to a group entry point, retrying with the next
// member on unreachability exactly like the direct fan-out path, and
// distributes the per-item results. A batch-level failure (every member
// down, malformed reply) fails every query in the batch; a per-item error
// string fails only that query.
func (b *fanoutBatcher) send(g int, ws []*batchWaiter) {
	defer func() {
		b.mu.Lock()
		b.inflight[g]--
		b.mu.Unlock()
	}()
	req := wire.GroupSearchBatch{
		Group: g,
		Items: make([]wire.GroupSearch, len(ws)),
		TCs:   make([]obs.TraceContext, len(ws)),
	}
	waitNs := b.c.reg.Histogram("coalesce_wait_ns")
	for i, w := range ws {
		req.Items[i] = w.item
		req.TCs[i] = w.tc
		waitNs.Observe(w.wait.Nanoseconds())
	}
	b.c.reg.Counter("coalesce_batches").Inc()
	b.c.reg.Counter("coalesce_batched_queries").Add(int64(len(ws)))
	fail := func(err error) {
		for _, w := range ws {
			w.done <- batchOutcome{err: err}
		}
	}
	members := b.c.topology().GroupNodes(g)
	if len(members) == 0 {
		fail(fmt.Errorf("core: group %d has no members", g))
		return
	}
	start := b.c.pickEntry(len(members))
	var lastErr error
	for i := 0; i < len(members); i++ {
		entry := members[(start+i)%len(members)]
		resp, err := b.c.caller.Call(b.ctx, entry, req)
		if err != nil {
			lastErr = err
			if errors.Is(err, transport.ErrUnreachable) {
				continue
			}
			break
		}
		bres, ok := resp.(wire.GroupSearchBatchResult)
		if !ok {
			lastErr = fmt.Errorf("core: group %d entry %s: malformed batch reply %T", g, entry, resp)
			break
		}
		if len(bres.Items) != len(ws) || len(bres.Errs) != len(ws) {
			lastErr = fmt.Errorf("core: group %d entry %s: batch reply carries %d results for %d items",
				g, entry, len(bres.Items), len(ws))
			break
		}
		for i, w := range ws {
			if bres.Errs[i] != "" {
				w.done <- batchOutcome{err: errors.New(bres.Errs[i])}
				continue
			}
			w.done <- batchOutcome{res: bres.Items[i]}
		}
		return
	}
	fail(lastErr)
}

// close fails every held query and stops accepting new ones.
func (b *fanoutBatcher) close() {
	b.mu.Lock()
	b.closed = true
	var all []*batchWaiter
	for g := range b.pending {
		all = append(all, b.takeLocked(g)...)
	}
	b.mu.Unlock()
	for _, w := range all {
		w.done <- batchOutcome{err: errCoalescerClosed}
	}
	b.cancel()
}
