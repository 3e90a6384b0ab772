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
	span   *obs.Span         // the query's group span; nil when unsampled
	queued time.Time         // when it was held; zero if dispatched on arrival
	wait   time.Duration     // queued → dispatch, written before done is signalled
	done   chan batchOutcome // buffered(1): send never blocks, waiter may abandon
}

// fanoutBatcher is the one way a group subquery leaves the coordinator: it
// sends wire.GroupSearchBatch RPCs to a group entry point, and its policy
// adapts to load by itself. A subquery whose group has nothing in flight
// leaves immediately as a batch of one (the work of a single GroupSearch
// RPC, no waiting); one that arrives while the group is busy is held — for
// at most coalesceHold, or until coalesceMaxBatch are held — and travels
// with every companion that arrives meanwhile, amortizing round trips when
// many queries are in flight (the gateway's serving mode). Queries keep
// their individual results and trace contexts. Coalescing composes with the
// sketch prefilter: searchStrand prunes groupOffsets before the fan-out
// reaches the batcher, so a skipped group contributes nothing to any batch.
type fanoutBatcher struct {
	c    *Cluster
	hold time.Duration // coalesceHold; tests stretch it to take the clock out of play

	mu       sync.Mutex
	inflight map[int]int // batch RPCs outstanding per group
	pending  map[int][]*batchWaiter
	timer    map[int]*time.Timer // armed while pending[g] is non-empty
}

func newFanoutBatcher(c *Cluster) *fanoutBatcher {
	return &fanoutBatcher{
		c:        c,
		hold:     coalesceHold,
		inflight: make(map[int]int),
		pending:  make(map[int][]*batchWaiter),
		timer:    make(map[int]*time.Timer),
	}
}

// do submits one group subquery, waits for its batch to complete, and
// returns this query's share of the reply plus the time it was held for
// companions. The subquery carries the trace context attached to ctx —
// sampled, the unsampled sentinel, or none — so the head sampler's decision
// for this query holds at its entry point and every member. sp is the
// query's group span (nil when unsampled); the batch stamps its retry count
// and hold time on it. Cancelling ctx abandons the wait (the batch itself
// keeps running for its other members).
func (b *fanoutBatcher) do(ctx context.Context, msg wire.GroupSearch, sp *obs.Span) (wire.GroupSearchResult, time.Duration, error) {
	tc, _ := obs.TraceFromContext(ctx)
	w := &batchWaiter{ctx: ctx, item: msg, tc: tc, span: sp, done: make(chan batchOutcome, 1)}
	g := msg.Group
	b.mu.Lock()
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

// send ships one batch to a group entry point drawn at random — the
// symmetric architecture makes any member a valid coordinator — retrying
// with the next member while the chosen one is unreachable, and
// distributes the per-item results. A batch-level failure (every member
// down, malformed reply) fails every query in the batch; a per-item error
// string fails only that query. The RPC outlives any one query, so it runs
// under the transport's per-call timeout rather than a query's ctx.
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
		w.span.SetAttr("coalesce_wait_ns", w.wait.Nanoseconds())
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
		resp, err := b.c.caller.Call(context.Background(), entry, req)
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
		for j, w := range ws {
			w.span.SetAttr("attempts", int64(i+1))
			if bres.Errs[j] != "" {
				w.done <- batchOutcome{err: errors.New(bres.Errs[j])}
				continue
			}
			w.done <- batchOutcome{res: bres.Items[j]}
		}
		return
	}
	fail(lastErr)
}
