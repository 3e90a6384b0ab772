package core

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"mendel/internal/obs"
	"mendel/internal/seq"
	"mendel/internal/transport"
	"mendel/internal/wire"
)

// The batcher's dispatch policy, tested without a clock: the storage nodes
// are stub handlers on the mem transport that park every batch RPC at a gate
// until the test lets it through ("a slow group", for exactly as long as
// the test needs), and the hold timer is stretched to an hour so that the
// test, not the scheduler, decides when it fires.

// gatedGroup is a one-group cluster whose single node answers batch RPCs
// with empty results after the test releases them.
type gatedGroup struct {
	b   *fanoutBatcher
	reg *obs.Registry
	// arrived carries the item count of each batch RPC as it reaches the
	// node; release lets one parked RPC complete per token.
	arrived chan int
	release chan struct{}
}

func newGatedGroup(t *testing.T) *gatedGroup {
	t.Helper()
	gg := &gatedGroup{
		reg:     obs.NewRegistry(),
		arrived: make(chan int, 4*coalesceMaxBatch), // never blocks the stub
		release: make(chan struct{}),
	}
	net := transport.NewMemNetwork()
	net.Register("n0", transport.HandlerFunc(func(ctx context.Context, req any) (any, error) {
		batch, ok := req.(wire.GroupSearchBatch)
		if !ok {
			return nil, errors.New("stub node: batch RPCs only")
		}
		gg.arrived <- len(batch.Items)
		select {
		case <-gg.release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		n := len(batch.Items)
		return wire.GroupSearchBatchResult{Items: make([]wire.GroupSearchResult, n), Errs: make([]string, n)}, nil
	}))
	cfg := DefaultConfig(seq.Protein)
	cfg.Groups = 1
	c, err := NewCluster(cfg, net, [][]string{{"n0"}})
	if err != nil {
		t.Fatal(err)
	}
	c.SetObservability(gg.reg, nil)
	// Parked batch RPCs finish once the test is over, whatever it released.
	t.Cleanup(func() { close(gg.release) })
	gg.b = c.batcher
	gg.b.hold = time.Hour
	return gg
}

// doResult is what one submitted subquery came back with.
type doResult struct {
	wait time.Duration
	err  error
}

// submit runs one subquery through the batcher on its own goroutine.
func (gg *gatedGroup) submit(ctx context.Context) <-chan doResult {
	out := make(chan doResult, 1)
	go func() {
		_, wait, err := gg.b.do(ctx, wire.GroupSearch{Group: 0}, nil)
		out <- doResult{wait, err}
	}()
	return out
}

// awaitHeld blocks until exactly n subqueries are held for the group.
func (gg *gatedGroup) awaitHeld(t *testing.T, n int) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; {
		gg.b.mu.Lock()
		held := len(gg.b.pending[0])
		gg.b.mu.Unlock()
		if held == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d subqueries held, want %d", held, n)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

func (gg *gatedGroup) timersArmed() int {
	gg.b.mu.Lock()
	defer gg.b.mu.Unlock()
	return len(gg.b.timer)
}

func (gg *gatedGroup) assertCounts(t *testing.T, batches, queries int64) {
	t.Helper()
	if got := gg.reg.Counter("coalesce_batches").Value(); got != batches {
		t.Errorf("coalesce_batches = %d, want %d", got, batches)
	}
	if got := gg.reg.Counter("coalesce_batched_queries").Value(); got != queries {
		t.Errorf("coalesce_batched_queries = %d, want %d", got, queries)
	}
	if got := gg.reg.Histogram("coalesce_wait_ns").Count(); got != queries {
		t.Errorf("coalesce_wait_ns holds %d observations, want %d", got, queries)
	}
}

func mustSucceed(t *testing.T, label string, r doResult) {
	t.Helper()
	if r.err != nil {
		t.Fatalf("%s: %v", label, r.err)
	}
}

func TestCoalesceLoneQueryDispatchedAtOnce(t *testing.T) {
	gg := newGatedGroup(t)
	lone := gg.submit(context.Background())
	if n := <-gg.arrived; n != 1 {
		t.Fatalf("lone query travelled in a batch of %d", n)
	}
	// It is at the node already, and nothing is waiting on the clock.
	if armed := gg.timersArmed(); armed != 0 {
		t.Fatalf("%d hold timers armed for a query on an idle group", armed)
	}
	gg.release <- struct{}{}
	r := <-lone
	mustSucceed(t, "lone query", r)
	if r.wait != 0 {
		t.Errorf("lone query reports a coalesce wait of %v", r.wait)
	}
	gg.assertCounts(t, 1, 1)
	if sum := gg.reg.Histogram("coalesce_wait_ns").Sum(); sum != 0 {
		t.Errorf("coalesce_wait_ns sums to %d ns after one immediate dispatch", sum)
	}

	// The group is idle again: the next query does not wait either.
	next := gg.submit(context.Background())
	<-gg.arrived
	gg.release <- struct{}{}
	if r := <-next; r.err != nil || r.wait != 0 {
		t.Errorf("second lone query: wait=%v err=%v", r.wait, r.err)
	}
	gg.assertCounts(t, 2, 2)
}

func TestCoalesceArrivalsWhileBusyLeaveAsOneBatch(t *testing.T) {
	gg := newGatedGroup(t)
	first := gg.submit(context.Background())
	<-gg.arrived // the group is now busy until released

	const n = 5
	var held []<-chan doResult
	for i := 0; i < n; i++ {
		held = append(held, gg.submit(context.Background()))
	}
	gg.awaitHeld(t, n)
	if armed := gg.timersArmed(); armed != 1 {
		t.Fatalf("%d hold timers armed for one busy group", armed)
	}

	// The first batch completing does not flush the held queries early...
	gg.release <- struct{}{}
	mustSucceed(t, "first query", <-first)
	gg.awaitHeld(t, n)
	// ...and a late arrival on the now idle group joins them, not the wire.
	held = append(held, gg.submit(context.Background()))
	gg.awaitHeld(t, n+1)

	go gg.b.flush(0) // the hold timer fires
	if got := <-gg.arrived; got != n+1 {
		t.Fatalf("follow-up batch carries %d items, want %d", got, n+1)
	}
	gg.release <- struct{}{}
	for i, ch := range held {
		r := <-ch
		mustSucceed(t, "held query", r)
		if r.wait <= 0 {
			t.Errorf("held query %d reports wait %v", i, r.wait)
		}
	}
	if armed := gg.timersArmed(); armed != 0 {
		t.Errorf("%d hold timers still armed after the flush", armed)
	}
	gg.assertCounts(t, 2, n+2)
}

// The real hold bound: a held query leaves after coalesceHold even though
// the batch it found in flight has still not returned.
func TestCoalesceHoldIsBoundedWhileGroupStaysBusy(t *testing.T) {
	gg := newGatedGroup(t)
	gg.b.hold = coalesceHold
	first := gg.submit(context.Background())
	<-gg.arrived

	second := gg.submit(context.Background())
	if n := <-gg.arrived; n != 1 { // sent by the timer, first still parked
		t.Fatalf("held query travelled in a batch of %d", n)
	}
	gg.release <- struct{}{}
	gg.release <- struct{}{}
	mustSucceed(t, "first query", <-first)
	r := <-second
	mustSucceed(t, "held query", r)
	if r.wait < coalesceHold {
		t.Errorf("held query waited %v, the timer cannot fire before %v", r.wait, coalesceHold)
	}
	gg.assertCounts(t, 2, 2)
}

func TestCoalesceMaxBatchSplits(t *testing.T) {
	gg := newGatedGroup(t)
	first := gg.submit(context.Background())
	<-gg.arrived

	const extra = 3
	var held []<-chan doResult
	for i := 0; i < coalesceMaxBatch+extra; i++ {
		held = append(held, gg.submit(context.Background()))
	}
	// The queue dispatches itself the moment it reaches the cap, without
	// waiting for the timer or for the batch in flight.
	if got := <-gg.arrived; got != coalesceMaxBatch {
		t.Fatalf("full batch carries %d items, want %d", got, coalesceMaxBatch)
	}
	gg.awaitHeld(t, extra)
	go gg.b.flush(0) // the hold timer fires
	if got := <-gg.arrived; got != extra {
		t.Fatalf("remainder batch carries %d items, want %d", got, extra)
	}
	for i := 0; i < 3; i++ {
		gg.release <- struct{}{}
	}
	mustSucceed(t, "first query", <-first)
	for _, ch := range held {
		mustSucceed(t, "held query", <-ch)
	}
	gg.assertCounts(t, 3, coalesceMaxBatch+extra+1)
}

func TestCoalesceDropsWaitersWhoseQueryIsOver(t *testing.T) {
	gg := newGatedGroup(t)
	first := gg.submit(context.Background())
	<-gg.arrived

	ctx, cancel := context.WithCancel(context.Background())
	staying := []<-chan doResult{gg.submit(context.Background()), gg.submit(context.Background())}
	leaving := gg.submit(ctx)
	gg.awaitHeld(t, 3)
	cancel() // gateway deadline, client gone: before the flush
	if r := <-leaving; !errors.Is(r.err, context.Canceled) {
		t.Fatalf("abandoned waiter got %v, want its ctx.Err()", r.err)
	}

	go gg.b.flush(0) // the hold timer fires
	if got := <-gg.arrived; got != 2 {
		t.Fatalf("batch RPC carries %d items, want 2: the abandoned query must not reach the nodes", got)
	}
	gg.release <- struct{}{}
	gg.release <- struct{}{}
	mustSucceed(t, "first query", <-first)
	for _, ch := range staying {
		mustSucceed(t, "held query", <-ch)
	}
	gg.assertCounts(t, 2, 3)

	// A queue holding nobody but abandoned waiters sends nothing at all.
	busy := gg.submit(context.Background())
	<-gg.arrived
	ctx, cancel = context.WithCancel(context.Background())
	leaving = gg.submit(ctx)
	gg.awaitHeld(t, 1)
	cancel()
	<-leaving
	gg.b.flush(0) // returns at once: there is no batch to wait for
	gg.release <- struct{}{}
	mustSucceed(t, "busy query", <-busy)
	gg.assertCounts(t, 3, 4)
}

// A queue that fills to the cap with nothing but abandoned waiters sends
// nothing and leaves the in-flight count alone: once the group drains, the
// next query still finds it idle.
func TestCoalesceFullQueueOfAbandonedWaitersSendsNothing(t *testing.T) {
	gg := newGatedGroup(t)
	first := gg.submit(context.Background())
	<-gg.arrived

	gone, cancel := context.WithCancel(context.Background())
	cancel()
	for i := 0; i < coalesceMaxBatch; i++ {
		if r := <-gg.submit(gone); !errors.Is(r.err, context.Canceled) {
			t.Fatalf("abandoned waiter %d got %v", i, r.err)
		}
	}
	gg.awaitHeld(t, 0) // the cap took the queue
	gg.release <- struct{}{}
	mustSucceed(t, "first query", <-first)

	lone := gg.submit(context.Background())
	if n := <-gg.arrived; n != 1 { // parks forever on the hour-long hold if the group reads busy
		t.Fatalf("query after the drain travelled in a batch of %d", n)
	}
	gg.release <- struct{}{}
	if r := <-lone; r.err != nil || r.wait != 0 {
		t.Errorf("query after the drain: wait=%v err=%v", r.wait, r.err)
	}
	gg.assertCounts(t, 2, 2)
}

// TestPickEntryIsSeededAndConcurrent pins the two properties of the
// entry-point draw: Config.Seed fixes the sequence, and concurrent fan-outs
// may draw while other goroutines hold the cluster lock for reading.
func TestPickEntryIsSeededAndConcurrent(t *testing.T) {
	mk := func() *Cluster {
		cfg := DefaultConfig(seq.Protein)
		cfg.Groups = 1
		c, err := NewCluster(cfg, transport.NewMemNetwork(), [][]string{{"a", "b", "c"}})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	a, b := mk(), mk()
	for i := 0; i < 64; i++ {
		if x, y := a.pickEntry(3), b.pickEntry(3); x != y {
			t.Fatalf("draw %d: %d vs %d from the same seed", i, x, y)
		}
	}
	// A reader parked on c.mu must not stop the draw (it did when the rng
	// shared that lock and took it exclusively).
	a.mu.RLock()
	defer a.mu.RUnlock()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				if n := a.pickEntry(3); n < 0 || n > 2 {
					t.Errorf("pickEntry(3) = %d", n)
				}
			}
		}()
	}
	wg.Wait()
}
