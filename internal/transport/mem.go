package transport

import (
	"context"
	"math/rand"
	"sync"
	"time"

	"mendel/internal/wire"
)

// LatencyModel simulates LAN message delay for the in-memory network: each
// call sleeps Base plus a uniform jitter in [0, Jitter). The zero value
// disables simulation entirely, which benchmarks of pure compute use.
type LatencyModel struct {
	Base   time.Duration
	Jitter time.Duration
}

func (l LatencyModel) enabled() bool { return l.Base > 0 || l.Jitter > 0 }

// chaosState is the per-address failure injection knobs of a MemNetwork:
// together with Fail/Heal and Partition they form the chaos-testing surface
// that stands in for the machine crashes, packet loss and switch faults a
// commodity cluster sees in production.
type chaosState struct {
	// flaky is the probability in [0,1] that a call fails with
	// ErrUnreachable (a lossy or congested link).
	flaky float64
	// failNext makes the next n calls fail (one-shot fault injection).
	failNext int
	// latency overrides the network-wide latency model for this address
	// (a slow disk or an overloaded box).
	latency *LatencyModel
}

// MemNetwork is an in-process transport: nodes register handlers under
// string addresses and calls are direct function invocations, optionally
// delayed by a latency model and optionally round-tripped through the wire
// encoding to guarantee anything that works in-memory also works over TCP.
type MemNetwork struct {
	mu         sync.RWMutex
	handlers   map[string]Handler
	failed     map[string]bool
	chaos      map[string]*chaosState
	partitions map[[2]string]bool
	latency    LatencyModel
	encode     bool
	rng        *rand.Rand
	rngMu      sync.Mutex
}

// MemOption configures a MemNetwork.
type MemOption func(*MemNetwork)

// WithLatency enables simulated per-call latency.
func WithLatency(l LatencyModel) MemOption {
	return func(n *MemNetwork) { n.latency = l }
}

// WithEncodeCheck makes every call serialize its request and response
// through the encoding the TCP transport sends (wire.AppendMessage), so
// encoding bugs surface in in-process tests (chaos suites included) without
// a real network.
func WithEncodeCheck() MemOption {
	return func(n *MemNetwork) { n.encode = true }
}

// WithChaosSeed seeds the RNG behind flaky-drop decisions and latency
// jitter, so chaos tests can log the seed they ran with and replay a
// failure exactly. Without it the network uses a fixed default seed.
func WithChaosSeed(seed int64) MemOption {
	return func(n *MemNetwork) { n.rng = rand.New(rand.NewSource(seed)) }
}

// NewMemNetwork creates an empty in-memory network.
func NewMemNetwork(opts ...MemOption) *MemNetwork {
	n := &MemNetwork{
		handlers:   make(map[string]Handler),
		failed:     make(map[string]bool),
		chaos:      make(map[string]*chaosState),
		partitions: make(map[[2]string]bool),
		rng:        rand.New(rand.NewSource(1)),
	}
	for _, o := range opts {
		o(n)
	}
	return n
}

// Register attaches a handler under addr, replacing any previous handler.
func (n *MemNetwork) Register(addr string, h Handler) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.handlers[addr] = h
}

// Fail marks a node unreachable (failure injection for tests).
func (n *MemNetwork) Fail(addr string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.failed[addr] = true
}

// Heal clears a failure.
func (n *MemNetwork) Heal(addr string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.failed, addr)
}

// chaosFor returns addr's chaos knobs, creating them if needed. Callers
// hold n.mu.
func (n *MemNetwork) chaosFor(addr string) *chaosState {
	c := n.chaos[addr]
	if c == nil {
		c = &chaosState{}
		n.chaos[addr] = c
	}
	return c
}

// SetFlaky makes every call to addr fail with ErrUnreachable independently
// with probability p in [0,1]. p = 0 restores reliable delivery.
func (n *MemNetwork) SetFlaky(addr string, p float64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.chaosFor(addr).flaky = p
}

// FailNext makes the next count calls to addr fail with ErrUnreachable and
// then restores normal delivery — a transient fault rather than a crash.
func (n *MemNetwork) FailNext(addr string, count int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.chaosFor(addr).failNext = count
}

// SetAddrLatency overrides the network-wide latency model for calls to
// addr, simulating a straggler node.
func (n *MemNetwork) SetAddrLatency(addr string, l LatencyModel) {
	n.mu.Lock()
	defer n.mu.Unlock()
	lc := l
	n.chaosFor(addr).latency = &lc
}

// ClearChaos removes all flaky/one-shot/latency injection for addr
// (partitions and Fail marks are cleared separately).
func (n *MemNetwork) ClearChaos(addr string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.chaos, addr)
}

// partitionKey orders a pair of endpoints so {a,b} and {b,a} name the same
// symmetric partition.
func partitionKey(a, b string) [2]string {
	if a > b {
		a, b = b, a
	}
	return [2]string{a, b}
}

// Partition cuts the (bidirectional) link between endpoints a and b while
// leaving both reachable from everyone else — the classic network split.
// Callers are identified by the source address their Bind caller stamps;
// the coordinator-side Caller of the network itself has source "", so
// Partition("", addr) isolates a node from coordinators only.
func (n *MemNetwork) Partition(a, b string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.partitions[partitionKey(a, b)] = true
}

// HealPartition restores the link between a and b.
func (n *MemNetwork) HealPartition(a, b string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.partitions, partitionKey(a, b))
}

// boundCaller is a MemNetwork view that stamps a fixed source address on
// every call so partitions can tell who is calling.
type boundCaller struct {
	net  *MemNetwork
	addr string
}

// Call implements Caller.
func (b boundCaller) Call(ctx context.Context, addr string, req any) (any, error) {
	return b.net.call(ctx, b.addr, addr, req)
}

// Bind returns a Caller whose calls originate from addr, for partition
// simulation. Node-side callers should be bound; the MemNetwork itself is
// also a Caller with the anonymous source "".
func (n *MemNetwork) Bind(addr string) Caller { return boundCaller{net: n, addr: addr} }

// Call implements Caller with the anonymous source "".
func (n *MemNetwork) Call(ctx context.Context, addr string, req any) (any, error) {
	return n.call(ctx, "", addr, req)
}

// call routes one request from src to addr through every enabled chaos
// filter, in the order a real network would apply them: partition and crash
// checks first, then loss, then latency, then delivery. The caller's ctx
// reaches the handler directly, so a trace context attached with
// obs.ContextWithTrace propagates implicitly — the in-memory counterpart of
// the trace context the TCP transport writes ahead of every request.
func (n *MemNetwork) call(ctx context.Context, src, addr string, req any) (any, error) {
	n.mu.Lock()
	h, ok := n.handlers[addr]
	failed := n.failed[addr] || n.partitions[partitionKey(src, addr)]
	lat := n.latency
	enc := n.encode
	var flaky float64
	if c := n.chaos[addr]; c != nil {
		flaky = c.flaky
		if c.failNext > 0 {
			c.failNext--
			failed = true
		}
		if c.latency != nil {
			lat = *c.latency
		}
	}
	n.mu.Unlock()
	if !ok || failed {
		return nil, ErrUnreachable
	}
	if flaky > 0 {
		n.rngMu.Lock()
		drop := n.rng.Float64() < flaky
		n.rngMu.Unlock()
		if drop {
			return nil, ErrUnreachable
		}
	}
	if lat.enabled() {
		delay := lat.Base
		if lat.Jitter > 0 {
			n.rngMu.Lock()
			delay += time.Duration(n.rng.Int63n(int64(lat.Jitter)))
			n.rngMu.Unlock()
		}
		select {
		case <-time.After(delay):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if enc {
		var err error
		if req, err = codecRoundTrip(req); err != nil {
			return nil, err
		}
	}
	resp, err := h.Handle(ctx, req)
	if err != nil {
		return nil, &RemoteError{Addr: addr, Msg: err.Error()}
	}
	if enc {
		if resp, err = codecRoundTrip(resp); err != nil {
			return nil, err
		}
	}
	return resp, nil
}

// codecRoundTrip serializes v exactly as the TCP transport puts a message
// on the wire (wire.AppendMessage) and decodes it back. The decode buffer is
// deliberately not pooled — decoded messages hold zero-copy views into it,
// mirroring the real receive path's retention semantics so any buffer-reuse
// bug shows up in memory-transport tests too.
func codecRoundTrip(v any) (any, error) {
	data, err := wire.AppendMessage(nil, v)
	if err != nil {
		return nil, err
	}
	return wire.DecodeMessage(data)
}
