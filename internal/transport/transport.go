// Package transport provides the request/response messaging layer of a
// Mendel cluster. Two implementations share one interface: an in-memory
// network that wires nodes together inside a single process (with optional
// simulated latency and failure injection, standing in for the paper's LAN
// testbed), and a TCP transport for real multi-process deployments that
// carries wire-encoded messages in length-prefixed frames over pooled
// connections.
package transport

import (
	"context"
	"errors"
	"fmt"
)

// Handler processes one request addressed to a node and returns its
// response. Implementations must be safe for concurrent calls.
type Handler interface {
	Handle(ctx context.Context, req any) (any, error)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(ctx context.Context, req any) (any, error)

// Handle implements Handler.
func (f HandlerFunc) Handle(ctx context.Context, req any) (any, error) { return f(ctx, req) }

// Caller issues requests to nodes by address. It is the only transport
// capability query coordinators and ingest pipelines need.
type Caller interface {
	Call(ctx context.Context, addr string, req any) (any, error)
}

// ErrUnreachable reports that the destination node does not exist or is
// currently failed/partitioned.
var ErrUnreachable = errors.New("transport: node unreachable")

// RemoteError carries an error string returned by a remote handler so
// callers can distinguish transport failures from application failures.
type RemoteError struct {
	Addr string
	Msg  string
}

// Error implements error.
func (e *RemoteError) Error() string {
	return fmt.Sprintf("transport: remote %s: %s", e.Addr, e.Msg)
}

// Broadcast calls every address concurrently and collects the responses in
// input order. The first error cancels the remaining calls and is returned
// alongside the partial results.
func Broadcast(ctx context.Context, c Caller, addrs []string, req any) ([]any, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type reply struct {
		i    int
		resp any
		err  error
	}
	ch := make(chan reply, len(addrs))
	for i, addr := range addrs {
		go func(i int, addr string) {
			resp, err := c.Call(ctx, addr, req)
			ch <- reply{i, resp, err}
		}(i, addr)
	}
	out := make([]any, len(addrs))
	var firstErr error
	for range addrs {
		r := <-ch
		if r.err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("broadcast to %s: %w", addrs[r.i], r.err)
				cancel()
			}
			continue
		}
		out[r.i] = r.resp
	}
	return out, firstErr
}

// BroadcastAll calls every address concurrently and waits for all calls to
// finish: a failure never cancels the siblings. It returns the responses and
// errors in input order, errs[i] being non-nil exactly when the call to
// addrs[i] failed — the degraded-mode primitive for operations that should
// tolerate individual down nodes rather than abort (topology broadcasts,
// cluster-wide stats).
func BroadcastAll(ctx context.Context, c Caller, addrs []string, req any) (resps []any, errs []error) {
	type reply struct {
		i    int
		resp any
		err  error
	}
	ch := make(chan reply, len(addrs))
	for i, addr := range addrs {
		go func(i int, addr string) {
			resp, err := c.Call(ctx, addr, req)
			ch <- reply{i, resp, err}
		}(i, addr)
	}
	resps = make([]any, len(addrs))
	errs = make([]error, len(addrs))
	for range addrs {
		r := <-ch
		resps[r.i], errs[r.i] = r.resp, r.err
	}
	return resps, errs
}
