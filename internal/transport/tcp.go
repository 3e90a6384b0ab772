package transport

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"mendel/internal/obs"
	"mendel/internal/wire"
)

// The TCP protocol is one length-prefixed request/response framing,
// [uvarint length][payload], spoken from a connection's first byte. A request
// payload is wire.AppendRequest (trace context, then the message); a response
// payload is wire.AppendMessage or wire.AppendErrorResponse. How each message
// is encoded is the wire package's business alone. A connection carries one
// exchange at a time and is pooled per address between calls.
const (
	// maxFrameHeader is the widest possible frame header (a uvarint length).
	// Frame builders reserve this much padding up front so header and
	// payload go out in a single Write.
	maxFrameHeader = binary.MaxVarintLen64

	// maxFramePayload bounds a frame so a corrupt or adversarial length
	// prefix is rejected outright.
	maxFramePayload = 1 << 30

	// frameChunk is readFrame's first allocation for a payload; the buffer
	// then doubles only as bytes arrive, so a length prefix alone cannot
	// make the receiver allocate more than this.
	frameChunk = 1 << 20
)

// TCPServer serves a node's handler over a TCP listener.
type TCPServer struct {
	ln net.Listener

	mu      sync.Mutex
	handler Handler
	reg     *obs.Registry
	conns   map[net.Conn]bool
	closed  bool
	wg      sync.WaitGroup
}

// Observe attaches a metrics registry: connections accepted afterwards
// count request totals, handler errors, handler latency and bytes in/out.
func (s *TCPServer) Observe(reg *obs.Registry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.reg = reg
}

// SetHandler installs or replaces the request handler. It exists so a node
// can learn its bound address (needed for its own identity) before wiring
// itself in; requests arriving while no handler is set receive an error.
func (s *TCPServer) SetHandler(h Handler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.handler = h
}

// ListenTCP starts serving handler on addr (e.g. "127.0.0.1:0") and returns
// the server; Addr reports the bound address.
func ListenTCP(addr string, h Handler) (*TCPServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	s := &TCPServer{ln: ln, handler: h, conns: make(map[net.Conn]bool)}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the listener's bound address.
func (s *TCPServer) Addr() string { return s.ln.Addr().String() }

// Close stops the listener and all open connections, waiting for handler
// goroutines to drain.
func (s *TCPServer) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	err := s.ln.Close()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return err
}

func (s *TCPServer) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = true
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

func (s *TCPServer) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	s.mu.Lock()
	reg := s.reg
	s.mu.Unlock()
	var rw io.ReadWriter = conn
	if reg != nil {
		rw = &countingConn{Conn: conn,
			sent: reg.Counter("server_bytes_sent"), recv: reg.Counter("server_bytes_recv")}
	}
	br := bufio.NewReader(rw)
	for {
		payload, err := readFrame(br)
		if err != nil {
			return
		}
		reqTC, reqV, err := wire.DecodeRequest(payload)
		if err != nil {
			// A frame that does not decode means the peer is not speaking
			// this protocol: drop the connection rather than answer garbage.
			return
		}
		s.mu.Lock()
		h := s.handler
		s.mu.Unlock()
		var respV any
		var errStr string
		start := time.Now()
		if h == nil {
			errStr = "transport: server has no handler installed"
		} else if resp, err := safeHandle(h, reqTC, reqV); err != nil {
			errStr = err.Error()
		} else {
			respV = resp
		}
		if reg != nil {
			reg.Counter("server_requests").Inc()
			reg.Histogram("server_handle_ns").Observe(time.Since(start).Nanoseconds())
			reg.Histogram("server_handle_ns." + reqName(reqV)).Observe(time.Since(start).Nanoseconds())
			if errStr != "" {
				reg.Counter("server_errors").Inc()
			}
		}
		if err := writeResponse(rw, respV, errStr); err != nil {
			return
		}
	}
}

// safeHandle invokes the handler, converting a panic into an error so one
// poisoned request surfaces as a RemoteError on the client instead of
// killing the connection goroutine (and, unrecovered, the whole node). A
// valid trace context from the request payload is re-injected into the
// handler's context, completing server-side trace extraction.
func safeHandle(h Handler, tc obs.TraceContext, req any) (resp any, err error) {
	defer func() {
		if r := recover(); r != nil {
			resp, err = nil, fmt.Errorf("transport: handler panic on %T: %v", req, r)
		}
	}()
	ctx := context.Background()
	if tc.Valid() {
		ctx = obs.ContextWithTrace(ctx, tc)
	}
	return h.Handle(ctx, req)
}

// TCPClient is a Caller over TCP with a small per-address connection pool.
type TCPClient struct {
	dialTimeout time.Duration
	poolSize    int

	mu    sync.Mutex
	reg   *obs.Registry
	pools map[string]chan *tcpConn
}

// Observe attaches a metrics registry: connections dialed afterwards count
// rpc_bytes_sent / rpc_bytes_recv, and every fresh dial counts rpc_dials.
// Pooled connections dialed before the registry was attached are dropped so
// the byte accounting covers all subsequent traffic.
func (c *TCPClient) Observe(reg *obs.Registry) {
	c.mu.Lock()
	c.reg = reg
	c.mu.Unlock()
	c.dropPooled()
}

// tcpConn is one pooled connection.
type tcpConn struct {
	c  net.Conn
	w  io.Writer // conn, byte-counting when a registry is attached
	br *bufio.Reader
}

// NewTCPClient creates a client keeping up to poolSize idle connections per
// address (0 selects 4).
func NewTCPClient(poolSize int) *TCPClient {
	if poolSize <= 0 {
		poolSize = 4
	}
	return &TCPClient{
		dialTimeout: 5 * time.Second,
		poolSize:    poolSize,
		pools:       make(map[string]chan *tcpConn),
	}
}

func (c *TCPClient) pool(addr string) chan *tcpConn {
	c.mu.Lock()
	defer c.mu.Unlock()
	p, ok := c.pools[addr]
	if !ok {
		p = make(chan *tcpConn, c.poolSize)
		c.pools[addr] = p
	}
	return p
}

func (c *TCPClient) get(ctx context.Context, addr string) (tc *tcpConn, pooled bool, err error) {
	select {
	case tc := <-c.pool(addr):
		return tc, true, nil
	default:
	}
	d := net.Dialer{Timeout: c.dialTimeout}
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, false, fmt.Errorf("%w: %v", ErrUnreachable, err)
	}
	c.mu.Lock()
	reg := c.reg
	c.mu.Unlock()
	var rw io.ReadWriter = conn
	if reg != nil {
		reg.Counter("rpc_dials").Inc()
		rw = &countingConn{Conn: conn,
			sent: reg.Counter("rpc_bytes_sent"), recv: reg.Counter("rpc_bytes_recv")}
	}
	return &tcpConn{c: conn, w: rw, br: bufio.NewReader(rw)}, false, nil
}

func (c *TCPClient) put(addr string, tc *tcpConn) {
	select {
	case c.pool(addr) <- tc:
	default:
		tc.c.Close()
	}
}

// Call implements Caller. Deadlines from ctx apply to the socket I/O.
//
// A pooled connection may have gone stale — the server restarted, or an
// idle-connection timeout fired — between the call that parked it and now.
// An I/O failure on a pooled connection therefore drops it and
// transparently retries (draining further stale pool entries, then dialing
// fresh) before any error is reported; Mendel's RPCs are idempotent (pure
// lookups, dedup-on-insert stores), so replaying the request on a fresh
// connection is safe. A freshly dialed connection's failure is final.
func (c *TCPClient) Call(ctx context.Context, addr string, req any) (any, error) {
	trace, _ := obs.TraceFromContext(ctx)
	fp := wire.GetFrame()
	defer wire.PutFrame(fp)
	buf, err := wire.AppendRequest(append((*fp)[:0], framePad...), trace, req)
	if err != nil {
		return nil, fmt.Errorf("transport: encoding request: %w", err)
	}
	*fp = buf
	frame := buildFrame(buf)
	for {
		tc, pooled, err := c.get(ctx, addr)
		if err != nil {
			return nil, err
		}
		if dl, ok := ctx.Deadline(); ok {
			tc.c.SetDeadline(dl)
		} else {
			tc.c.SetDeadline(time.Time{})
		}
		retriable := pooled && ctx.Err() == nil
		if _, err := tc.w.Write(frame); err != nil {
			tc.c.Close()
			if retriable {
				continue
			}
			return nil, fmt.Errorf("%w: send: %v", ErrUnreachable, err)
		}
		resp, errMsg, err := readResponse(tc.br)
		if err != nil {
			tc.c.Close()
			if ctxErr := ctx.Err(); ctxErr != nil {
				return nil, ctxErr
			}
			if retriable {
				continue
			}
			return nil, fmt.Errorf("%w: recv: %v", ErrUnreachable, err)
		}
		c.put(addr, tc)
		if errMsg != "" {
			return nil, &RemoteError{Addr: addr, Msg: errMsg}
		}
		return resp, nil
	}
}

// readResponse reads one response frame and decodes it into a message or a
// remote error string.
func readResponse(br *bufio.Reader) (any, string, error) {
	payload, err := readFrame(br)
	if err != nil {
		return nil, "", err
	}
	return wire.DecodeResponse(payload)
}

// writeResponse encodes and writes one response frame: the handler's error
// if it failed, its message otherwise.
func writeResponse(w io.Writer, respV any, errStr string) error {
	fp := wire.GetFrame()
	defer wire.PutFrame(fp)
	buf := append((*fp)[:0], framePad...)
	if errStr != "" {
		buf = wire.AppendErrorResponse(buf, errStr)
	} else {
		var err error
		if buf, err = wire.AppendMessage(buf, respV); err != nil {
			return err
		}
	}
	*fp = buf
	_, err := w.Write(buildFrame(buf))
	return err
}

// framePad reserves room for the frame header so buildFrame can right-align
// it and the whole frame goes out in one Write (one segment for the small
// query-path frames).
var framePad = make([]byte, maxFrameHeader)

// buildFrame finalizes a buffer whose payload was built after framePad,
// returning the [uvarint length][payload] wire image.
func buildFrame(buf []byte) []byte {
	var hdr [maxFrameHeader]byte
	n := binary.PutUvarint(hdr[:], uint64(len(buf)-maxFrameHeader))
	start := maxFrameHeader - n
	copy(buf[start:], hdr[:n])
	return buf[start:]
}

// readFrame reads one frame, allocating a fresh payload buffer: decoded
// messages hold zero-copy views into it and may be retained indefinitely
// (stored blocks, cached regions), so received frames are never pooled.
// The buffer grows with the bytes actually received — frameChunk first,
// then doubling — so a peer that announces a large frame and stalls costs
// at most frameChunk, not the announced length.
func readFrame(br *bufio.Reader) ([]byte, error) {
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if n > maxFramePayload {
		return nil, fmt.Errorf("transport: frame of %d bytes exceeds limit", n)
	}
	payload := make([]byte, min(n, frameChunk))
	for got := 0; ; {
		k, err := io.ReadFull(br, payload[got:])
		got += k
		if err != nil {
			return nil, err
		}
		if uint64(got) == n {
			return payload, nil
		}
		grown := make([]byte, min(n, 2*uint64(got)))
		copy(grown, payload)
		payload = grown
	}
}

// Close drops all pooled connections.
func (c *TCPClient) Close() error {
	if err := c.dropPooled(); err != nil && !errors.Is(err, net.ErrClosed) {
		return err
	}
	return nil
}

// dropPooled swaps in empty pools and closes every connection the old ones
// held, returning the first close error.
func (c *TCPClient) dropPooled() error {
	c.mu.Lock()
	pools := c.pools
	c.pools = make(map[string]chan *tcpConn)
	c.mu.Unlock()
	var first error
	for _, p := range pools {
	drain:
		for {
			select {
			case tc := <-p:
				if err := tc.c.Close(); err != nil && first == nil {
					first = err
				}
			default:
				break drain
			}
		}
	}
	return first
}
