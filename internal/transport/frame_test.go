package transport

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"io"
	"net"
	"runtime"
	"testing"
	"time"

	"mendel/internal/obs"
	"mendel/internal/wire"
)

// frameOf returns payload behind its uvarint length prefix.
func frameOf(payload []byte) []byte {
	return append(binary.AppendUvarint(nil, uint64(len(payload))), payload...)
}

// totalAlloc returns the bytes allocated by the process so far.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// TestTCPStalledFrameCostsBytesReceived sends a header announcing a 1 GiB
// frame, then 10 payload bytes, then hangs up. The server must drop the
// connection having allocated for what arrived, not for what was announced.
func TestTCPStalledFrameCostsBytesReceived(t *testing.T) {
	s := startServer(t, echoHandler{"srv"})
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	runtime.GC()
	before := totalAlloc()
	hdr := binary.AppendUvarint(nil, maxFramePayload)
	if _, err := conn.Write(append(hdr, make([]byte, 10)...)); err != nil {
		t.Fatal(err)
	}
	conn.(*net.TCPConn).CloseWrite()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if n, err := conn.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("server answered a truncated frame: n=%d err=%v", n, err)
	}
	if grown := totalAlloc() - before; grown > 16<<20 {
		t.Fatalf("a 1 GiB header with 10 payload bytes cost the server %d MiB", grown>>20)
	}
}

// TestTCPTrafficPinned pins the bytes a fresh connection carries: the first
// request is one frame holding exactly AppendRequest's payload — no
// handshake precedes it — and a cold message travels as a ColdTag envelope.
func TestTCPTrafficPinned(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	received := make(chan []byte, 2)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		br := bufio.NewReader(conn)
		for _, resp := range []any{wire.GroupSearchResult{}, wire.Pong{Node: "raw"}} {
			payload, err := readFrame(br)
			if err != nil {
				return
			}
			received <- payload
			if writeResponse(conn, resp, "") != nil {
				return
			}
		}
	}()

	reg := obs.NewRegistry()
	c := NewTCPClient(1)
	defer c.Close()
	c.Observe(reg)
	ctx := context.Background()
	gs := wire.GroupSearch{Group: 1, Query: []byte("MKVLATGGQW"), Offsets: []int{0}, WindowLen: 8, Params: wire.DefaultParams()}
	if _, err := c.Call(ctx, ln.Addr().String(), gs); err != nil {
		t.Fatal(err)
	}
	want, err := wire.AppendRequest(nil, obs.TraceContext{}, gs)
	if err != nil {
		t.Fatal(err)
	}
	if got := <-received; !bytes.Equal(got, want) {
		t.Fatalf("GroupSearch payload %x, want AppendRequest's %x", got, want)
	}
	if got, wantN := reg.Counter("rpc_bytes_sent").Value(), int64(len(frameOf(want))); got != wantN {
		t.Fatalf("first GroupSearch sent %d bytes, want exactly its %d-byte frame", got, wantN)
	}

	if _, err := c.Call(ctx, ln.Addr().String(), wire.Ping{}); err != nil {
		t.Fatal(err)
	}
	ping := <-received
	if tcLen := len(wire.AppendTraceContext(nil, obs.TraceContext{})); len(ping) <= tcLen || ping[tcLen] != wire.ColdTag {
		t.Fatalf("Ping payload %x does not carry ColdTag after the trace context", ping)
	}
}

// FuzzReadFrame feeds arbitrary bytes to the server's receive path:
// readFrame, then DecodeRequest. Neither may panic, and together they may
// allocate no more than a fixed slack plus a bounded multiple of the input
// length, whatever length the frame header announces. The slack covers
// readFrame's first chunk and gob's own up-front allocations for a cold
// envelope, which it caps at 10 MiB.
func FuzzReadFrame(f *testing.F) {
	gs, _ := wire.AppendRequest(nil, obs.TraceContext{}, wire.GroupSearch{Query: []byte("MKVLAT"), Offsets: []int{0}, Params: wire.DefaultParams()})
	ping, _ := wire.AppendRequest(nil, obs.TraceContext{Sampled: true}, wire.Ping{})
	f.Add(frameOf(gs))
	f.Add(frameOf(ping))
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add(append(binary.AppendUvarint(nil, maxFramePayload), make([]byte, 10)...))
	f.Add(binary.AppendUvarint(nil, maxFramePayload+1))
	f.Add(append(binary.AppendUvarint(nil, 3<<20), ping...))
	const slack, perByte = 16 << 20, 256
	f.Fuzz(func(t *testing.T, data []byte) {
		before := totalAlloc()
		if payload, err := readFrame(bufio.NewReader(bytes.NewReader(data))); err == nil {
			wire.DecodeRequest(payload)
		}
		if got, limit := totalAlloc()-before, uint64(slack+perByte*len(data)); got > limit {
			t.Fatalf("receiving %d bytes allocated %d (limit %d)", len(data), got, limit)
		}
	})
}
