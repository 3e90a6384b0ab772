package transport

import (
	"fmt"
	"net"
	"strings"

	"mendel/internal/obs"
)

// reqName returns the short metric label of a request type: "wire.Ping"
// becomes "Ping".
func reqName(req any) string {
	name := fmt.Sprintf("%T", req)
	if i := strings.LastIndexByte(name, '.'); i >= 0 {
		name = name[i+1:]
	}
	return name
}

// Register surfaces the resilient caller's counters in a registry as
// snapshot-time gauges, so /metrics and cluster-wide aggregation see retry,
// circuit-breaker and timeout activity without double bookkeeping.
func (r *ResilientCaller) Register(reg *obs.Registry) {
	if r == nil || reg == nil {
		return
	}
	reg.SetGaugeFunc("rpc_resilient_calls", r.calls.Load)
	reg.SetGaugeFunc("rpc_resilient_attempts", r.attempts.Load)
	reg.SetGaugeFunc("rpc_resilient_retries", r.retries.Load)
	reg.SetGaugeFunc("rpc_resilient_failures", r.failures.Load)
	reg.SetGaugeFunc("rpc_resilient_timeouts", r.timeouts.Load)
	reg.SetGaugeFunc("rpc_breaker_trips", r.trips.Load)
	reg.SetGaugeFunc("rpc_breaker_rejections", r.rejected.Load)
	reg.SetGaugeFunc("rpc_breaker_half_open_probes", r.probes.Load)
	reg.SetGaugeFunc("rpc_breaker_open", func() int64 { return int64(r.Stats().OpenBreakers) })
}

// countingConn counts the bytes crossing a net.Conn into two counters.
type countingConn struct {
	net.Conn
	sent *obs.Counter
	recv *obs.Counter
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.recv.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.sent.Add(int64(n))
	return n, err
}
