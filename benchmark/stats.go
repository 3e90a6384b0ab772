package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// percentile returns the p-th percentile (0..100) of values by linear
// interpolation between closest ranks, the same rule as numpy's default.
// It sorts a copy; an empty input yields NaN so a missing sample can never
// pass for a fast one.
func percentile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	frac := rank - float64(lo)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(values []float64) float64 { return percentile(values, 50) }

func sum(values []float64) float64 {
	s := 0.0
	for _, v := range values {
		s += v
	}
	return s
}

func mean(values []float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	return sum(values) / float64(len(values))
}

// quartiles returns Q1 and Q3 as Python's statistics.quantiles(values, n=4)
// does (the "exclusive" method), so the repeat tool computes the same spread
// the acceptance driver computes.
func quartiles(values []float64) (q1, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return math.NaN(), math.NaN()
	}
	at := func(i int) float64 { // i-th of 4 cut points
		pos := float64(i) * float64(n+1) / 4 // 1-based position
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := pos - float64(j)
		return s[j-1] + delta*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// dueLatency is the open-loop latency rule: a request is timed from the
// instant it was due on the arrival schedule, not from when a free
// connection finally sent it, so a stall is charged to every request that
// queued behind it.
func dueLatency(due, done time.Time) time.Duration { return done.Sub(due) }

// dueTime is the instant arrival k of a fixed-rate open loop is due.
func dueTime(start time.Time, k int, rate float64) time.Time {
	return start.Add(time.Duration(float64(k) / rate * float64(time.Second)))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// selfCPU returns this process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeap forces a collection and returns the bytes of live heap objects.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// clockTick is USER_HZ, the unit of the CPU fields of /proc/<pid>/stat; it
// is 100 on every Linux ABI Go supports.
const clockTick = 100

// procCPU reads a child's cumulative user+system CPU time from /proc.
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0, err
	}
	// The command name (field 2) is parenthesised and may hold spaces;
	// fields 14 and 15 (utime, stime) are counted after its closing ')'.
	s := string(data)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("procCPU: malformed stat for pid %d", pid)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("procCPU: short stat for pid %d", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("procCPU: bad cpu fields for pid %d", pid)
	}
	return time.Duration(ut+st) * time.Second / clockTick, nil
}

// procRSS reads a child's resident set size in bytes from /proc.
func procRSS(pid int) (int64, error) {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/statm")
	if err != nil {
		return 0, err
	}
	f := strings.Fields(string(data))
	if len(f) < 2 {
		return 0, fmt.Errorf("procRSS: short statm for pid %d", pid)
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return 0, err
	}
	return pages * int64(os.Getpagesize()), nil
}
