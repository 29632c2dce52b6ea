// Package trace defines the memory-request representation shared by every
// component in the repository: the Mocktails modeller, the synthesis engine,
// the baseline models, and the DRAM/cache simulators.
//
// A request carries the four features visible at the interface between a
// compute device and the memory system (Mocktails §III): a cycle timestamp,
// a byte address, an operation (read or write), and a size in bytes.
package trace

import (
	"cmp"
	"fmt"
	"slices"
)

// Op is the operation of a memory request.
type Op uint8

const (
	// Read is a memory read request.
	Read Op = iota
	// Write is a memory write request.
	Write
)

// String returns "R" for reads and "W" for writes.
func (o Op) String() string {
	if o == Read {
		return "R"
	}
	return "W"
}

// Request is one memory request as observed at the device/memory interface.
type Request struct {
	// Time is the injection timestamp in cycles.
	Time uint64
	// Addr is the byte address of the first byte accessed.
	Addr uint64
	// Size is the number of bytes accessed.
	Size uint32
	// Op is Read or Write.
	Op Op
}

// End returns the first byte address past the request, i.e. Addr+Size.
func (r Request) End() uint64 { return r.Addr + uint64(r.Size) }

// String formats the request for debugging.
func (r Request) String() string {
	return fmt.Sprintf("{t=%d %s 0x%x +%d}", r.Time, r.Op, r.Addr, r.Size)
}

// Trace is an ordered sequence of memory requests. Mocktails treats the
// order of a trace as the injection order; traces replayed into the timing
// simulator must be sorted by Time.
type Trace []Request

// Clone returns a deep copy of the trace.
func (t Trace) Clone() Trace {
	c := make(Trace, len(t))
	copy(c, t)
	return c
}

// SortByTime stably sorts the trace by timestamp, preserving the relative
// order of requests that share a cycle.
func (t Trace) SortByTime() {
	slices.SortStableFunc(t, func(a, b Request) int { return cmp.Compare(a.Time, b.Time) })
}

// Sorted reports whether the trace is non-decreasing in time.
func (t Trace) Sorted() bool {
	for i := 1; i < len(t); i++ {
		if t[i].Time < t[i-1].Time {
			return false
		}
	}
	return true
}

// Duration returns the span in cycles between the first and last request.
// It returns 0 for traces with fewer than two requests.
func (t Trace) Duration() uint64 {
	if len(t) < 2 {
		return 0
	}
	return t[len(t)-1].Time - t[0].Time
}

// Counts returns the number of read and write requests.
func (t Trace) Counts() (reads, writes int) {
	for _, r := range t {
		if r.Op == Read {
			reads++
		} else {
			writes++
		}
	}
	return reads, writes
}

// Bytes returns the total number of bytes requested.
func (t Trace) Bytes() uint64 {
	var n uint64
	for _, r := range t {
		n += uint64(r.Size)
	}
	return n
}

// AddrRange returns the lowest address touched and the first byte past the
// highest address touched. An empty trace returns (0, 0).
func (t Trace) AddrRange() (lo, hi uint64) {
	if len(t) == 0 {
		return 0, 0
	}
	lo, hi = t[0].Addr, t[0].End()
	for _, r := range t[1:] {
		if r.Addr < lo {
			lo = r.Addr
		}
		if r.End() > hi {
			hi = r.End()
		}
	}
	return lo, hi
}

// Footprint returns the number of distinct block-aligned blocks of the
// given size touched by the trace. blockSize must be a power of two.
func (t Trace) Footprint(blockSize uint64) int {
	if blockSize == 0 {
		return 0
	}
	seen := make(map[uint64]struct{})
	for _, r := range t {
		for b := r.Addr / blockSize; b <= (r.End()-1)/blockSize; b++ {
			seen[b] = struct{}{}
		}
	}
	return len(seen)
}

// A Source produces a stream of requests, one at a time, and accepts
// backpressure feedback from a consumer. Both trace replay and Mocktails
// synthesis implement Source, so the simulators are agnostic to whether
// they are driven by the original workload or a synthetic recreation
// (Mocktails §III-C, "Simulator Feedback").
type Source interface {
	// Next returns the next request and true, or false when exhausted.
	Next() (Request, bool)
	// Delay adds the given number of cycles of backpressure delay to all
	// requests that have not yet been returned by Next. The shift is
	// uniform: every later request moves by the same amount, so the
	// order Next emits never depends on the feedback, and a consumer may
	// pull ahead and add the running delay itself (scenario.Replay
	// does).
	Delay(cycles uint64)
}

// Replayer replays a trace in order, applying backpressure delay to the
// timestamps of requests not yet delivered.
type Replayer struct {
	t     Trace
	i     int
	shift uint64
}

// NewReplayer returns a Source that replays t in its current order.
func NewReplayer(t Trace) *Replayer { return &Replayer{t: t} }

// Next returns the next request of the trace.
func (r *Replayer) Next() (Request, bool) {
	if r.i >= len(r.t) {
		return Request{}, false
	}
	req := r.t[r.i]
	r.i++
	req.Time += r.shift
	return req, true
}

// Delay shifts the timestamps of all undelivered requests forward.
func (r *Replayer) Delay(cycles uint64) { r.shift += cycles }

// Remaining returns the number of requests not yet delivered.
func (r *Replayer) Remaining() int { return len(r.t) - r.i }

// Collect drains a Source into a Trace. It stops after limit requests when
// limit > 0.
func Collect(s Source, limit int) Trace {
	var t Trace
	for {
		req, ok := s.Next()
		if !ok {
			return t
		}
		t = append(t, req)
		if limit > 0 && len(t) >= limit {
			return t
		}
	}
}
