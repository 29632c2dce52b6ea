package dram

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/xbar"
)

// Simulation gauges: the channel models already compute row hits and
// burst counts; these surface the most recent Run's totals to the
// metrics registry (last simulation wins — per-run numbers stay in the
// returned Result).
var (
	gRequests      = obs.NewGauge("dram.requests")
	gReadBursts    = obs.NewGauge("dram.read_bursts")
	gWriteBursts   = obs.NewGauge("dram.write_bursts")
	gReadRowHits   = obs.NewGauge("dram.read_row_hits")
	gWriteRowHits  = obs.NewGauge("dram.write_row_hits")
	gReadRowMisses = obs.NewGauge("dram.read_row_misses")
	gWriteRowMiss  = obs.NewGauge("dram.write_row_misses")
	gAvgLatency    = obs.NewGauge("dram.avg_latency_cycles")
)

// System is a multi-channel memory system fed by a trace.Source through a
// crossbar interconnect (as in the paper's gem5 platform). Use Run to
// simulate a whole source, or NewSystem plus Inject/Drain for finer
// control.
type System struct {
	cfg      Config
	xbar     *xbar.Crossbar
	channels []*channel

	// reqs is the slab of in-flight request state that queued bursts
	// index; free lists the slots of completed requests for reuse.
	reqs      []reqState
	free      []int32
	latSum    uint64 // summed latency of completed requests
	nRequests uint64 // completed requests
}

// NewSystem creates a memory system with the given configuration and
// base interconnect latency in cycles. The crossbar serialises traffic
// per channel at the DRAM burst width per cycle.
func NewSystem(cfg Config, xbarLatency uint64) *System {
	s := &System{
		cfg:  cfg,
		xbar: xbar.New(cfg.Channels, xbarLatency, cfg.BurstBytes),
	}
	s.channels = make([]*channel, cfg.Channels)
	for i := range s.channels {
		s.channels[i] = newChannel(cfg, i, s)
	}
	return s
}

// Inject presents one request to the memory system. The returned delay is
// the backpressure the request experienced beyond its arrival time; the
// caller should feed it back to the source (trace.Source.Delay).
func (s *System) Inject(r trace.Request) (delay uint64) {
	return s.InjectTagged(r, nil)
}

// InjectTagged is Inject with per-source attribution: when dev is
// non-nil, the request's bursts, row hits, observed queue depths and
// latency are accumulated into it in addition to the system-wide
// statistics. Passing each traffic source of a shared scenario its own
// DeviceStats yields the per-device contention breakdown of the
// paper's §VI mixing study; the timing simulation is identical with or
// without tags.
func (s *System) InjectTagged(r trace.Request, dev *DeviceStats) (delay uint64) {
	bb, rb := s.cfg.BurstBytes, s.cfg.RowBufferBytes
	first := r.Addr / bb
	last := first
	if r.Size > 0 {
		last = (r.End() - 1) / bb
	}
	ch, bank, row := s.cfg.mapAddr(first * bb)
	arrival := s.xbar.Transfer(r.Time, ch, max(uint64(r.Size), 1))
	if dev != nil {
		dev.Requests++
	}
	write := r.Op == trace.Write
	req := int32(-1)
	var worst uint64
	for bi := first; ; {
		// The bursts of one row-buffer stripe share channel, bank and
		// row, so the address is split once per stripe.
		stripeLast := min(last, ((bi*bb/rb+1)*rb-1)/bb)
		c := s.channels[ch]
		for ; bi <= stripeLast; bi++ {
			accepted := c.reserve(write, arrival)
			if req < 0 {
				// Allocated once the queue has room, so the slab never
				// outgrows the bursts the queues can hold.
				req = s.alloc(r.Time, int(last-first+1), dev)
			}
			c.push(burst{row: row, arrival: accepted, bank: int32(bank), req: req, write: write}, dev)
			worst = max(worst, accepted-arrival)
		}
		if bi > last {
			return worst
		}
		ch, bank, row = s.cfg.mapAddr(bi * bb)
	}
}

// alloc takes a slab slot for a request injected at inject that spans
// n bursts, reusing the slot of a completed request when there is one.
func (s *System) alloc(inject uint64, n int, dev *DeviceStats) int32 {
	rs := reqState{inject: inject, remaining: n, dev: dev}
	if k := len(s.free); k > 0 {
		i := s.free[k-1]
		s.free = s.free[:k-1]
		s.reqs[i] = rs
		return i
	}
	s.reqs = append(s.reqs, rs)
	return int32(len(s.reqs) - 1)
}

// complete finalises request i once its last burst is done: its
// injection-to-completion latency joins the system's (and its
// device's) sums, and its slot returns to the free list.
func (s *System) complete(i int32) {
	rs := &s.reqs[i]
	lat := rs.done - rs.inject
	s.latSum += lat
	s.nRequests++
	if rs.dev != nil {
		rs.dev.latSum += lat
	}
	*rs = reqState{}
	s.free = append(s.free, i)
}

// Drain services every queued burst, completing every request.
func (s *System) Drain() {
	for _, c := range s.channels {
		c.drain()
	}
}

// Channels returns the number of channels.
func (s *System) Channels() int { return len(s.channels) }

// ChannelStats returns the statistics of channel i.
func (s *System) ChannelStats(i int) *ChannelStats { return &s.channels[i].stats }

// Result aggregates system-wide metrics. Requests are counted, and
// their latency summed, as they complete, so a Result covers every
// injected request once Drain has run.
type Result struct {
	// Per-channel statistics in channel order.
	Channels []ChannelStats
	// AvgLatency is the mean request latency in cycles (injection to
	// last-burst completion), the Fig. 13 metric.
	AvgLatency float64
	// Requests is the number of requests simulated.
	Requests uint64
}

// Result snapshots the metrics. Call after Drain.
func (s *System) Result() Result {
	res := Result{Requests: s.nRequests}
	if s.nRequests > 0 {
		res.AvgLatency = float64(s.latSum) / float64(s.nRequests)
	}
	res.Channels = make([]ChannelStats, len(s.channels))
	for i, c := range s.channels {
		res.Channels[i] = c.stats
		res.Channels[i].BusyUntil = c.busFree
		if c.cc != nil {
			res.Channels[i].ChargeCache = ChargeCacheStats{Hits: c.cc.hits, Lookups: c.cc.lookups}
		}
	}
	return res
}

// Run simulates an entire source against a fresh memory system and
// returns the aggregated result. Backpressure is fed back to the source.
func Run(src trace.Source, cfg Config, xbarLatency uint64) Result {
	s := NewSystem(cfg, xbarLatency)
	for {
		r, ok := src.Next()
		if !ok {
			break
		}
		if d := s.Inject(r); d > 0 {
			src.Delay(d)
		}
	}
	s.Drain()
	res := s.Result()
	gRequests.Set(float64(res.Requests))
	gReadBursts.Set(float64(res.ReadBursts()))
	gWriteBursts.Set(float64(res.WriteBursts()))
	gReadRowHits.Set(float64(res.ReadRowHits()))
	gWriteRowHits.Set(float64(res.WriteRowHits()))
	gReadRowMisses.Set(float64(res.ReadBursts() - res.ReadRowHits()))
	gWriteRowMiss.Set(float64(res.WriteBursts() - res.WriteRowHits()))
	gAvgLatency.Set(res.AvgLatency)
	return res
}

// Aggregate metrics across channels.

// ReadBursts returns the total read bursts across channels.
func (r Result) ReadBursts() uint64 {
	return r.sum(func(c *ChannelStats) uint64 { return c.ReadBursts })
}

// WriteBursts returns the total write bursts across channels.
func (r Result) WriteBursts() uint64 {
	return r.sum(func(c *ChannelStats) uint64 { return c.WriteBursts })
}

// ReadRowHits returns the total read row hits across channels.
func (r Result) ReadRowHits() uint64 {
	return r.sum(func(c *ChannelStats) uint64 { return c.ReadRowHits })
}

// WriteRowHits returns the total write row hits across channels.
func (r Result) WriteRowHits() uint64 {
	return r.sum(func(c *ChannelStats) uint64 { return c.WriteRowHits })
}

func (r Result) sum(f func(*ChannelStats) uint64) uint64 {
	var n uint64
	for i := range r.Channels {
		n += f(&r.Channels[i])
	}
	return n
}

// AvgReadQueueLen returns the mean read-queue length observed by arriving
// read bursts across all channels (Fig. 7).
func (r Result) AvgReadQueueLen() float64 {
	return r.meanHist(func(c *ChannelStats) *stats.Histogram { return c.ReadQLenSeen })
}

// AvgWriteQueueLen returns the mean write-queue length observed by
// arriving write bursts across all channels (Fig. 7).
func (r Result) AvgWriteQueueLen() float64 {
	return r.meanHist(func(c *ChannelStats) *stats.Histogram { return c.WriteQLenSeen })
}

func (r Result) meanHist(pick func(*ChannelStats) *stats.Histogram) float64 {
	var sum float64
	var n uint64
	for i := range r.Channels {
		h := pick(&r.Channels[i])
		sum += h.Mean() * float64(h.Total())
		n += h.Total()
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// AvgReadsPerTurnaround returns the mean number of reads serviced between
// consecutive read-to-write switches on channel i (Fig. 11).
func (r Result) AvgReadsPerTurnaround(i int) float64 {
	return r.Channels[i].ReadsPerTurnaround.Mean()
}

// String summarises the result.
func (r Result) String() string {
	return fmt.Sprintf("dram.Result{reqs=%d rb=%d wb=%d rrh=%d wrh=%d lat=%.1f}",
		r.Requests, r.ReadBursts(), r.WriteBursts(), r.ReadRowHits(), r.WriteRowHits(), r.AvgLatency)
}
