package dram

import "repro/internal/stats"

// burst is one DRAM-interface transfer, the scheduling unit of the
// controller. Each queue holds its bursts in arrival order and removal
// keeps that order, so a burst's position in its queue is its FCFS key.
// A burst carries no pointers: req indexes the owning System's slab of
// request state.
type burst struct {
	row     uint64
	arrival uint64
	bank    int32
	req     int32
	write   bool
}

// reqState tracks an in-flight request across its bursts so that the
// system can report per-request latency. It lives in a System-owned
// slab that bursts index; the slot is finalised and recycled when the
// request's last burst completes. dev, when non-nil, receives the
// request's per-source statistics (tagged injection, see
// System.InjectTagged); untagged requests leave it nil and cost the
// channels nothing beyond the nil checks.
type reqState struct {
	inject    uint64
	remaining int
	done      uint64
	dev       *DeviceStats
}

// DeviceStats accumulates the contention statistics of one traffic
// source across a simulation: how many bursts it injected, how many of
// them found their row open, the queue depths its bursts observed on
// arrival, and (after Drain) its mean request latency. A shared memory
// system attributes each of these at the moment it happens, so a
// device's row hits reflect the interleaved row-buffer state all
// devices produce together — the paper's §VI contention study.
type DeviceStats struct {
	Requests     uint64
	ReadBursts   uint64
	WriteBursts  uint64
	ReadRowHits  uint64
	WriteRowHits uint64

	qlenSum uint64 // queue length observed by this device's arriving bursts
	qlenN   uint64
	latSum  uint64 // summed latency of the device's completed requests
}

// AvgQueueLen returns the mean read+write queue length this device's
// bursts observed on arrival.
func (d *DeviceStats) AvgQueueLen() float64 {
	if d.qlenN == 0 {
		return 0
	}
	return float64(d.qlenSum) / float64(d.qlenN)
}

// AvgLatency returns the device's mean request latency in cycles
// (injection to last-burst completion). Valid after Drain.
func (d *DeviceStats) AvgLatency() float64 {
	if d.Requests == 0 {
		return 0
	}
	return float64(d.latSum) / float64(d.Requests)
}

// bankState is the row-buffer state of one bank.
type bankState struct {
	open    bool
	row     uint64
	readyAt uint64
	// hits counts the queued bursts that target the open row, per
	// queue (0 read, 1 write); both are zero while the bank is closed.
	hits [2]int32
}

// qIndex is a burst's queue index in bankState.hits and
// channel.rowHits: 0 for the read queue, 1 for the write queue.
func qIndex(write bool) int {
	if write {
		return 1
	}
	return 0
}

// channel is one memory channel: two queues, a bank array, and a
// FR-FCFS/open-adaptive/write-drain scheduler.
type channel struct {
	cfg   Config
	id    int
	sys   *System // owns the request slab bursts index
	banks []bankState

	// readQ and writeQ are windows of readBack and writeBack. Removal
	// shifts the bursts in front of the removed one, so the window's
	// start advances; push moves it back to the front of its backing
	// array when it reaches the end. A queue never holds more than
	// max(depth, 1) bursts (reserve services one before admitting the
	// next), so the backing arrays never grow.
	readQ, readBack   []burst
	writeQ, writeBack []burst
	// rowHits counts the queued bursts that target their bank's open
	// row, per queue: the sum of the banks' hits.
	rowHits [2]int

	busFree   uint64
	lastWrite bool
	draining  bool
	// writeHigh and writeLow are the write-drain watermarks in bursts.
	writeHigh, writeLow int

	readsSinceTurn uint64

	cc          *chargeCache
	nextRefresh uint64
	stats       ChannelStats
}

// ChannelStats aggregates every per-channel metric the paper reports.
type ChannelStats struct {
	// ReadBursts and WriteBursts count bursts enqueued (Fig. 6).
	ReadBursts  uint64
	WriteBursts uint64
	// ReadRowHits and WriteRowHits count serviced bursts that found
	// their row open (Fig. 9, Fig. 10).
	ReadRowHits  uint64
	WriteRowHits uint64
	// ReadQLenSeen and WriteQLenSeen record the queue length observed by
	// each arriving burst (Fig. 7 averages, Fig. 8 distribution).
	ReadQLenSeen  *stats.Histogram
	WriteQLenSeen *stats.Histogram
	// ReadsPerTurnaround records, at each read-to-write switch, how many
	// reads were serviced since the previous switch to reads (Fig. 11).
	ReadsPerTurnaround *stats.Histogram
	// PerBankReadBursts and PerBankWriteBursts count serviced bursts per
	// bank (Fig. 12).
	PerBankReadBursts  []uint64
	PerBankWriteBursts []uint64
	// ChargeCache reports the optional row-activation cache's hit
	// statistics (zero when the optimisation is disabled).
	ChargeCache ChargeCacheStats
	// Refreshes counts all-bank refresh operations (zero when refresh
	// is disabled).
	Refreshes uint64
	// BusyUntil is the cycle at which the channel finished its last
	// burst, the integration span for background energy.
	BusyUntil uint64
}

func newChannel(cfg Config, id int, sys *System) *channel {
	return &channel{
		cfg:         cfg,
		id:          id,
		sys:         sys,
		writeHigh:   cfg.writeHigh(),
		writeLow:    cfg.writeLow(),
		readBack:    make([]burst, max(cfg.ReadQueueDepth, 1)),
		writeBack:   make([]burst, max(cfg.WriteQueueDepth, 1)),
		banks:       make([]bankState, cfg.banks()),
		cc:          newChargeCache(cfg.ChargeCacheEntries),
		nextRefresh: cfg.TREFI,
		stats: ChannelStats{
			ReadQLenSeen:       stats.NewHistogram(),
			WriteQLenSeen:      stats.NewHistogram(),
			ReadsPerTurnaround: stats.NewHistogram(),
			PerBankReadBursts:  make([]uint64, cfg.banks()),
			PerBankWriteBursts: make([]uint64, cfg.banks()),
		},
	}
}

// reserve prepares the channel to admit a burst at time at: it advances
// the channel and, if the target queue is full, services bursts until a
// slot frees. It returns the admission time (>= at), whose excess over
// at is the backpressure delay experienced by the source.
func (c *channel) reserve(write bool, at uint64) uint64 {
	c.advanceTo(at)
	depth, q := c.cfg.ReadQueueDepth, &c.readQ
	if write {
		depth, q = c.cfg.WriteQueueDepth, &c.writeQ
	}
	accepted := at
	for len(*q) >= depth {
		if !c.step() {
			break
		}
		if c.busFree > accepted {
			accepted = c.busFree
		}
	}
	return accepted
}

// push appends a burst, admitted by reserve at b.arrival, to the tail
// of its queue and records the queue length it observed.
func (c *channel) push(b burst, dev *DeviceStats) {
	q, back := &c.readQ, c.readBack
	if b.write {
		q, back = &c.writeQ, c.writeBack
		c.stats.WriteQLenSeen.Add(len(*q))
		c.stats.WriteBursts++
	} else {
		c.stats.ReadQLenSeen.Add(len(*q))
		c.stats.ReadBursts++
	}
	if dev != nil {
		if b.write {
			dev.WriteBursts++
		} else {
			dev.ReadBursts++
		}
		dev.qlenSum += uint64(len(*q))
		dev.qlenN++
	}
	if bk := &c.banks[b.bank]; bk.open && bk.row == b.row {
		bk.hits[qIndex(b.write)]++
		c.rowHits[qIndex(b.write)]++
	}
	if len(*q) == cap(*q) {
		*q = back[:copy(back, *q)]
	}
	*q = append(*q, b)
}

// advanceTo services bursts while the channel can begin work before t.
func (c *channel) advanceTo(t uint64) {
	for c.busFree < t && (len(c.readQ) > 0 || len(c.writeQ) > 0) {
		if !c.step() {
			return
		}
	}
}

// drain services everything that remains.
func (c *channel) drain() {
	for len(c.readQ) > 0 || len(c.writeQ) > 0 {
		if !c.step() {
			return
		}
	}
}

// step services exactly one burst according to the scheduling policy. It
// returns false when both queues are empty.
func (c *channel) step() bool {
	writeMode := c.chooseMode()
	q := &c.readQ
	if writeMode {
		q = &c.writeQ
	}
	if len(*q) == 0 {
		return false
	}
	idx := c.pickFRFCFS(*q, qIndex(writeMode))
	b := (*q)[idx]
	// Shift the older bursts over the removed one: an FCFS pick
	// (idx 0) moves nothing.
	copy((*q)[1:idx+1], (*q)[:idx])
	*q = (*q)[1:]
	if bk := &c.banks[b.bank]; bk.open && bk.row == b.row {
		bk.hits[qIndex(b.write)]--
		c.rowHits[qIndex(b.write)]--
	}
	c.service(b)
	return true
}

// chooseMode implements write-drain mode switching: writes are delayed
// until the write queue crosses the high watermark (or reads run out),
// then drained down to the low watermark.
func (c *channel) chooseMode() bool {
	wasDraining := c.draining
	if c.draining {
		if len(c.writeQ) <= c.writeLow || len(c.writeQ) == 0 {
			c.draining = false
		}
	} else {
		if len(c.writeQ) >= c.writeHigh || (len(c.readQ) == 0 && len(c.writeQ) > 0) {
			c.draining = true
		}
	}
	if len(c.readQ) == 0 && len(c.writeQ) > 0 {
		c.draining = true
	}
	if len(c.writeQ) == 0 {
		c.draining = false
	}
	if c.draining && !wasDraining {
		// A read-to-write turnaround: record reads serviced since the
		// last turnaround (Fig. 11).
		c.stats.ReadsPerTurnaround.Add(int(c.readsSinceTurn))
		c.readsSinceTurn = 0
	}
	return c.draining
}

// pickFRFCFS returns the index of the burst to service: the oldest
// row-hitting burst if any (first ready), otherwise the oldest burst
// (first come, first served). Queues are in arrival order, so the
// first row hit by position is the oldest one, and position 0 is the
// oldest burst. qi is q's queue index; a queue with no row hit is not
// scanned.
func (c *channel) pickFRFCFS(q []burst, qi int) int {
	if c.rowHits[qi] == 0 {
		return 0
	}
	for i := range q {
		bk := &c.banks[q[i].bank]
		if bk.open && bk.row == q[i].row {
			return i
		}
	}
	return 0
}

// service performs the timing update and statistics for one burst.
func (c *channel) service(b burst) {
	bk := &c.banks[b.bank]
	start := c.busFree
	if b.arrival > start {
		start = b.arrival
	}
	if bk.readyAt > start {
		start = bk.readyAt
	}
	// Periodic all-bank refresh: every row closes and the channel
	// stalls for TRFC.
	for c.cfg.TREFI > 0 && start >= c.nextRefresh {
		refEnd := c.nextRefresh + c.cfg.TRFC
		for i := range c.banks {
			c.banks[i].open = false
			c.banks[i].hits = [2]int32{}
			if c.banks[i].readyAt < refEnd {
				c.banks[i].readyAt = refEnd
			}
		}
		c.rowHits = [2]int{}
		c.stats.Refreshes++
		c.nextRefresh += c.cfg.TREFI
		if start < refEnd {
			start = refEnd
		}
		if bk.readyAt > start {
			start = bk.readyAt
		}
	}
	// Bus-direction turnaround penalty.
	if b.write != c.lastWrite {
		if b.write {
			start += c.cfg.TRTW
		} else {
			start += c.cfg.TWTR
		}
	}
	c.lastWrite = b.write

	hit := bk.open && bk.row == b.row
	var prep uint64
	switch {
	case hit:
		prep = 0
	case bk.open:
		// Conflict: precharge the old row, then activate the new one.
		c.closeRow(b.bank, bk.row)
		prep = c.cfg.TRP + c.activate(b.bank, b.row)
	default:
		prep = c.activate(b.bank, b.row) // closed: activate only
	}
	if !hit {
		c.openRow(b.bank, b.row)
	}
	done := start + prep + c.cfg.TCL + c.cfg.TBurst
	c.busFree = done
	bk.readyAt = done
	if b.write {
		bk.readyAt += c.cfg.TWR
	}

	rs := &c.sys.reqs[b.req]
	if hit {
		if b.write {
			c.stats.WriteRowHits++
		} else {
			c.stats.ReadRowHits++
		}
		if rs.dev != nil {
			if b.write {
				rs.dev.WriteRowHits++
			} else {
				rs.dev.ReadRowHits++
			}
		}
	}
	if b.write {
		c.stats.PerBankWriteBursts[b.bank]++
	} else {
		c.stats.PerBankReadBursts[b.bank]++
		c.readsSinceTurn++
	}

	// Open-adaptive page policy: close the row when nothing queued wants
	// it, keeping it open otherwise.
	if bk.hits == [2]int32{} {
		bk.open = false
		c.closeRow(b.bank, b.row)
		if bk.readyAt < done+c.cfg.TRP {
			bk.readyAt = done + c.cfg.TRP
		}
	}

	if done > rs.done {
		rs.done = done
	}
	if rs.remaining--; rs.remaining == 0 {
		c.sys.complete(b.req)
	}
}

// activate returns the activation latency for opening a row: the reduced
// tRCD when the ChargeCache holds the row, the full tRCD otherwise.
func (c *channel) activate(bank int32, row uint64) uint64 {
	if c.cc != nil && c.cc.lookup(int(bank), row) {
		return c.cfg.TRCDReduced
	}
	return c.cfg.TRCD
}

// closeRow records a row closure in the ChargeCache.
func (c *channel) closeRow(bank int32, row uint64) {
	if c.cc != nil {
		c.cc.insert(int(bank), row)
	}
}

// openRow opens row in bank and counts the queued bursts that target
// it, replacing the counts of the row it closes.
func (c *channel) openRow(bank int32, row uint64) {
	bk := &c.banks[bank]
	for qi, n := range bk.hits {
		c.rowHits[qi] -= int(n)
	}
	bk.open, bk.row, bk.hits = true, row, [2]int32{}
	for qi, q := range [2][]burst{c.readQ, c.writeQ} {
		for i := range q {
			if q[i].bank == bank && q[i].row == row {
				bk.hits[qi]++
			}
		}
		c.rowHits[qi] += int(bk.hits[qi])
	}
}
