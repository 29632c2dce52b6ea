// Package dram implements a cycle-level multi-channel DRAM controller
// model in the style of the gem5 memory controller the paper validates
// against (Hansson et al., ISPASS 2014): per-channel read and write queues,
// burst splitting to the DRAM interface width, FR-FCFS scheduling, an
// open-adaptive page policy, and a write-drain mode governed by high/low
// watermarks. The model exposes exactly the metrics the paper reports:
// read/write bursts, queue lengths seen by arriving requests, row hits,
// reads per read-to-write turnaround, per-bank accesses and request
// latency.
package dram

// Config describes the memory system. The defaults mirror Table III of
// the paper.
type Config struct {
	// Channels is the number of independent memory channels.
	Channels int
	// RanksPerChannel is the number of ranks per channel. The timing
	// model folds ranks into the bank count (Table III uses one rank).
	RanksPerChannel int
	// BanksPerRank is the number of banks per rank.
	BanksPerRank int
	// BurstBytes is the DRAM interface burst size; requests are split
	// into bursts of this many bytes.
	BurstBytes uint64
	// RowBufferBytes is the per-bank row-buffer (page) size, which also
	// sets the channel-interleaving granularity.
	RowBufferBytes uint64
	// ReadQueueDepth and WriteQueueDepth are per-channel queue
	// capacities in bursts.
	ReadQueueDepth  int
	WriteQueueDepth int
	// WriteHighRatio and WriteLowRatio are the write-drain watermarks as
	// fractions of WriteQueueDepth.
	WriteHighRatio float64
	WriteLowRatio  float64

	// Timing parameters in controller cycles.
	TRP    uint64 // precharge
	TRCD   uint64 // activate (row open)
	TCL    uint64 // column access (CAS)
	TBurst uint64 // data transfer per burst
	TWR    uint64 // write recovery
	TRTW   uint64 // read-to-write bus turnaround
	TWTR   uint64 // write-to-read bus turnaround

	// TREFI, when non-zero, enables periodic refresh: every TREFI
	// cycles each channel pauses for TRFC cycles, closing every row.
	// Disabled by default so that the Table III validation platform
	// stays minimal; enable with WithRefresh for refresh studies.
	TREFI uint64
	TRFC  uint64

	// ChargeCacheEntries, when non-zero, enables a per-channel
	// ChargeCache (Hassan et al., HPCA 2016) with that many entries:
	// activating a row that was closed recently costs TRCDReduced
	// instead of TRCD. Zero disables the optimisation (the default).
	ChargeCacheEntries int
	// TRCDReduced is the activation latency on a ChargeCache hit.
	TRCDReduced uint64
}

// WithRefresh returns a copy of the configuration with periodic refresh
// enabled using LPDDR-class intervals (all-bank refresh every ~3.9k
// cycles costing ~210 cycles).
func (c Config) WithRefresh() Config {
	c.TREFI = 3900
	c.TRFC = 210
	return c
}

// WithChargeCache returns a copy of the configuration with an
// entries-deep ChargeCache enabled and the reduced activation latency
// set to roughly a third of tRCD, mirroring the HPCA 2016 evaluation.
func (c Config) WithChargeCache(entries int) Config {
	c.ChargeCacheEntries = entries
	c.TRCDReduced = c.TRCD / 3
	return c
}

// Default returns the Table III configuration: 4 channels, 1 rank, 8
// banks, 32-byte bursts, 32-entry read and 64-entry write queues, 85%/50%
// write thresholds, with LPDDR-class timings.
func Default() Config {
	return Config{
		Channels:        4,
		RanksPerChannel: 1,
		BanksPerRank:    8,
		BurstBytes:      32,
		RowBufferBytes:  1024,
		ReadQueueDepth:  32,
		WriteQueueDepth: 64,
		WriteHighRatio:  0.85,
		WriteLowRatio:   0.50,
		TRP:             15,
		TRCD:            15,
		TCL:             15,
		TBurst:          4,
		TWR:             12,
		TRTW:            6,
		TWTR:            8,
	}
}

// banks returns the total banks per channel.
func (c *Config) banks() int { return c.RanksPerChannel * c.BanksPerRank }

// writeHigh returns the write-drain start threshold in bursts.
func (c Config) writeHigh() int {
	n := int(float64(c.WriteQueueDepth) * c.WriteHighRatio)
	if n < 1 {
		n = 1
	}
	return n
}

// writeLow returns the write-drain stop threshold in bursts.
func (c Config) writeLow() int {
	return int(float64(c.WriteQueueDepth) * c.WriteLowRatio)
}

// mapAddr decomposes a burst-aligned address into channel, bank and row
// following a RoBaChCo-style interleave: consecutive row-buffer-sized
// stripes rotate across channels, then banks, with the row above.
func (c *Config) mapAddr(addr uint64) (ch, bank int, row uint64) {
	stripe := addr / c.RowBufferBytes
	ch = int(stripe % uint64(c.Channels))
	rest := stripe / uint64(c.Channels)
	bank = int(rest % uint64(c.banks()))
	row = rest / uint64(c.banks())
	return ch, bank, row
}
