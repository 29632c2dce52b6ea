package experiments

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/partition"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// fig2Region returns the requests of the paper's Fig. 2 view: the 4-KB
// region with the most read requests among the first 100,000 requests of
// HEVC1 (the reference-frame regions the paper plots are read regions;
// the output write buffer would otherwise dominate).
func (e *Env) fig2Region() (trace.Trace, uint64) {
	t := e.Trace("HEVC1")
	if len(t) > 100000 {
		t = t[:100000]
	}
	counts := make(map[uint64]int)
	for _, r := range t {
		if r.Op == trace.Read {
			counts[r.Addr/4096]++
		}
	}
	var block uint64
	best := -1
	for b, n := range counts {
		if n > best || (n == best && b < block) {
			block, best = b, n
		}
	}
	var in trace.Trace
	for _, r := range t {
		if r.Addr/4096 == block {
			in = append(in, r)
		}
	}
	return in, block
}

// RunFig2 reproduces Fig. 2: the requests falling in one 4-KB region of
// the HEVC1 trace, listed in the order they are sent, with their byte
// offset and size, plus the dynamic spatial partition each request lands
// in.
func (e *Env) RunFig2() *Table {
	in, block := e.fig2Region()
	parts := partition.ByDynamic(in)
	partOf := func(addr uint64) string {
		for i, p := range parts {
			if addr >= p.Lo && addr < p.Hi {
				return string(rune('A' + i%26))
			}
		}
		return "?"
	}
	tab := &Table{
		ID:     "fig2",
		Title:  fmt.Sprintf("Requests from 4KB region 0x%x of HEVC1 (%d requests)", block*4096, len(in)),
		Header: []string{"order", "byte-offset", "size", "op", "dyn-partition"},
	}
	limit := len(in)
	if limit > 40 {
		limit = 40
	}
	for i := 0; i < limit; i++ {
		r := in[i]
		tab.Rows = append(tab.Rows, []string{
			u(uint64(i)), u(r.Addr - block*4096), u(uint64(r.Size)), r.Op.String(), partOf(r.Addr),
		})
	}
	tab.Notes = append(tab.Notes,
		fmt.Sprintf("dynamic spatial partitioning found %d partitions in this region", len(parts)))
	return tab
}

// RunFig3 reproduces Fig. 3: the timing of the Fig. 2 region's requests,
// binned at 50M cycles — clusters of requests separated in time by
// hundreds of millions of cycles (the frames that reuse the region).
func (e *Env) RunFig3() *Table {
	in, block := e.fig2Region()
	times := make([]uint64, len(in))
	for i, r := range in {
		times[i] = r.Time
	}
	const bin = 50_000_000
	bins := stats.TimeBins(times, bin)
	tab := &Table{
		ID:     "fig3",
		Title:  fmt.Sprintf("Requests to 4KB region 0x%x of HEVC1 per 50M-cycle bin", block*4096),
		Header: []string{"bin-start(Mcycles)", "requests"},
	}
	for i, n := range bins {
		tab.Rows = append(tab.Rows, []string{u(uint64(i) * 50), u(n)})
	}
	return tab
}

// RunTable1 reproduces Table I: the strides and sizes of one recurring
// dynamic partition of the Fig. 2 region, modelled with one versus two
// temporal partitions, showing that the finer hierarchy becomes exactly
// Markov-predictable.
func (e *Env) RunTable1() *Table {
	in, _ := e.fig2Region()
	parts := partition.ByDynamic(in)
	// Pick the partition with the most requests (the "F"-like one).
	sort.SliceStable(parts, func(i, j int) bool { return len(parts[i].Reqs) > len(parts[j].Reqs) })
	p := parts[0]
	tab := &Table{
		ID:     "table1",
		Title:  "Requests of the busiest dynamic partition: strides/sizes under 1 vs 2 temporal partitions",
		Header: []string{"addr", "stride", "size", "temporal-half"},
	}
	half := (len(p.Reqs) + 1) / 2
	for i, r := range p.Reqs {
		stride := "N/A"
		if i > 0 {
			stride = fmt.Sprintf("%d", int64(r.Addr)-int64(p.Reqs[i-1].Addr))
		}
		hn := "1st"
		if i >= half {
			hn = "2nd"
			if i == half {
				stride = "N/A" // the second temporal partition restarts
			}
		}
		tab.Rows = append(tab.Rows, []string{fmt.Sprintf("%X", r.Addr), stride, u(uint64(r.Size)), hn})
		if i >= 23 {
			break
		}
	}
	det1 := markovDeterminism(p.Reqs)
	detA := markovDeterminism(p.Reqs[:half])
	detB := markovDeterminism(p.Reqs[half:])
	tab.Notes = append(tab.Notes,
		fmt.Sprintf("stride-Markov determinism: 1 temporal partition %.0f%%, 2 temporal partitions %.0f%% / %.0f%%",
			det1*100, detA*100, detB*100))
	return tab
}

// markovDeterminism returns the fraction of stride-Markov rows with a
// single successor (1.0 = the chain reproduces the sequence perfectly).
func markovDeterminism(reqs trace.Trace) float64 {
	if len(reqs) < 3 {
		return 1
	}
	next := make(map[int64]map[int64]struct{})
	var prev int64
	for i := 1; i < len(reqs); i++ {
		s := int64(reqs[i].Addr) - int64(reqs[i-1].Addr)
		if i > 1 {
			row := next[prev]
			if row == nil {
				row = make(map[int64]struct{})
				next[prev] = row
			}
			row[s] = struct{}{}
		}
		prev = s
	}
	if len(next) == 0 {
		return 1
	}
	det := 0
	for _, row := range next {
		if len(row) == 1 {
			det++
		}
	}
	return float64(det) / float64(len(next))
}

// RunTable2 reproduces Table II: the catalogue of (proxy) traces.
func (e *Env) RunTable2() *Table {
	tab := &Table{
		ID:     "table2",
		Title:  "Proxy traces standing in for the paper's proprietary traces",
		Header: []string{"name", "device", "requests", "description"},
	}
	for _, s := range workloads.Catalog() {
		tab.Rows = append(tab.Rows, []string{s.Name, s.Device, u(uint64(len(e.Trace(s.Name)))), s.Desc})
	}
	return tab
}

// RunTable3 reports the memory configuration in use (Table III).
func (e *Env) RunTable3() *Table {
	c := e.DRAMCfg
	tab := &Table{
		ID:     "table3",
		Title:  "Memory configuration",
		Header: []string{"parameter", "value"},
	}
	tab.Rows = [][]string{
		{"Number of Channels", u(uint64(c.Channels))},
		{"Ranks per Channel & Banks per Rank", fmt.Sprintf("%d & %d", c.RanksPerChannel, c.BanksPerRank)},
		{"Burst Size", fmt.Sprintf("%d bytes", c.BurstBytes)},
		{"Read & Write Queue Size", fmt.Sprintf("%d & %d bursts", c.ReadQueueDepth, c.WriteQueueDepth)},
		{"High & Low Write Threshold", fmt.Sprintf("%.0f%% & %.0f%%", c.WriteHighRatio*100, c.WriteLowRatio*100)},
		{"Row Buffer", fmt.Sprintf("%d bytes", c.RowBufferBytes)},
	}
	return tab
}

// deviceErrors computes the geometric-mean percent error per device class
// for a metric extracted from the simulation results.
func (e *Env) deviceErrors(metric func(dram.Result) float64, model func(*Env, string) dram.Result) map[string]float64 {
	out := make(map[string]float64)
	for dev, specs := range workloads.ByDevice() {
		var errs []float64
		for _, s := range specs {
			ref := metric(e.Baseline(s.Name))
			got := metric(model(e, s.Name))
			errs = append(errs, stats.PercentError(got, ref))
		}
		out[dev] = stats.GeoMean(errs)
	}
	return out
}

// RunFig6 reproduces Fig. 6: the geometric-mean percent error in the
// number of DRAM read and write bursts per device, for 2L-TS (McC) and
// 2L-TS (STM).
func (e *Env) RunFig6() *Table {
	rbM := e.deviceErrors(func(r dram.Result) float64 { return float64(r.ReadBursts()) }, (*Env).McC)
	rbS := e.deviceErrors(func(r dram.Result) float64 { return float64(r.ReadBursts()) }, (*Env).STM)
	wbM := e.deviceErrors(func(r dram.Result) float64 { return float64(r.WriteBursts()) }, (*Env).McC)
	wbS := e.deviceErrors(func(r dram.Result) float64 { return float64(r.WriteBursts()) }, (*Env).STM)
	tab := &Table{
		ID:     "fig6",
		Title:  "Average error (%) per device for the number of DRAM bursts",
		Header: []string{"device", "read-bursts McC", "read-bursts STM", "write-bursts McC", "write-bursts STM"},
	}
	for _, dev := range workloads.Devices() {
		tab.Rows = append(tab.Rows, []string{dev, f(rbM[dev], 2), f(rbS[dev], 2), f(wbM[dev], 2), f(wbS[dev], 2)})
	}
	return tab
}

// RunFig7 reproduces Fig. 7: the average read and write queue lengths per
// device for the baseline and both models.
func (e *Env) RunFig7() *Table {
	tab := &Table{
		ID:    "fig7",
		Title: "Average read and write queue length per device",
		Header: []string{"device",
			"readQ base", "readQ McC", "readQ STM",
			"writeQ base", "writeQ McC", "writeQ STM"},
	}
	for _, dev := range workloads.Devices() {
		var rb, rm, rs, wb, wm, ws []float64
		for _, s := range workloads.ByDevice()[dev] {
			base, mcc, st := e.Baseline(s.Name), e.McC(s.Name), e.STM(s.Name)
			rb = append(rb, base.AvgReadQueueLen())
			rm = append(rm, mcc.AvgReadQueueLen())
			rs = append(rs, st.AvgReadQueueLen())
			wb = append(wb, base.AvgWriteQueueLen())
			wm = append(wm, mcc.AvgWriteQueueLen())
			ws = append(ws, st.AvgWriteQueueLen())
		}
		tab.Rows = append(tab.Rows, []string{dev,
			f(stats.Mean(rb), 2), f(stats.Mean(rm), 2), f(stats.Mean(rs), 2),
			f(stats.Mean(wb), 2), f(stats.Mean(wm), 2), f(stats.Mean(ws), 2)})
	}
	return tab
}

// RunFig8 reproduces Fig. 8: the per-channel distribution of write-queue
// lengths observed by arriving requests for the T-Rex1 GPU workload. The
// table reports each channel's distribution mean and the L1 distance of
// each model's distribution from the baseline's (0 = identical, 2 =
// disjoint).
func (e *Env) RunFig8() *Table {
	base, mcc, st := e.Baseline("T-Rex1"), e.McC("T-Rex1"), e.STM("T-Rex1")
	tab := &Table{
		ID:    "fig8",
		Title: "T-Rex1 per-channel write-queue-length distributions seen by arriving requests",
		Header: []string{"channel", "mean base", "mean McC", "mean STM",
			"L1dist McC", "L1dist STM"},
	}
	for ch := 0; ch < len(base.Channels); ch++ {
		hb := base.Channels[ch].WriteQLenSeen
		hm := mcc.Channels[ch].WriteQLenSeen
		hs := st.Channels[ch].WriteQLenSeen
		tab.Rows = append(tab.Rows, []string{
			u(uint64(ch)), f(hb.Mean(), 2), f(hm.Mean(), 2), f(hs.Mean(), 2),
			f(hb.Distance(hm), 3), f(hb.Distance(hs), 3)})
	}
	return tab
}

// RunFig9 reproduces Fig. 9: the geometric-mean percent error in read and
// write row hits per device.
func (e *Env) RunFig9() *Table {
	rhM := e.deviceErrors(func(r dram.Result) float64 { return float64(r.ReadRowHits()) }, (*Env).McC)
	rhS := e.deviceErrors(func(r dram.Result) float64 { return float64(r.ReadRowHits()) }, (*Env).STM)
	whM := e.deviceErrors(func(r dram.Result) float64 { return float64(r.WriteRowHits()) }, (*Env).McC)
	whS := e.deviceErrors(func(r dram.Result) float64 { return float64(r.WriteRowHits()) }, (*Env).STM)
	tab := &Table{
		ID:     "fig9",
		Title:  "Average error (%) for read and write row hits per device",
		Header: []string{"device", "read-hits McC", "read-hits STM", "write-hits McC", "write-hits STM"},
	}
	for _, dev := range workloads.Devices() {
		tab.Rows = append(tab.Rows, []string{dev, f(rhM[dev], 2), f(rhS[dev], 2), f(whM[dev], 2), f(whS[dev], 2)})
	}
	return tab
}

// RunFig10 reproduces Fig. 10: total read and write row hits for the
// linear versus tiled frame-buffer-compression DPU workloads.
func (e *Env) RunFig10() *Table {
	tab := &Table{
		ID:     "fig10",
		Title:  "Row hits when decompressing frame buffers on the DPU",
		Header: []string{"trace", "metric", "baseline", "McC", "STM"},
	}
	for _, name := range []string{"FBC-Linear1", "FBC-Tiled1"} {
		base, mcc, st := e.Baseline(name), e.McC(name), e.STM(name)
		tab.Rows = append(tab.Rows,
			[]string{name, "read row hits", u(base.ReadRowHits()), u(mcc.ReadRowHits()), u(st.ReadRowHits())},
			[]string{name, "write row hits", u(base.WriteRowHits()), u(mcc.WriteRowHits()), u(st.WriteRowHits())})
	}
	return tab
}

// RunFig11 reproduces Fig. 11: the average number of reads sent to DRAM
// before switching to writes, per memory channel, for the DPU workloads.
func (e *Env) RunFig11() *Table {
	tab := &Table{
		ID:     "fig11",
		Title:  "Average reads per read-to-write turnaround per channel",
		Header: []string{"trace", "channel", "baseline", "McC", "STM"},
	}
	for _, name := range []string{"FBC-Linear1", "FBC-Tiled1"} {
		base, mcc, st := e.Baseline(name), e.McC(name), e.STM(name)
		for ch := 0; ch < len(base.Channels); ch++ {
			tab.Rows = append(tab.Rows, []string{name, u(uint64(ch)),
				f(base.AvgReadsPerTurnaround(ch), 2),
				f(mcc.AvgReadsPerTurnaround(ch), 2),
				f(st.AvgReadsPerTurnaround(ch), 2)})
		}
	}
	return tab
}

// RunFig12 reproduces Fig. 12: per-bank read and write burst counts for
// the FBC-Linear1 DPU workload across every channel.
func (e *Env) RunFig12() *Table {
	base, mcc, st := e.Baseline("FBC-Linear1"), e.McC("FBC-Linear1"), e.STM("FBC-Linear1")
	tab := &Table{
		ID:    "fig12",
		Title: "FBC-Linear1: read/write bursts arriving at each bank",
		Header: []string{"channel", "bank",
			"reads base", "reads McC", "reads STM",
			"writes base", "writes McC", "writes STM"},
	}
	for ch := 0; ch < len(base.Channels); ch++ {
		nb := len(base.Channels[ch].PerBankReadBursts)
		for b := 0; b < nb; b++ {
			tab.Rows = append(tab.Rows, []string{u(uint64(ch)), u(uint64(b)),
				u(base.Channels[ch].PerBankReadBursts[b]),
				u(mcc.Channels[ch].PerBankReadBursts[b]),
				u(st.Channels[ch].PerBankReadBursts[b]),
				u(base.Channels[ch].PerBankWriteBursts[b]),
				u(mcc.Channels[ch].PerBankWriteBursts[b]),
				u(st.Channels[ch].PerBankWriteBursts[b])})
		}
	}
	return tab
}

// RunFig13 reproduces Fig. 13: the sensitivity of the average memory
// access latency error to the temporal partition length, swept from
// 100,000 to 1,000,000 cycles per device class. For each device both the
// mean error and the variance across its traces are reported.
func (e *Env) RunFig13() *Table {
	sizes := []uint64{100000, 200000, 300000, 400000, 500000, 600000, 700000, 800000, 900000, 1000000}
	tab := &Table{
		ID:     "fig13",
		Title:  "Average memory access latency error (%) vs temporal interval size",
		Header: []string{"interval", "CPU", "DPU", "GPU", "VPU", "var CPU", "var DPU", "var GPU", "var VPU"},
	}
	for _, size := range sizes {
		errsByDev := make(map[string][]float64)
		for dev, specs := range workloads.ByDevice() {
			for _, s := range specs {
				ref := e.Baseline(s.Name).AvgLatency
				p, err := core.Build(s.Name, e.Trace(s.Name), partition.TwoLevelTS(size))
				if err != nil {
					panic(err)
				}
				got := dram.Run(core.SynthesizeFrom(p, e.Seed), e.DRAMCfg, e.XbarLat).AvgLatency
				errsByDev[dev] = append(errsByDev[dev], stats.PercentError(got, ref))
			}
		}
		row := []string{u(size)}
		for _, dev := range workloads.Devices() {
			row = append(row, f(stats.Mean(errsByDev[dev]), 2))
		}
		for _, dev := range workloads.Devices() {
			row = append(row, f(stats.Variance(errsByDev[dev]), 2))
		}
		tab.Rows = append(tab.Rows, row)
	}
	return tab
}
