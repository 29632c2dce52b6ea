package experiments

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/korder"
	"repro/internal/partition"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// RunCharacterization extends Table II with the quantitative trace
// characterisation behind the paper's motivation: the device classes
// differ in volume, mix, spatial regularity and burstiness.
func (e *Env) RunCharacterization() *Table {
	tab := &Table{
		ID:    "characterization",
		Title: "Trace characterisation (volume, mix, spatial and temporal behaviour)",
		Header: []string{"name", "device", "reqs", "read%", "MB", "fp4K",
			"dom-stride", "stride%", "gapCV"},
	}
	for _, s := range workloads.Catalog() {
		r := analysis.Characterize(e.Trace(s.Name))
		tab.Rows = append(tab.Rows, []string{
			s.Name, s.Device,
			u(uint64(r.Requests)),
			f(r.ReadShare()*100, 0),
			f(float64(r.Bytes)/(1<<20), 1),
			u(uint64(r.Footprint4K)),
			fmt.Sprintf("%d", r.DominantStride),
			f(r.DominantStrideShare*100, 0),
			f(r.GapCV, 1),
		})
	}
	return tab
}

// RunAblationKOrder sweeps the Markov history length of the leaf models
// (an extension; the paper's McC is order 1) on the traces where order-1
// struggles most: strictly periodic access patterns.
func (e *Env) RunAblationKOrder() *Table {
	names := []string{"FBC-Tiled1", "HEVC1", "Crypto1", "T-Rex1"}
	orders := []int{1, 2, 3, 4}
	tab := &Table{
		ID:     "ablation-korder",
		Title:  "Row-hit error (%) vs Markov history length k (k=1 is the paper's McC)",
		Header: []string{"trace", "k=1", "k=2", "k=3", "k=4"},
	}
	for _, name := range names {
		row := []string{name}
		for _, k := range orders {
			p, err := korder.Build(name, e.Trace(name), partition.TwoLevelTS(e.IntervalCycles), k)
			if err != nil {
				panic(err)
			}
			r := dram.Run(korder.Synthesize(p, e.Seed), e.DRAMCfg, e.XbarLat)
			row = append(row, f(e.rowHitError(name, r), 2))
		}
		tab.Rows = append(tab.Rows, row)
	}
	tab.Notes = append(tab.Notes,
		"higher k captures fixed-length stride runs (e.g. the tiled DPU scan) at the cost of larger models")
	return tab
}

// RunEnergy reports the estimated DRAM energy of each device's
// representative trace against its Mocktails clone: synthetic streams
// are only useful for energy studies if they preserve the row-locality
// and volume mix that energy depends on.
func (e *Env) RunEnergy() *Table {
	params := dram.DefaultEnergy()
	tab := &Table{
		ID:    "energy",
		Title: "Estimated DRAM energy (uJ): real trace vs Mocktails clone",
		Header: []string{"device", "trace",
			"real total", "clone total", "real act", "clone act", "err%"},
	}
	for _, dev := range workloads.Devices() {
		s := workloads.ByDevice()[dev][0]
		base := e.Baseline(s.Name).Energy(params)
		clone := e.McC(s.Name).Energy(params)
		tab.Rows = append(tab.Rows, []string{dev, s.Name,
			f(base.Total()/1e6, 1), f(clone.Total()/1e6, 1),
			f(base.Activate/1e6, 1), f(clone.Activate/1e6, 1),
			f(stats.PercentError(clone.Total(), base.Total()), 2)})
	}
	tab.Notes = append(tab.Notes, "DRAMPower-style event energies; see dram.DefaultEnergy for parameters")
	return tab
}

// RunAblationPolicy runs the §VI replacement-policy use case: three SPEC
// proxies under LRU, FIFO and Random L1 replacement, baseline versus
// Mocktails (Dynamic) clone. A useful clone must preserve the policy
// ranking.
func (e *Env) RunAblationPolicy() *Table {
	tab := &Table{
		ID:     "ablation-policy",
		Title:  "32KB 4-way L1 miss rate (%) by replacement policy: baseline vs clone",
		Header: []string{"benchmark", "policy", "baseline", "Mocktails(Dynamic)"},
	}
	for _, name := range []string{"gobmk", "omnetpp", "libquantum"} {
		base := e.SpecTrace(name)
		clone := e.SpecClone(name, 0)
		for _, pol := range []cache.Policy{cache.LRU, cache.FIFO, cache.Random} {
			cfg := cache.Default64(32<<10, 4)
			cfg.Policy = pol
			cfg.Seed = e.Seed
			tab.Rows = append(tab.Rows, []string{name, pol.String(),
				f(runL1(base, cfg), 2), f(runL1(clone, cfg), 2)})
		}
	}
	tab.Notes = append(tab.Notes, "replacement-policy exploration is a §VI use case for Mocktails")
	return tab
}

func runL1(t trace.Trace, cfg cache.Config) float64 {
	h, err := cache.NewHierarchy(cfg, cache.L2Default())
	if err != nil {
		panic(err)
	}
	h.Run(t)
	return h.L1.Stats().MissRate()
}

// RunSoC runs the shared-memory SoC mix (the soc_mix example as an
// experiment): three devices' synthetic streams merged into one memory
// system, compared with the merged original traces.
func (e *Env) RunSoC() *Table {
	names := []string{"T-Rex1", "HEVC1", "FBC-Linear1"}
	var real, mock []trace.Puller
	for i, name := range names {
		tr := e.Trace(name)
		real = append(real, trace.NewReplayer(tr))
		p, err := core.Build(name, tr, partition.TwoLevelTS(e.IntervalCycles))
		if err != nil {
			panic(err)
		}
		mock = append(mock, core.SynthesizeFrom(p, e.Seed+uint64(i)))
	}
	base := dram.Run(trace.Merge(real...), e.DRAMCfg, e.XbarLat)
	syn := dram.Run(trace.Merge(mock...), e.DRAMCfg, e.XbarLat)
	tab := &Table{
		ID:     "soc",
		Title:  "Shared-memory SoC (GPU+VPU+DPU): merged real traces vs merged clones",
		Header: []string{"metric", "real", "mocktails", "err%"},
	}
	add := func(name string, r, g float64) {
		tab.Rows = append(tab.Rows, []string{name, f(r, 2), f(g, 2),
			f(stats.PercentError(g, r), 2)})
	}
	add("read row hits", float64(base.ReadRowHits()), float64(syn.ReadRowHits()))
	add("write row hits", float64(base.WriteRowHits()), float64(syn.WriteRowHits()))
	add("avg read queue", base.AvgReadQueueLen(), syn.AvgReadQueueLen())
	add("avg write queue", base.AvgWriteQueueLen(), syn.AvgWriteQueueLen())
	add("avg latency", base.AvgLatency, syn.AvgLatency)
	return tab
}
