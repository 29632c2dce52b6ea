package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/partition"
	"repro/internal/privacy"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// This file contains experiments beyond the paper's exhibits: ablations
// of the design choices DESIGN.md calls out (dynamic spatial
// partitioning, temporal-first ordering), the §VI privacy extension, and
// the §VI ChargeCache case study.

// runConfig builds a profile with the given hierarchy and simulates it.
func (e *Env) runConfig(name string, cfg partition.Config) dram.Result {
	p, err := core.Build(name, e.Trace(name), cfg)
	if err != nil {
		panic(err)
	}
	return dram.Run(core.SynthesizeFrom(p, e.Seed), e.DRAMCfg, e.XbarLat)
}

// rowHitError returns the combined read+write row-hit percent error of a
// result against the named trace's baseline.
func (e *Env) rowHitError(name string, r dram.Result) float64 {
	base := e.Baseline(name)
	return (stats.PercentError(float64(r.ReadRowHits()), float64(base.ReadRowHits())) +
		stats.PercentError(float64(r.WriteRowHits()), float64(base.WriteRowHits()))) / 2
}

// RunAblationSpatial compares the spatial partitioning schemes: the
// paper's dynamic scheme, fixed 4-KB blocks, and no spatial layer at all
// (one leaf per temporal interval), reporting geometric-mean row-hit
// error per device class.
func (e *Env) RunAblationSpatial() *Table {
	configs := []struct {
		label string
		cfg   partition.Config
	}{
		{"dynamic", partition.TwoLevelTS(e.IntervalCycles)},
		{"fixed-4KB", partition.Config{Layers: []partition.Layer{
			{Kind: partition.TemporalCycleCount, Param: e.IntervalCycles},
			{Kind: partition.SpatialFixed, Param: 4096},
		}}},
		{"none", partition.Config{Layers: []partition.Layer{
			{Kind: partition.TemporalCycleCount, Param: e.IntervalCycles},
		}}},
	}
	tab := &Table{
		ID:     "ablation-spatial",
		Title:  "Row-hit error (%) by spatial partitioning scheme (geo. mean per device)",
		Header: []string{"device", "dynamic", "fixed-4KB", "no spatial layer"},
	}
	for _, dev := range workloads.Devices() {
		row := []string{dev}
		for _, c := range configs {
			var errs []float64
			for _, s := range workloads.ByDevice()[dev] {
				errs = append(errs, e.rowHitError(s.Name, e.runConfig(s.Name, c.cfg)))
			}
			row = append(row, f(stats.GeoMean(errs), 2))
		}
		tab.Rows = append(tab.Rows, row)
	}
	tab.Notes = append(tab.Notes, "ablates the paper's novel dynamic scheme (§III-A) against HALO-style fixed blocks and no spatial partitioning")
	return tab
}

// RunAblationOrder compares hierarchy orderings: temporal-first (the
// paper's recommendation, §III-D) against spatial-first.
func (e *Env) RunAblationOrder() *Table {
	temporalFirst := partition.TwoLevelTS(e.IntervalCycles)
	spatialFirst := partition.Config{Layers: []partition.Layer{
		{Kind: partition.SpatialDynamic},
		{Kind: partition.TemporalCycleCount, Param: e.IntervalCycles},
	}}
	tab := &Table{
		ID:     "ablation-order",
		Title:  "Row-hit error (%) by hierarchy ordering (geo. mean per device)",
		Header: []string{"device", "temporal-first (2L-TS)", "spatial-first"},
	}
	for _, dev := range workloads.Devices() {
		var tf, sf []float64
		for _, s := range workloads.ByDevice()[dev] {
			tf = append(tf, e.rowHitError(s.Name, e.runConfig(s.Name, temporalFirst)))
			sf = append(sf, e.rowHitError(s.Name, e.runConfig(s.Name, spatialFirst)))
		}
		tab.Rows = append(tab.Rows, []string{dev, f(stats.GeoMean(tf), 2), f(stats.GeoMean(sf), 2)})
	}
	tab.Notes = append(tab.Notes, "the paper recommends partitioning temporally before spatially (§III-D)")
	return tab
}

// RunAblationPrivacy sweeps the §VI privacy extension: Laplace noise of
// decreasing epsilon is added to one profile per device class, and the
// row-hit and latency errors of the noised profiles are reported.
func (e *Env) RunAblationPrivacy() *Table {
	epsilons := []float64{0, 2, 0.5, 0.1, 0.02} // 0 = no noise
	names := []string{"Crypto1", "FBC-Linear1", "T-Rex1", "HEVC1"}
	tab := &Table{
		ID:     "ablation-privacy",
		Title:  "Fidelity vs privacy budget (row-hit error % / latency error %)",
		Header: []string{"trace", "no-noise", "eps=2", "eps=0.5", "eps=0.1", "eps=0.02"},
	}
	for _, name := range names {
		base := e.Baseline(name)
		p, err := core.Build(name, e.Trace(name), partition.TwoLevelTS(e.IntervalCycles))
		if err != nil {
			panic(err)
		}
		row := []string{name}
		for _, eps := range epsilons {
			prof := p
			if eps > 0 {
				prof = privacy.Noise(p, eps, e.Seed)
			}
			r := dram.Run(core.SynthesizeFrom(prof, e.Seed), e.DRAMCfg, e.XbarLat)
			rowErr := e.rowHitError(name, r)
			latErr := stats.PercentError(r.AvgLatency, base.AvgLatency)
			row = append(row, fmt.Sprintf("%.1f/%.1f", rowErr, latErr))
		}
		tab.Rows = append(tab.Rows, row)
	}
	tab.Notes = append(tab.Notes, "implements the differential-privacy obfuscation sketched in §VI; smaller epsilon = stronger privacy")
	return tab
}

// RunChargeCache reproduces the §VI case study: evaluating the
// ChargeCache memory-controller optimisation (Hassan et al., HPCA 2016)
// on heterogeneous devices using Mocktails clones in place of the
// proprietary traces, and checking that the clone predicts the same
// speedup as the real trace.
func (e *Env) RunChargeCache() *Table {
	ccCfg := e.DRAMCfg.WithChargeCache(128)
	tab := &Table{
		ID:    "chargecache",
		Title: "ChargeCache latency improvement (%): real trace vs Mocktails clone",
		Header: []string{"device", "trace",
			"real improv", "clone improv", "cc hit-rate real", "cc hit-rate clone"},
	}
	improv := func(base, opt dram.Result) float64 {
		if base.AvgLatency == 0 {
			return 0
		}
		return (base.AvgLatency - opt.AvgLatency) / base.AvgLatency * 100
	}
	hitRate := func(r dram.Result) float64 {
		var s dram.ChargeCacheStats
		for i := range r.Channels {
			s.Hits += r.Channels[i].ChargeCache.Hits
			s.Lookups += r.Channels[i].ChargeCache.Lookups
		}
		return s.HitRate()
	}
	for _, dev := range workloads.Devices() {
		specs := workloads.ByDevice()[dev]
		s := specs[0] // one representative trace per device
		tr := e.Trace(s.Name)
		p, err := core.Build(s.Name, tr, partition.TwoLevelTS(e.IntervalCycles))
		if err != nil {
			panic(err)
		}
		realBase := e.Baseline(s.Name)
		realOpt := dram.Run(trace.NewReplayer(tr), ccCfg, e.XbarLat)
		cloneBase := dram.Run(core.SynthesizeFrom(p, e.Seed), e.DRAMCfg, e.XbarLat)
		cloneOpt := dram.Run(core.SynthesizeFrom(p, e.Seed), ccCfg, e.XbarLat)
		tab.Rows = append(tab.Rows, []string{dev, s.Name,
			f(improv(realBase, realOpt), 2), f(improv(cloneBase, cloneOpt), 2),
			f(hitRate(realOpt), 1), f(hitRate(cloneOpt), 1)})
	}
	tab.Notes = append(tab.Notes, "the §VI use case: an optimisation studied per device class without proprietary traces")
	return tab
}
