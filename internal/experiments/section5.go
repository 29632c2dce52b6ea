package experiments

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/hrd"
	"repro/internal/partition"
	"repro/internal/profile"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// The §V methodology: traces of the CPU-to-L1 port for SPEC CPU2006
// proxies, replayed in atomic mode through a write-back L1 (varied) plus
// a 256KB 8-way L2 with 64-B blocks and LRU. Mocktails uses temporal
// partitions of 100,000 requests (from STM) with dynamic or fixed-4KB
// spatial partitioning. HRD models reuse at 64B then 4KB with no phases.

// SpecTrace returns (cached) the proxy trace for a SPEC benchmark.
func (e *Env) SpecTrace(name string) trace.Trace {
	return e.specTraces.get(name, func() trace.Trace {
		t, err := workloads.SPECTrace(name)
		if err != nil {
			panic(err)
		}
		return t
	})
}

// SpecClone returns (cached) the Mocktails recreation of a SPEC proxy
// with dynamic (blockSize == 0) or fixed-size spatial partitioning.
func (e *Env) SpecClone(name string, blockSize uint64) trace.Trace {
	cache := &e.specDyn
	if blockSize != 0 {
		cache = &e.spec4K
	}
	return cache.get(name, func() trace.Trace {
		cfg := partition.TwoLevelRequestCount(100000, blockSize)
		syn, _, err := core.Clone(name, e.SpecTrace(name), cfg, e.Seed)
		if err != nil {
			panic(err)
		}
		return syn
	})
}

// SpecHRD returns (cached) the HRD recreation of a SPEC proxy.
func (e *Env) SpecHRD(name string) trace.Trace {
	return e.specHRD.get(name, func() trace.Trace {
		m := hrd.Fit(e.SpecTrace(name))
		return hrd.Synthesize(m, e.Seed)
	})
}

// CacheRun is the result of one trace through one cache configuration.
type CacheRun struct {
	L1, L2    cache.Stats
	Footprint int // distinct 64-B blocks at the L1 port
}

// RunCache replays a trace through an L1 of the given geometry plus the
// default 256KB 8-way L2.
func RunCache(t trace.Trace, l1 cache.Config) CacheRun {
	h, err := cache.NewHierarchy(l1, cache.L2Default())
	if err != nil {
		panic(err)
	}
	h.Run(t)
	out := CacheRun{L1: h.L1.Stats(), Footprint: h.FootprintBlocks()}
	if h.L2 != nil {
		out.L2 = h.L2.Stats()
	}
	return out
}

// RunFig14 reproduces Fig. 14: geometric-mean L1 and L2 miss rates across
// the SPEC proxies for two cache configurations (16KB 2-way and 32KB
// 4-way L1), comparing the baseline, Mocktails (Dynamic), Mocktails
// (4KB) and HRD.
func (e *Env) RunFig14() *Table {
	configs := []struct {
		label string
		cfg   cache.Config
	}{
		{"16KB 2-way", cache.Default64(16<<10, 2)},
		{"32KB 4-way", cache.Default64(32<<10, 4)},
	}
	tab := &Table{
		ID:    "fig14",
		Title: "Cache miss rates (geometric mean across SPEC proxies) for two configurations",
		Header: []string{"config", "level",
			"baseline", "Mocktails(Dynamic)", "Mocktails(4KB)", "HRD"},
	}
	for _, c := range configs {
		var l1 [4][]float64
		var l2 [4][]float64
		for _, name := range workloads.SPECNames() {
			sources := []trace.Trace{
				e.SpecTrace(name),
				e.SpecClone(name, 0),
				e.SpecClone(name, 4096),
				e.SpecHRD(name),
			}
			for i, src := range sources {
				r := RunCache(src, c.cfg)
				l1[i] = append(l1[i], r.L1.MissRate())
				l2[i] = append(l2[i], r.L2.MissRate())
			}
		}
		tab.Rows = append(tab.Rows,
			[]string{c.label, "L1", f(stats.GeoMean(l1[0]), 2), f(stats.GeoMean(l1[1]), 2), f(stats.GeoMean(l1[2]), 2), f(stats.GeoMean(l1[3]), 2)},
			[]string{c.label, "L2", f(stats.GeoMean(l2[0]), 2), f(stats.GeoMean(l2[1]), 2), f(stats.GeoMean(l2[2]), 2), f(stats.GeoMean(l2[3]), 2)})
	}
	return tab
}

// RunFig15 reproduces Fig. 15: L1 miss rates across associativities 2, 4,
// 8 and 16 for a 32KB L1 on six benchmarks, comparing the baseline,
// Mocktails (Dynamic) and HRD. The three paper trends are gobmk
// (falling), libquantum (flat) and zeusmp (rising).
func (e *Env) RunFig15() *Table {
	return e.assocSweep("fig15",
		"32KB L1 miss rate (%) vs associativity",
		func(r CacheRun) float64 { return r.L1.MissRate() }, 2)
}

// RunFig16 reproduces Fig. 16: the number of L1 write-backs for the same
// sweep as Fig. 15.
func (e *Env) RunFig16() *Table {
	return e.assocSweep("fig16",
		"32KB L1 write-backs (thousands) vs associativity",
		func(r CacheRun) float64 { return float64(r.L1.WriteBacks) / 1000 }, 1)
}

func (e *Env) assocSweep(id, title string, metric func(CacheRun) float64, dec int) *Table {
	tab := &Table{
		ID:     id,
		Title:  title,
		Header: []string{"benchmark", "assoc", "baseline", "Mocktails(Dynamic)", "HRD"},
	}
	for _, name := range workloads.Fig15Names() {
		for _, assoc := range []int{2, 4, 8, 16} {
			cfg := cache.Default64(32<<10, assoc)
			rb := RunCache(e.SpecTrace(name), cfg)
			rm := RunCache(e.SpecClone(name, 0), cfg)
			rh := RunCache(e.SpecHRD(name), cfg)
			tab.Rows = append(tab.Rows, []string{name, u(uint64(assoc)),
				f(metric(rb), dec), f(metric(rm), dec), f(metric(rh), dec)})
		}
	}
	return tab
}

// RunFig17 reproduces Fig. 17: the on-disk sizes of the gzip-compressed
// traces versus the Mocktails profiles (dynamic and fixed-4KB spatial
// partitioning) for every SPEC proxy.
func (e *Env) RunFig17() *Table {
	tab := &Table{
		ID:     "fig17",
		Title:  "Trace vs profile sizes (KiB, gzip-compressed)",
		Header: []string{"benchmark", "trace", "Mocktails(Dynamic)", "Mocktails(4KB)", "reduction"},
	}
	var totalTrace, totalDyn float64
	for _, name := range workloads.SPECNames() {
		t := e.SpecTrace(name)
		traceSize := gzTraceSize(t)
		dynSize := profileSize(name, t, 0)
		fixSize := profileSize(name, t, 4096)
		totalTrace += float64(traceSize)
		totalDyn += float64(dynSize)
		red := 100 * (1 - float64(dynSize)/float64(traceSize))
		tab.Rows = append(tab.Rows, []string{name,
			u(uint64(traceSize / 1024)), u(uint64(dynSize / 1024)), u(uint64(fixSize / 1024)),
			f(red, 1) + "%"})
	}
	tab.Notes = append(tab.Notes, fmt.Sprintf(
		"overall: Mocktails(Dynamic) profiles are %.0f%% smaller than gzip traces",
		100*(1-totalDyn/totalTrace)))
	return tab
}

func gzTraceSize(t trace.Trace) int {
	var buf byteCounter
	if err := trace.WriteGzip(&buf, t); err != nil {
		panic(err)
	}
	return buf.n
}

func profileSize(name string, t trace.Trace, blockSize uint64) int {
	cfg := partition.TwoLevelRequestCount(100000, blockSize)
	p, err := core.Build(name, t, cfg)
	if err != nil {
		panic(err)
	}
	n, err := profile.EncodedSize(p)
	if err != nil {
		panic(err)
	}
	return n
}

type byteCounter struct{ n int }

func (w *byteCounter) Write(p []byte) (int, error) {
	w.n += len(p)
	return len(p), nil
}
