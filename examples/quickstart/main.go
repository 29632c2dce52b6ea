// Quickstart: the whole Mocktails pipeline in one file.
//
// It walks the two sides of Fig. 1: a "proprietary" trace (here a
// synthetic VPU proxy) is turned into a statistical profile, the profile
// is serialised (this is the artefact industry would publish), and a
// synthetic request stream is regenerated from it and compared with the
// original at the memory controller.
//
// Run with: go run ./examples/quickstart
package main

import (
	"bytes"
	"fmt"

	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/obs"
	"repro/internal/profile"
	"repro/internal/trace"
	"repro/internal/workloads"
)

func main() {
	// 1. Industry side: a trace of the device. (A real user would load
	// their own trace with trace.NewDecoder and ReadAll.)
	spec, err := workloads.Find("HEVC1")
	if err != nil {
		obs.Fatal(err)
	}
	t := spec.Gen()
	reads, writes := t.Counts()
	fmt.Printf("original trace: %d requests (%d reads / %d writes), %d cycles\n",
		len(t), reads, writes, t.Duration())

	// 2. Build the statistical profile with the paper's 2L-TS hierarchy
	// (500k-cycle temporal intervals, then dynamic spatial partitions).
	p, err := core.Build(spec.Name, t, core.DefaultConfig())
	if err != nil {
		obs.Fatal(err)
	}
	fmt.Println("profile:", p)

	// 3. Serialise it: this compact, obfuscated blob is what crosses the
	// industry/academia boundary instead of the trace.
	var buf bytes.Buffer
	if err := profile.WriteGzip(&buf, p); err != nil {
		obs.Fatal(err)
	}
	fmt.Printf("profile blob: %d bytes (trace would be %d raw request records)\n",
		buf.Len(), len(t))

	// 4. Academia side: regenerate a request stream and drive a
	// simulator with it. The synthesizer implements trace.Source with
	// backpressure feedback, so it plugs in exactly like a trace.
	p2, err := profile.ReadGzip(&buf)
	if err != nil {
		obs.Fatal(err)
	}
	cfg := dram.Default()
	base := dram.Run(trace.NewReplayer(t), cfg, 20)
	syn := dram.Run(core.SynthesizeFrom(p2, 42), cfg, 20)

	fmt.Println("\nmemory-controller comparison (baseline vs Mocktails):")
	row := func(name string, b, s float64) {
		fmt.Printf("  %-18s %12.1f %12.1f\n", name, b, s)
	}
	fmt.Printf("  %-18s %12s %12s\n", "metric", "baseline", "mocktails")
	row("read bursts", float64(base.ReadBursts()), float64(syn.ReadBursts()))
	row("write bursts", float64(base.WriteBursts()), float64(syn.WriteBursts()))
	row("read row hits", float64(base.ReadRowHits()), float64(syn.ReadRowHits()))
	row("write row hits", float64(base.WriteRowHits()), float64(syn.WriteRowHits()))
	row("avg read queue", base.AvgReadQueueLen(), syn.AvgReadQueueLen())
	row("avg write queue", base.AvgWriteQueueLen(), syn.AvgWriteQueueLen())
	row("avg latency", base.AvgLatency, syn.AvgLatency)
}
