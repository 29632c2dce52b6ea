// Workload DSL: describe a custom IP block's memory behaviour
// declaratively, generate a trace from it, build a Mocktails profile,
// and verify the clone against the original at the memory controller —
// the complete loop a user follows for their own device, without writing
// a generator in Go.
//
// The same spec is shipped as video_pipeline.json next to this file and
// can be fed to `go run ./cmd/tracegen -spec-file .../video_pipeline.json`.
//
// Run with: go run ./examples/workload_dsl
package main

import (
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/obs"
	"repro/internal/synthgen"
	"repro/internal/trace"
	"repro/internal/validate"
)

func main() {
	// A little camera-ISP-like pipeline: per frame, a sensor buffer is
	// read linearly while statistics are gathered from a random window,
	// then the processed frame is written out in bursts; frames are
	// separated by long idle gaps.
	spec := &synthgen.Spec{
		Name: "camera-isp",
		Seed: 2024,
		Phases: []synthgen.Phase{{
			Repeat:    4,
			IdleAfter: 8_000_000,
			Streams: []synthgen.Stream{
				{ // sensor readout: linear, dense
					Base: 0x4000_0000, Stride: 64, Count: 4096,
					Gap: 8, GapJitter: 2, AdvancePerRepeat: 0x40000,
				},
				{ // statistics: sparse random reads over the window
					Base: 0x5000_0000, RandomIn: 1 << 20, Count: 512,
					Gap: 60, GapJitter: 20,
				},
				{ // writeback: bursty writes
					Base: 0x6000_0000, Stride: 64, Count: 4096,
					WriteFrac: 1, Gap: 500, GapJitter: 100, Burst: 16,
					AdvancePerRepeat: 0x40000,
				},
			},
		}},
	}

	tr, err := spec.Generate()
	if err != nil {
		obs.Fatal(err)
	}
	reads, writes := tr.Counts()
	fmt.Printf("generated %q: %d requests (%d reads / %d writes)\n",
		spec.Name, len(tr), reads, writes)

	p, err := core.Build(spec.Name, tr, core.DefaultConfig())
	if err != nil {
		obs.Fatal(err)
	}
	fmt.Println("profile:", p)

	cfg := dram.Default()
	ref := dram.Run(trace.NewReplayer(tr), cfg, 20)
	got := dram.Run(core.SynthesizeFrom(p, 1), cfg, 20)
	fmt.Println("\nclone vs original at the memory controller:")
	validate.Compare(ref, got).Fprint(os.Stdout)

	// Write the spec next to the binary for the tracegen demo.
	f, err := os.Create("video_pipeline.json")
	if err == nil {
		spec.Write(f)
		f.Close()
		fmt.Println("\nwrote video_pipeline.json (try: go run ./cmd/tracegen -spec-file video_pipeline.json)")
	}
}
