// SoC mix: the headline use case of the paper — substituting proprietary
// IP blocks in a larger system simulation. A GPU, a VPU and a DPU are
// each represented only by their Mocktails profiles; a declarative
// scenario spec (the same JSON `mocktails compose` and
// POST /v1/scenarios/synth take) names the members by content address,
// and the scenario composer merges their synthetic streams into one
// shared memory system. The example compares the composed mix against
// running the three original traces together, then re-runs the mix with
// per-device address windows and a time-dilated VPU to show the knobs a
// spec exposes.
//
// Run with: go run ./examples/soc_mix
package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/obs"
	"repro/internal/profile"
	"repro/internal/scenario"
	"repro/internal/serve"
	"repro/internal/trace"
	"repro/internal/workloads"
)

func main() {
	names := []string{"T-Rex1", "HEVC1", "FBC-Linear1"}

	// In practice the profiles arrive from the IP vendors and live in a
	// mocktailsd store; here we build them ourselves, address them by
	// content like the store does, and then forget the traces.
	var real []trace.Puller
	shelf := map[string]*profile.Profile{}
	var spec scenario.Spec
	for i, name := range names {
		ws, err := workloads.Find(name)
		if err != nil {
			obs.Fatal(err)
		}
		t := ws.Gen()
		real = append(real, trace.NewReplayer(t))

		p, err := core.Build(name, t, core.DefaultConfig())
		if err != nil {
			obs.Fatal(err)
		}
		id, _, err := serve.ProfileID(p)
		if err != nil {
			obs.Fatal(err)
		}
		shelf[id] = p
		spec.Devices = append(spec.Devices, scenario.Device{
			Profile: id,
			Name:    name,
			Seed:    uint64(100 + i),
		})
	}
	resolver := func(id string) (profile.View, func(), error) {
		p, ok := shelf[id]
		if !ok {
			return nil, nil, fmt.Errorf("no profile %s", id)
		}
		return p, func() {}, nil
	}

	const xbar = 20
	spec.XbarLatency = xbar
	cfg := dram.Default()
	baseline := dram.Run(trace.Merge(real...), cfg, xbar)

	st, err := scenario.Compose(&spec, resolver)
	if err != nil {
		obs.Fatal(err)
	}
	synthetic := scenario.Replay(st, &spec, cfg)
	st.Close()

	fmt.Println("shared-memory SoC simulation: GPU + VPU + DPU")
	fmt.Printf("  %-22s %12s %12s\n", "metric", "real traces", "mocktails")
	row := func(name string, b, s float64) {
		fmt.Printf("  %-22s %12.1f %12.1f\n", name, b, s)
	}
	row("requests", float64(baseline.Requests), float64(synthetic.Requests))
	row("read bursts", float64(baseline.ReadBursts()), float64(synthetic.ReadBursts))
	row("write bursts", float64(baseline.WriteBursts()), float64(synthetic.WriteBursts))
	row("read row hits", float64(baseline.ReadRowHits()), float64(synthetic.ReadRowHits))
	row("write row hits", float64(baseline.WriteRowHits()), float64(synthetic.WriteRowHits))
	row("avg read queue", baseline.AvgReadQueueLen(), synthetic.AvgReadQueueLen)
	row("avg write queue", baseline.AvgWriteQueueLen(), synthetic.AvgWriteQueueLen)
	row("avg latency (cycles)", baseline.AvgLatency, synthetic.AvgLatency)

	// The spec is declarative, so what-if variants are one edit away:
	// give each device a private 1 GiB window (no address interference)
	// and slow the VPU to quarter rate.
	for i := range spec.Devices {
		spec.Devices[i].Window = &scenario.Window{
			Base: uint64(i) << 30,
			Size: 1 << 30,
		}
	}
	spec.Devices[1].Dilation = 4.0 // HEVC1 at quarter rate
	if err := spec.Validate(); err != nil {
		obs.Fatal(err)
	}
	st, err = scenario.Compose(&spec, resolver)
	if err != nil {
		obs.Fatal(err)
	}
	variant := scenario.Replay(st, &spec, cfg)
	st.Close()

	fmt.Println("\nwhat-if: private 1 GiB windows, VPU dilated to quarter rate")
	fmt.Printf("  %-12s %10s %10s %10s %12s %12s\n",
		"device", "requests", "row hits", "misses", "avg queue", "avg latency")
	for _, d := range variant.Devices {
		hits := d.ReadRowHits + d.WriteRowHits
		misses := d.ReadBursts + d.WriteBursts - hits
		fmt.Printf("  %-12s %10d %10d %10d %12.1f %12.1f\n",
			d.Name, d.Requests, hits, misses, d.AvgQueueLen, d.AvgLatency)
	}

	fmt.Println("\nEvery device above is a black-box profile named by content address —")
	fmt.Println("the same spec drives `mocktails compose` offline and POST /v1/scenarios/synth.")
}
