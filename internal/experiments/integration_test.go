package experiments

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/profile"
	"repro/internal/trace"
)

// TestOptionAEqualsOptionB checks Fig. 1's two use cases against each
// other: Option A (synthesise a trace file up front, then replay it)
// and Option B (couple the synthesizer to the simulator) must produce
// identical results when driven by the same profile and seed, as long as
// both experience the same backpressure policy.
func TestOptionAEqualsOptionB(t *testing.T) {
	e := NewEnv()
	tr := e.Trace("CPU-V")
	p, err := core.Build("CPU-V", tr, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Option A: generate the full trace, then replay.
	synTrace := core.SynthesizeTrace(p, 7)
	resA := dram.Run(trace.NewReplayer(synTrace), e.DRAMCfg, e.XbarLat)
	// Option B: drive the simulator from the live synthesizer.
	resB := dram.Run(core.SynthesizeFrom(p, 7), e.DRAMCfg, e.XbarLat)

	if resA.ReadBursts() != resB.ReadBursts() || resA.WriteBursts() != resB.WriteBursts() {
		t.Errorf("burst counts differ: A %d/%d B %d/%d",
			resA.ReadBursts(), resA.WriteBursts(), resB.ReadBursts(), resB.WriteBursts())
	}
	if resA.ReadRowHits() != resB.ReadRowHits() || resA.WriteRowHits() != resB.WriteRowHits() {
		t.Errorf("row hits differ: A %d/%d B %d/%d",
			resA.ReadRowHits(), resA.WriteRowHits(), resB.ReadRowHits(), resB.WriteRowHits())
	}
	if resA.AvgLatency != resB.AvgLatency {
		t.Errorf("latency differs: A %.2f B %.2f", resA.AvgLatency, resB.AvgLatency)
	}
}

// TestProfileSurvivesSerialisation checks the full industry→academia
// hand-off: a profile serialised to bytes and read back yields the
// byte-identical synthetic stream.
func TestProfileSurvivesSerialisation(t *testing.T) {
	e := NewEnv()
	p, err := core.Build("T-Rex1", e.Trace("T-Rex1"), core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := profile.WriteGzip(&buf, p); err != nil {
		t.Fatal(err)
	}
	p2, err := profile.ReadGzip(&buf)
	if err != nil {
		t.Fatal(err)
	}
	a := core.SynthesizeTrace(p, 3)
	b := core.SynthesizeTrace(p2, 3)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("request %d differs after serialisation: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestEndToEndEveryDevice is the broad safety net: for every Table II
// proxy, the full pipeline (fit → synthesize → simulate) holds the core
// §IV invariants.
func TestEndToEndEveryDevice(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	e := NewEnv()
	for _, name := range []string{"Crypto1", "CPU-D", "FBC-Linear1", "FBC-Tiled1",
		"Multi-layer", "T-Rex1", "OpenCL1", "HEVC1"} {
		base := e.Baseline(name)
		mcc := e.McC(name)
		if mcc.Requests != base.Requests {
			t.Errorf("%s: request count %d vs %d", name, mcc.Requests, base.Requests)
		}
		if mcc.ReadBursts()+mcc.WriteBursts() == 0 {
			t.Errorf("%s: clone produced no bursts", name)
		}
		if err := e.rowHitError(name, mcc); err > 25 {
			t.Errorf("%s: row-hit error %.1f%% beyond sanity bound", name, err)
		}
	}
}
