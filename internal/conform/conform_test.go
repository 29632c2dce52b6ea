package conform

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/partition"
	"repro/internal/profile"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// testTrace builds a small deterministic trace with several temporal
// phases and address regions, so the 2L-TS partitioning produces a
// healthy mix of leaves (multi-request Markov leaves, tiny leaves,
// constant-feature leaves).
func testTrace(seed uint64, n int) trace.Trace {
	rng := stats.NewRNG(seed)
	t := make(trace.Trace, 0, n)
	now := uint64(1000)
	regions := []uint64{1 << 20, 1 << 24, 1 << 28}
	sizes := []uint32{16, 64, 64, 128}
	addr := regions[0]
	for i := 0; i < n; i++ {
		if i%257 == 0 {
			addr = regions[rng.Intn(len(regions))] + uint64(rng.Intn(1<<14))
			now += uint64(rng.Range(50_000, 150_000)) // phase gap
		}
		now += uint64(rng.Range(1, 200))
		addr += uint64(rng.Range(-4, 8) * 64)
		op := trace.Read
		if rng.Bool(0.35) {
			op = trace.Write
		}
		t = append(t, trace.Request{
			Time: now,
			Addr: addr,
			Size: sizes[rng.Intn(len(sizes))],
			Op:   op,
		})
	}
	return t
}

func buildTriple(t *testing.T, cfg partition.Config, seed uint64) (trace.Trace, *profile.Profile, trace.Trace) {
	t.Helper()
	orig := testTrace(7, 4000)
	p, err := core.Build("conform-test", orig, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return orig, p, core.SynthesizeTrace(p, seed)
}

func TestCheckCleanPipeline(t *testing.T) {
	for _, cfg := range []partition.Config{
		partition.TwoLevelTS(200_000),
		partition.TwoLevelRequestCount(512, 0),
		partition.TwoLevelRequestCount(512, 4096),
	} {
		orig, p, syn := buildTriple(t, cfg, 42)
		r := Check(orig, p, syn, cfg, 42, DefaultThresholds())
		if !r.Ok() {
			var b strings.Builder
			r.Fprint(&b)
			t.Fatalf("clean pipeline (%s) fails conformance:\n%s", cfg, b.String())
		}
		if r.Distances == nil {
			t.Fatal("Check did not record distances")
		}
		if r.Distances.Op != 0 || r.Distances.Size != 0 {
			t.Errorf("%s: op/size distributions not exact: op %v size %v",
				cfg, r.Distances.Op, r.Distances.Size)
		}
		if r.Leaves != len(p.Leaves) || r.Requests != len(syn) {
			t.Errorf("%s: report counts leaves=%d requests=%d, want %d/%d",
				cfg, r.Leaves, r.Requests, len(p.Leaves), len(syn))
		}
	}
}

func TestCheckCleanDeviceProxy(t *testing.T) {
	if testing.Short() {
		t.Skip("full device proxy in -short mode")
	}
	spec, err := workloads.Find("HEVC1")
	if err != nil {
		t.Fatal(err)
	}
	orig := spec.Gen()
	cfg := core.DefaultConfig()
	p, err := core.Build(spec.Name, orig, cfg)
	if err != nil {
		t.Fatal(err)
	}
	syn := core.SynthesizeTrace(p, 42)
	r := Check(orig, p, syn, cfg, 42, DefaultThresholds())
	if !r.Ok() {
		var b strings.Builder
		r.Fprint(&b)
		t.Fatalf("HEVC1 pipeline fails conformance:\n%s", b.String())
	}
}

// hasCheck reports whether the report contains a violation of the named
// check (prefix match, so "strict-convergence" covers all features).
func hasCheck(r *Report, name string) bool {
	for _, v := range r.Violations {
		if strings.HasPrefix(v.Check, name) {
			return true
		}
	}
	return false
}

func TestPerturbedModelFailsProfileCheck(t *testing.T) {
	cfg := partition.TwoLevelTS(200_000)
	orig, p, syn := buildTriple(t, cfg, 42)

	// Find a Markov leaf and skew one transition count: the model no
	// longer encodes the training multiset.
	perturbed := false
	for i := range p.Leaves {
		m := &p.Leaves[i].Size
		if !m.Constant && len(m.N) > 0 {
			m.N[0] += 3
			m.Finish()
			perturbed = true
			break
		}
	}
	if !perturbed {
		t.Fatal("no Markov size model found to perturb")
	}
	r := Check(orig, p, syn, cfg, 42, DefaultThresholds())
	if r.Ok() {
		t.Fatal("perturbed profile passed conformance")
	}
	if !hasCheck(r, "profile/multiset/size") {
		t.Errorf("expected profile/multiset/size violation, got %v", r.Violations)
	}
	// The synthetic side must also notice: the stream was generated
	// from the unperturbed model, so strict convergence against the
	// perturbed one cannot hold.
	if !hasCheck(r, "strict-convergence/size") && !hasCheck(r, "synth/merge-multiset") {
		t.Errorf("synthetic-side checks silent on perturbed model: %v", r.Violations)
	}
}

func TestPerturbedCountFails(t *testing.T) {
	cfg := partition.TwoLevelTS(200_000)
	orig, p, syn := buildTriple(t, cfg, 42)
	p.Leaves[0].Count++
	r := Check(orig, p, syn, cfg, 42, DefaultThresholds())
	if r.Ok() {
		t.Fatal("count-perturbed profile passed conformance")
	}
	if !hasCheck(r, "profile/leaf-requests") {
		t.Errorf("expected profile/leaf-requests violation, got %v", r.Violations)
	}
	if !hasCheck(r, "synth/total-requests") && !hasCheck(r, "synth/merge-multiset") {
		t.Errorf("synthetic-side checks silent on count drift: %v", r.Violations)
	}
}

func TestTamperedSyntheticFails(t *testing.T) {
	cfg := partition.TwoLevelTS(200_000)
	orig, p, syn := buildTriple(t, cfg, 42)

	t.Run("address escape", func(t *testing.T) {
		bad := syn.Clone()
		bad[len(bad)/2].Addr = 0xdead_beef_dead_beef
		r := CheckSynthetic(p, bad, 42)
		if r.Ok() {
			t.Fatal("address-tampered synthetic passed")
		}
		if !hasCheck(r, "synth/merge-multiset") {
			t.Errorf("expected merge-multiset violation, got %v", r.Violations)
		}
	})

	t.Run("timestamp regression", func(t *testing.T) {
		bad := syn.Clone()
		bad[len(bad)/2].Time = 0
		r := CheckSynthetic(p, bad, 42)
		if r.Ok() || !hasCheck(r, "synth/sorted") {
			t.Errorf("expected synth/sorted violation, got %v", r.Violations)
		}
	})

	t.Run("dropped request", func(t *testing.T) {
		bad := syn.Clone()[:len(syn)-1]
		r := CheckSynthetic(p, bad, 42)
		if r.Ok() || !hasCheck(r, "synth/total-requests") {
			t.Errorf("expected synth/total-requests violation, got %v", r.Violations)
		}
	})

	t.Run("wrong seed", func(t *testing.T) {
		r := CheckSynthetic(p, core.SynthesizeTrace(p, 43), 42)
		if r.Ok() {
			t.Error("stream synthesized with a different seed passed")
		}
	})

	// The original triple must still pass: Clone above protected it.
	if r := CheckSynthetic(p, syn, 42); !r.Ok() {
		t.Fatalf("untampered synthetic now fails: %v", r.Violations)
	}
	_ = orig
}

// A model whose edge counts disagree with the leaf's Count is the
// classic strict-convergence breaker: the generator draws Count-1
// values but the model's multiset demands a different total.
func TestInconsistentModelFailsStrictConvergence(t *testing.T) {
	cfg := partition.TwoLevelTS(200_000)
	_, p, _ := buildTriple(t, cfg, 42)
	idx := -1
	for i := range p.Leaves {
		m := &p.Leaves[i].DeltaTime
		if !m.Constant && len(m.N) > 0 {
			m.N[0] += 2
			m.Finish()
			idx = i
			break
		}
	}
	if idx < 0 {
		t.Fatal("no Markov delta-time model found to perturb")
	}
	// Synthesize from the *perturbed* profile: generation itself now
	// cannot reproduce the model's multiset in Count-1 draws.
	syn := core.SynthesizeTrace(p, 42)
	r := CheckSynthetic(p, syn, 42)
	if r.Ok() {
		t.Fatal("inconsistent model passed strict convergence")
	}
	if !hasCheck(r, "strict-convergence/dt") {
		t.Errorf("expected strict-convergence/dt violation, got %v", r.Violations)
	}
}

func TestReportCapsDetails(t *testing.T) {
	r := &Report{}
	for i := 0; i < maxDetails+10; i++ {
		r.add("x", i, "violation %d", i)
	}
	if len(r.Violations) != maxDetails || r.Dropped != 10 {
		t.Errorf("stored %d dropped %d, want %d/%d", len(r.Violations), r.Dropped, maxDetails, 10)
	}
	if r.Ok() {
		t.Error("report with dropped violations claims Ok")
	}
}

func TestViolationString(t *testing.T) {
	v := Violation{Check: "synth/sorted", Leaf: -1, Detail: "boom"}
	if got := v.String(); got != "synth/sorted: boom" {
		t.Errorf("String() = %q", got)
	}
	v.Leaf = 3
	if got := v.String(); !strings.Contains(got, "leaf 3") {
		t.Errorf("String() = %q", got)
	}
}

func TestEmptyTraceTriple(t *testing.T) {
	cfg := partition.TwoLevelTS(200_000)
	p, err := core.Build("empty", nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := Check(nil, p, nil, cfg, 42, DefaultThresholds())
	if !r.Ok() {
		t.Errorf("empty triple fails conformance: %v", r.Violations)
	}
}
