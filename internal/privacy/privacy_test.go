package privacy

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/profile"
	"repro/internal/stats"
	"repro/internal/trace"
)

func workload(seed uint64, n int) trace.Trace {
	rng := stats.NewRNG(seed)
	var tr trace.Trace
	tm := uint64(0)
	for i := 0; i < n; i++ {
		tm += rng.Uint64n(50)
		op := trace.Read
		if rng.Bool(0.4) {
			op = trace.Write
		}
		// Offsets within each region make the stride models real Markov
		// chains rather than constants.
		tr = append(tr, trace.Request{Time: tm, Addr: uint64((i%6)*16384) + rng.Uint64n(512)&^7, Size: 64, Op: op})
	}
	return tr
}

func build(t *testing.T, seed uint64) *profile.Profile {
	t.Helper()
	p, err := core.Build("w", workload(seed, 3000), core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNoisePanicsOnBadEpsilon(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("epsilon 0 did not panic")
		}
	}()
	Noise(build(t, 1), 0, 1)
}

func TestNoiseLeavesOriginalUntouched(t *testing.T) {
	p := build(t, 2)
	before := profile.StatsOf(p)
	Noise(p, 0.5, 1)
	if profile.StatsOf(p) != before {
		t.Error("Noise mutated the input profile")
	}
}

func TestNoisePreservesStructure(t *testing.T) {
	p := build(t, 3)
	np := Noise(p, 1.0, 2)
	if len(np.Leaves) != len(p.Leaves) {
		t.Fatal("leaf count changed")
	}
	for i := range p.Leaves {
		a, b := &p.Leaves[i], &np.Leaves[i]
		if a.StartTime != b.StartTime || a.StartAddr != b.StartAddr ||
			a.Lo != b.Lo || a.Hi != b.Hi || a.Count != b.Count {
			t.Fatalf("leaf %d bookkeeping changed", i)
		}
	}
}

func TestNoiseChangesCounts(t *testing.T) {
	p := build(t, 4)
	np := Noise(p, 0.2, 3) // strong noise
	changed := false
	for i := range p.Leaves {
		a, b := p.Leaves[i].Stride, np.Leaves[i].Stride
		if a.Constant || b.Constant {
			continue
		}
		if a.Transitions() != b.Transitions() {
			changed = true
		}
	}
	if !changed {
		t.Error("strong noise left every transition count intact")
	}
}

func TestNoiseDeterministicPerSeed(t *testing.T) {
	p := build(t, 5)
	a := Noise(p, 0.5, 7)
	b := Noise(p, 0.5, 7)
	if profile.StatsOf(a) != profile.StatsOf(b) {
		t.Error("same seed gave different noised profiles")
	}
}

func TestNoisedProfileStillSynthesizes(t *testing.T) {
	p := build(t, 6)
	np := Noise(p, 0.5, 9)
	got := trace.Collect(core.SynthesizeFrom(np, 1), 0)
	if len(got) != p.Requests() {
		t.Errorf("noised profile synthesised %d requests, want %d", len(got), p.Requests())
	}
	if !got.Sorted() {
		t.Error("noised synthesis unsorted")
	}
}

func TestWeakNoiseIsGentler(t *testing.T) {
	// Higher epsilon (weaker noise) should perturb total transition
	// counts less than lower epsilon, on average.
	p := build(t, 7)
	perturbation := func(np *profile.Profile) float64 {
		var d float64
		for i := range p.Leaves {
			a, b := p.Leaves[i].Stride, np.Leaves[i].Stride
			d += math.Abs(float64(a.Transitions() - b.Transitions()))
		}
		return d
	}
	weak := perturbation(Noise(p, 10, 11))
	strong := perturbation(Noise(p, 0.05, 11))
	if weak >= strong {
		t.Errorf("epsilon 10 perturbed more (%v) than epsilon 0.05 (%v)", weak, strong)
	}
}

func TestLaplaceSymmetricZeroMean(t *testing.T) {
	rng := stats.NewRNG(13)
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		sum += laplace(rng, 2)
	}
	if mean := sum / n; math.Abs(mean) > 0.05 {
		t.Errorf("laplace mean = %v, want ~0", mean)
	}
}

func TestLaplaceScale(t *testing.T) {
	rng := stats.NewRNG(17)
	var absSum float64
	const n = 200000
	for i := 0; i < n; i++ {
		absSum += math.Abs(laplace(rng, 3))
	}
	// E|X| = b for Laplace(0, b).
	if m := absSum / n; math.Abs(m-3) > 0.1 {
		t.Errorf("laplace E|X| = %v, want ~3", m)
	}
}

func TestFullyNoisedRowDegeneratesToConstant(t *testing.T) {
	p := build(t, 8)
	// Absurdly strong noise: many rows vanish; model must stay usable.
	np := Noise(p, 0.001, 19)
	got := trace.Collect(core.SynthesizeFrom(np, 1), 0)
	if len(got) != p.Requests() {
		t.Errorf("synthesised %d, want %d", len(got), p.Requests())
	}
}
