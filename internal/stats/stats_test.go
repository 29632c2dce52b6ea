package stats

import (
	"math"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a, b := NewRNG(1), NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds produced %d/100 equal draws", same)
	}
}

func TestRNGZeroSeedWorks(t *testing.T) {
	r := NewRNG(0)
	seen := make(map[uint64]bool)
	for i := 0; i < 100; i++ {
		seen[r.Uint64()] = true
	}
	if len(seen) < 99 {
		t.Errorf("zero seed produced only %d distinct values", len(seen))
	}
}

func TestIntnBounds(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 10000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d", v)
		}
	}
}

func TestIntnPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestUint64nBounds(t *testing.T) {
	r := NewRNG(4)
	for i := 0; i < 10000; i++ {
		if v := r.Uint64n(13); v >= 13 {
			t.Fatalf("Uint64n(13) = %d", v)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(5)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 = %v", v)
		}
	}
}

func TestBoolProbability(t *testing.T) {
	r := NewRNG(6)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	p := float64(hits) / n
	if math.Abs(p-0.3) > 0.01 {
		t.Errorf("Bool(0.3) frequency = %v", p)
	}
}

func TestRangeInclusive(t *testing.T) {
	r := NewRNG(7)
	seenLo, seenHi := false, false
	for i := 0; i < 10000; i++ {
		v := r.Range(5, 8)
		if v < 5 || v > 8 {
			t.Fatalf("Range(5,8) = %d", v)
		}
		if v == 5 {
			seenLo = true
		}
		if v == 8 {
			seenHi = true
		}
	}
	if !seenLo || !seenHi {
		t.Error("Range never produced an endpoint")
	}
}

func TestGeometricMean(t *testing.T) {
	r := NewRNG(8)
	sum := 0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Geometric(0.25)
	}
	mean := float64(sum) / n
	if math.Abs(mean-4) > 0.1 {
		t.Errorf("Geometric(0.25) mean = %v, want ~4", mean)
	}
	if NewRNG(1).Geometric(1) != 1 {
		t.Error("Geometric(1) != 1")
	}
}

func TestForkIndependence(t *testing.T) {
	r := NewRNG(9)
	f1 := r.Fork()
	f2 := r.Fork()
	if f1.Uint64() == f2.Uint64() && f1.Uint64() == f2.Uint64() {
		t.Error("forked RNGs appear identical")
	}
}

func TestPercentError(t *testing.T) {
	cases := []struct {
		measured, reference, want float64
	}{
		{110, 100, 10},
		{90, 100, 10},
		{0, 0, 0},
		{5, 0, 100},
		{100, 100, 0},
		{50, -100, 150},
	}
	for _, c := range cases {
		if got := PercentError(c.measured, c.reference); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("PercentError(%v,%v) = %v, want %v", c.measured, c.reference, got, c.want)
		}
	}
}

func TestGeoMean(t *testing.T) {
	if GeoMean(nil) != 0 {
		t.Error("GeoMean(nil) != 0")
	}
	got := GeoMean([]float64{2, 8})
	if math.Abs(got-4) > 1e-9 {
		t.Errorf("GeoMean(2,8) = %v, want 4", got)
	}
	// Zeros are clamped, not fatal.
	if v := GeoMean([]float64{0, 0}); v <= 0 || v > 0.01 {
		t.Errorf("GeoMean(0,0) = %v", v)
	}
}

func TestMeanVariance(t *testing.T) {
	if Mean(nil) != 0 || Variance(nil) != 0 {
		t.Error("empty Mean/Variance not 0")
	}
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); math.Abs(m-5) > 1e-9 {
		t.Errorf("Mean = %v", m)
	}
	if v := Variance(xs); math.Abs(v-4) > 1e-9 {
		t.Errorf("Variance = %v, want 4", v)
	}
}

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram()
	if h.Mean() != 0 || h.Total() != 0 || h.Max() != 0 {
		t.Error("empty histogram stats nonzero")
	}
	for _, v := range []int{1, 2, 2, 3} {
		h.Add(v)
	}
	if h.Total() != 4 {
		t.Errorf("Total = %d", h.Total())
	}
	if h.Count(2) != 2 {
		t.Errorf("Count(2) = %d", h.Count(2))
	}
	if math.Abs(h.Mean()-2) > 1e-9 {
		t.Errorf("Mean = %v", h.Mean())
	}
	if h.Max() != 3 {
		t.Errorf("Max = %d", h.Max())
	}
	vals := h.Values()
	if len(vals) != 3 || vals[0] != 1 || vals[2] != 3 {
		t.Errorf("Values = %v", vals)
	}
}

func TestHistogramDistance(t *testing.T) {
	a, b := NewHistogram(), NewHistogram()
	if a.Distance(b) != 0 {
		t.Error("two empty histograms should have distance 0")
	}
	a.Add(1)
	if d := a.Distance(b); d != 2 {
		t.Errorf("empty-vs-nonempty distance = %v, want 2", d)
	}
	b.Add(1)
	if d := a.Distance(b); d != 0 {
		t.Errorf("identical distance = %v", d)
	}
	c := NewHistogram()
	c.Add(9)
	if d := a.Distance(c); math.Abs(d-2) > 1e-9 {
		t.Errorf("disjoint distance = %v, want 2", d)
	}
}

func TestHistogramDistanceSymmetric(t *testing.T) {
	check := func(xs, ys []uint8) bool {
		a, b := NewHistogram(), NewHistogram()
		for _, x := range xs {
			a.Add(int(x % 8))
		}
		for _, y := range ys {
			b.Add(int(y % 8))
		}
		return math.Abs(a.Distance(b)-b.Distance(a)) < 1e-12
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

func TestHistogramDistanceDeterministic(t *testing.T) {
	rng := NewRNG(3)
	a, b := NewHistogram(), NewHistogram()
	for i := 0; i < 5000; i++ {
		a.Add(rng.Intn(200) - 50)
		b.Add(rng.Intn(300) - 20)
	}
	want := a.Distance(b)
	for i := 0; i < 200; i++ {
		if d := a.Distance(b); math.Float64bits(d) != math.Float64bits(want) {
			t.Fatalf("call %d: Distance = %v, first call gave %v", i, d, want)
		}
	}
	if d := b.Distance(a); math.Float64bits(d) != math.Float64bits(want) {
		t.Errorf("b.Distance(a) = %v, a.Distance(b) = %v", d, want)
	}
}

// TestHistogramMatchesMapReference checks the dense/sparse split of
// Histogram against a plain map-counted reference on random samples
// straddling both ends of the dense range.
func TestHistogramMatchesMapReference(t *testing.T) {
	edges := []int{-5, -1, 0, 1, 15, 16, 17, 1023, 1024, 1025, 1 << 40}
	rng := NewRNG(11)
	for trial := 0; trial < 200; trial++ {
		h := NewHistogram()
		ref := map[int]uint64{}
		var sum float64
		n := rng.Intn(300)
		for i := 0; i < n; i++ {
			var v int
			switch rng.Intn(3) {
			case 0:
				v = edges[rng.Intn(len(edges))]
			case 1:
				v = rng.Intn(1100) - 20
			default:
				v = rng.Intn(64)
			}
			h.Add(v)
			ref[v]++
			sum += float64(v)
		}
		var vals []int
		refMax := 0
		for v := range ref {
			vals = append(vals, v)
			refMax = max(refMax, v)
		}
		sort.Ints(vals)
		if got := h.Values(); !slices.Equal(got, vals) {
			t.Fatalf("trial %d: Values = %v, want %v", trial, got, vals)
		}
		for _, v := range append(edges, 2, 500, -1000) {
			if h.Count(v) != ref[v] {
				t.Fatalf("trial %d: Count(%d) = %d, want %d", trial, v, h.Count(v), ref[v])
			}
		}
		if h.Max() != refMax {
			t.Fatalf("trial %d: Max = %d, want %d", trial, h.Max(), refMax)
		}
		if h.Total() != uint64(n) {
			t.Fatalf("trial %d: Total = %d, want %d", trial, h.Total(), n)
		}
		wantMean := 0.0
		if n > 0 {
			wantMean = sum / float64(n)
		}
		if math.Float64bits(h.Mean()) != math.Float64bits(wantMean) {
			t.Fatalf("trial %d: Mean = %v, want %v", trial, h.Mean(), wantMean)
		}
	}
}

func TestTimeBins(t *testing.T) {
	if TimeBins(nil, 10) != nil {
		t.Error("nil times should give nil bins")
	}
	if TimeBins([]uint64{1}, 0) != nil {
		t.Error("zero bin width should give nil bins")
	}
	bins := TimeBins([]uint64{0, 5, 10, 25}, 10)
	want := []uint64{2, 1, 1}
	if len(bins) != len(want) {
		t.Fatalf("bins = %v", bins)
	}
	for i := range want {
		if bins[i] != want[i] {
			t.Errorf("bins[%d] = %d, want %d", i, bins[i], want[i])
		}
	}
}

func TestFormatPct(t *testing.T) {
	if got := FormatPct(12.345); got != "12.3%" {
		t.Errorf("FormatPct = %q", got)
	}
}
