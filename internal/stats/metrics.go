package stats

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// PercentError returns |measured-reference| / reference * 100. When the
// reference is zero, it returns 0 if measured is also zero and 100
// otherwise, which mirrors how the paper treats empty-metric cases.
func PercentError(measured, reference float64) float64 {
	if reference == 0 {
		if measured == 0 {
			return 0
		}
		return 100
	}
	return math.Abs(measured-reference) / math.Abs(reference) * 100
}

// GeoMean returns the geometric mean of xs. Non-positive entries are
// clamped to eps (the paper reports geometric-mean errors, which are
// undefined at exactly zero). It returns 0 for an empty slice.
func GeoMean(xs []float64) float64 {
	const eps = 1e-3
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		if x < eps {
			x = eps
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the population variance of xs, or 0 when len(xs) < 2.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	sum := 0.0
	for _, x := range xs {
		d := x - m
		sum += d * d
	}
	return sum / float64(len(xs))
}

// denseLimit bounds the values a Histogram counts in a slice rather
// than a map: queue depths, reads per turnaround and request sizes all
// fall below it, so recording them touches no map.
const denseLimit = 1024

// Histogram counts occurrences of integer-valued observations, used for
// queue-length and per-bank distributions (Figs. 8 and 12). Values in
// [0, denseLimit) are counted in a slice grown on demand; any other
// value goes to a map made on first use.
type Histogram struct {
	dense  []uint64
	sparse map[int]uint64
	total  uint64
	sum    float64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// Add records one observation of value v.
func (h *Histogram) Add(v int) {
	h.total++
	h.sum += float64(v)
	if uint(v) >= uint(len(h.dense)) {
		if v < 0 || v >= denseLimit {
			if h.sparse == nil {
				h.sparse = make(map[int]uint64)
			}
			h.sparse[v]++
			return
		}
		n := min(max(2*len(h.dense), v+1, 16), denseLimit)
		h.dense = append(h.dense, make([]uint64, n-len(h.dense))...)
	}
	h.dense[v]++
}

// Count returns how many observations of value v were recorded.
func (h *Histogram) Count(v int) uint64 {
	if uint(v) < uint(len(h.dense)) {
		return h.dense[v]
	}
	return h.sparse[v]
}

// Total returns the number of observations recorded.
func (h *Histogram) Total() uint64 { return h.total }

// Mean returns the mean observation, or 0 if empty.
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return h.sum / float64(h.total)
}

// Values returns the distinct observed values in ascending order.
func (h *Histogram) Values() []int {
	vs := make([]int, 0, len(h.sparse)+len(h.dense))
	for v := range h.sparse {
		vs = append(vs, v)
	}
	for v, n := range h.dense {
		if n > 0 {
			vs = append(vs, v)
		}
	}
	sort.Ints(vs)
	return vs
}

// Max returns the largest observed value, or 0 if empty.
func (h *Histogram) Max() int {
	max := 0
	for v := range h.sparse {
		if v > max {
			max = v
		}
	}
	for v := len(h.dense) - 1; v > max; v-- {
		if h.dense[v] > 0 {
			return v
		}
	}
	return max
}

// Distance returns the L1 distance between the two histograms viewed as
// probability distributions (0 = identical, 2 = disjoint). It is the
// quantitative comparison used when the paper shows distributions
// side-by-side (Fig. 8). Terms are summed in ascending value order, so
// the result is deterministic and h.Distance(o) == o.Distance(h).
func (h *Histogram) Distance(o *Histogram) float64 {
	if h.total == 0 && o.total == 0 {
		return 0
	}
	if h.total == 0 || o.total == 0 {
		return 2
	}
	vs := append(h.Values(), o.Values()...)
	sort.Ints(vs)
	d := 0.0
	for _, v := range slices.Compact(vs) {
		p := float64(h.Count(v)) / float64(h.total)
		q := float64(o.Count(v)) / float64(o.total)
		d += math.Abs(p - q)
	}
	return d
}

// TimeBins bins event timestamps into fixed-width bins and returns the
// count per bin, reproducing the Fig. 3 view of a trace's injection
// process. The returned slice covers [0, maxTime] in binWidth-sized bins.
func TimeBins(times []uint64, binWidth uint64) []uint64 {
	if binWidth == 0 || len(times) == 0 {
		return nil
	}
	var maxT uint64
	for _, t := range times {
		if t > maxT {
			maxT = t
		}
	}
	bins := make([]uint64, maxT/binWidth+1)
	for _, t := range times {
		bins[t/binWidth]++
	}
	return bins
}

// FormatPct formats a percentage with one decimal for tables.
func FormatPct(v float64) string { return fmt.Sprintf("%.1f%%", v) }
