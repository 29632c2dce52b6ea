package obs

import (
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing counter. All methods are safe
// for concurrent use; Add is one atomic add, cheap enough for
// per-chunk and per-leaf instrumentation (per-request hot loops should
// accumulate locally and flush once, see internal/synth).
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a last-value-wins float64 gauge (worker utilization, row-hit
// counts of the most recent simulation, stage wall times). Safe for
// concurrent use.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the stored value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Scale selects a Histogram's fixed bucket boundaries.
type Scale int

const (
	// ScaleNs buckets nanosecond latencies: 1µs, 10µs, ... 10s, +Inf.
	ScaleNs Scale = iota
	// ScaleBytes buckets byte sizes: 64B, 256B, 1KiB, ... 16MiB, +Inf.
	ScaleBytes
)

// Bounds returns the scale's upper bucket boundaries (inclusive,
// Prometheus-style "le"); observations above the last bound land in an
// implicit +Inf bucket.
func (s Scale) Bounds() []int64 {
	switch s {
	case ScaleBytes:
		return []int64{64, 256, 1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20, 16 << 20}
	default:
		return []int64{1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10}
	}
}

// String names the scale for the JSON dump.
func (s Scale) String() string {
	if s == ScaleBytes {
		return "bytes"
	}
	return "ns"
}

// Histogram counts observations into fixed buckets. counts[i] holds the
// observations v with bounds[i-1] < v <= bounds[i]; the final bucket is
// +Inf. Observe is two atomic adds plus a short branch-free-ish scan of
// at most len(bounds) comparisons.
type Histogram struct {
	scale  Scale
	bounds []int64
	counts []atomic.Uint64
	total  atomic.Uint64
	sum    atomic.Int64
}

func newHistogram(scale Scale) *Histogram {
	b := scale.Bounds()
	return &Histogram{scale: scale, bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one observation.
func (h *Histogram) Observe(v int64) {
	i := sort.Search(len(h.bounds), func(i int) bool { return h.bounds[i] >= v })
	h.counts[i].Add(1)
	h.total.Add(1)
	h.sum.Add(v)
}

// Total returns the number of observations.
func (h *Histogram) Total() uint64 { return h.total.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Mean returns the mean observation, or 0 when empty.
func (h *Histogram) Mean() float64 {
	n := h.total.Load()
	if n == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(n)
}

// BucketCount returns the count of bucket i (0 <= i <= len(Bounds())).
func (h *Histogram) BucketCount(i int) uint64 { return h.counts[i].Load() }

// Snapshot returns the histogram's bucket bounds and a point-in-time
// copy of its counts. counts has len(bounds)+1 entries; the last is
// the +Inf bucket. The bounds slice is shared and must not be mutated.
func (h *Histogram) Snapshot() (bounds []int64, counts []uint64) {
	counts = make([]uint64, len(h.counts))
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
	}
	return h.bounds, counts
}

// Registry is a named collection of metrics. The zero value is not
// usable; use NewRegistry. Lookups take a read lock; pipeline packages
// resolve their metrics once into package variables, so the steady
// state is pure atomics.
type Registry struct {
	mu         sync.RWMutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c, ok := r.counters[name]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok = r.counters[name]; ok {
		return c
	}
	c = &Counter{}
	r.counters[name] = c
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g, ok := r.gauges[name]
	r.mu.RUnlock()
	if ok {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok = r.gauges[name]; ok {
		return g
	}
	g = &Gauge{}
	r.gauges[name] = g
	return g
}

// Histogram returns the named histogram, creating it with the given
// scale on first use. The scale of an existing histogram wins.
func (r *Registry) Histogram(name string, scale Scale) *Histogram {
	r.mu.RLock()
	h, ok := r.histograms[name]
	r.mu.RUnlock()
	if ok {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok = r.histograms[name]; ok {
		return h
	}
	h = newHistogram(scale)
	r.histograms[name] = h
	return h
}

// histogramJSON is the JSON shape of one histogram.
type histogramJSON struct {
	Scale  string   `json:"scale"`
	Bounds []int64  `json:"bounds"`
	Counts []uint64 `json:"counts"`
	Total  uint64   `json:"total"`
	Sum    int64    `json:"sum"`
	Mean   float64  `json:"mean"`
}

// snapshot captures the registry as plain maps for encoding.
func (r *Registry) snapshot() (map[string]uint64, map[string]float64, map[string]histogramJSON) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	cs := make(map[string]uint64, len(r.counters))
	for n, c := range r.counters {
		cs[n] = c.Value()
	}
	gs := make(map[string]float64, len(r.gauges))
	for n, g := range r.gauges {
		gs[n] = g.Value()
	}
	hs := make(map[string]histogramJSON, len(r.histograms))
	for n, h := range r.histograms {
		counts := make([]uint64, len(h.counts))
		for i := range h.counts {
			counts[i] = h.counts[i].Load()
		}
		hs[n] = histogramJSON{
			Scale:  h.scale.String(),
			Bounds: h.bounds,
			Counts: counts,
			Total:  h.Total(),
			Sum:    h.Sum(),
			Mean:   h.Mean(),
		}
	}
	return cs, gs, hs
}

// WriteJSON dumps every metric as one indented JSON document with
// deterministic (sorted) key order.
func (r *Registry) WriteJSON(w io.Writer) error {
	cs, gs, hs := r.snapshot()
	doc := struct {
		Counters   map[string]uint64        `json:"counters"`
		Gauges     map[string]float64       `json:"gauges"`
		Histograms map[string]histogramJSON `json:"histograms"`
	}{cs, gs, hs}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc) // encoding/json sorts map keys
}

// Default is the process-wide registry every pipeline package records
// into. It is published to expvar under "mocktails", so an -pprof-http
// listener exposes it at /debug/vars alongside the runtime's memstats.
var Default = NewRegistry()

var publishOnce sync.Once

func publishExpvar() {
	publishOnce.Do(func() {
		expvar.Publish("mocktails", expvar.Func(func() any {
			cs, gs, hs := Default.snapshot()
			return map[string]any{"counters": cs, "gauges": gs, "histograms": hs}
		}))
	})
}

// NewCounter returns the named counter from the Default registry,
// creating it on first use. Resolve once into a package variable.
func NewCounter(name string) *Counter { return Default.Counter(name) }

// NewGauge returns the named gauge from the Default registry.
func NewGauge(name string) *Gauge { return Default.Gauge(name) }

// NewHistogram returns the named histogram from the Default registry.
func NewHistogram(name string, scale Scale) *Histogram { return Default.Histogram(name, scale) }

// WriteMetricsFile dumps the Default registry to path as one JSON
// document (the CLI -metrics flag).
func WriteMetricsFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("obs: metrics: %w", err)
	}
	defer f.Close()
	return Default.WriteJSON(f)
}
