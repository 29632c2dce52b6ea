package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("Value() = %d, want 42", got)
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	if got := g.Value(); got != 0 {
		t.Fatalf("zero Value() = %v, want 0", got)
	}
	g.Set(0.75)
	if got := g.Value(); got != 0.75 {
		t.Fatalf("Value() = %v, want 0.75", got)
	}
	g.Set(-3)
	if got := g.Value(); got != -3 {
		t.Fatalf("Value() = %v, want -3", got)
	}
}

// TestHistogramBucketBoundaries pins the inclusive ("le") bucket
// semantics on both scales: a value equal to a bound lands in that
// bound's bucket, one past it lands in the next, and values above the
// last bound land in the implicit +Inf bucket.
func TestHistogramBucketBoundaries(t *testing.T) {
	for _, scale := range []Scale{ScaleNs, ScaleBytes} {
		bounds := scale.Bounds()
		h := newHistogram(scale)
		for i, b := range bounds {
			h.Observe(b) // on the bound: bucket i
			if i == 0 {
				h.Observe(b - 1) // below the first bound: bucket 0
			} else {
				h.Observe(bounds[i-1] + 1) // just past the previous bound: bucket i
			}
		}
		h.Observe(bounds[len(bounds)-1] + 1) // above every bound: +Inf
		for i := range bounds {
			if got := h.BucketCount(i); got != 2 {
				t.Errorf("%v bucket %d (le %d): count %d, want 2", scale, i, bounds[i], got)
			}
		}
		if got := h.BucketCount(len(bounds)); got != 1 {
			t.Errorf("%v +Inf bucket: count %d, want 1", scale, got)
		}
		if want := uint64(2*len(bounds) + 1); h.Total() != want {
			t.Errorf("%v Total() = %d, want %d", scale, h.Total(), want)
		}
	}
}

func TestHistogramMean(t *testing.T) {
	h := newHistogram(ScaleNs)
	if h.Mean() != 0 {
		t.Fatalf("empty Mean() = %v, want 0", h.Mean())
	}
	h.Observe(10)
	h.Observe(30)
	if h.Sum() != 40 || h.Mean() != 20 {
		t.Fatalf("Sum()/Mean() = %d/%v, want 40/20", h.Sum(), h.Mean())
	}
}

// TestRegistryConcurrency hammers get-or-create and updates from many
// goroutines; run under -race it pins the registry's locking and the
// atomicity of the metric types. Every goroutine must observe the same
// instance per name, so the final counts are exact.
func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	const goroutines, names, incs = 8, 4, 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := 0; n < names; n++ {
				name := fmt.Sprintf("c%d", n)
				for i := 0; i < incs; i++ {
					r.Counter(name).Inc()
					r.Gauge(fmt.Sprintf("g%d", n)).Set(float64(g))
					r.Histogram(fmt.Sprintf("h%d", n), ScaleNs).Observe(int64(i))
				}
			}
		}(g)
	}
	wg.Wait()
	for n := 0; n < names; n++ {
		if got := r.Counter(fmt.Sprintf("c%d", n)).Value(); got != goroutines*incs {
			t.Errorf("counter c%d = %d, want %d", n, got, goroutines*incs)
		}
		if got := r.Histogram(fmt.Sprintf("h%d", n), ScaleNs).Total(); got != goroutines*incs {
			t.Errorf("histogram h%d total = %d, want %d", n, got, goroutines*incs)
		}
		if g := r.Gauge(fmt.Sprintf("g%d", n)).Value(); g < 0 || g >= goroutines {
			t.Errorf("gauge g%d = %v, want one of the written worker ids", n, g)
		}
	}
}

// TestWriteJSONGolden pins the exact JSON document shape: top-level
// counters/gauges/histograms, sorted keys, indented, histogram fields.
// Regenerate with: go test ./internal/obs -run Golden -update
var update = os.Getenv("UPDATE_GOLDEN") != ""

func TestWriteJSONGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("synth.requests").Add(400)
	r.Counter("partition.leaves").Add(7)
	r.Gauge("par.utilization").Set(0.5)
	h := r.Histogram("stage.synth.ns", ScaleNs)
	h.Observe(1e3)
	h.Observe(5e5)
	h.Observe(2e10)
	b := r.Histogram("request.bytes", ScaleBytes)
	b.Observe(64)
	b.Observe(100)

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "metrics.golden.json")
	if update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("JSON dump drifted from %s:\ngot:\n%s\nwant:\n%s", golden, buf.Bytes(), want)
	}
	// The dump must stay machine-readable with the documented keys.
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"counters", "gauges", "histograms"} {
		if _, ok := doc[k]; !ok {
			t.Errorf("dump missing top-level key %q", k)
		}
	}
}

func TestWriteMetricsFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "metrics.json")
	NewCounter("obs_test.file_dump").Inc()
	if err := WriteMetricsFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Counters map[string]uint64 `json:"counters"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("metrics file does not parse: %v", err)
	}
	if doc.Counters["obs_test.file_dump"] == 0 {
		t.Error("metrics file missing counter written before the dump")
	}
}

func TestHistogramSnapshot(t *testing.T) {
	h := newHistogram(ScaleNs)
	for _, v := range []int64{500, 5000, 5000, 2e6} {
		h.Observe(v)
	}
	bounds, counts := h.Snapshot()
	if len(counts) != len(bounds)+1 {
		t.Fatalf("len(counts) = %d, want len(bounds)+1 = %d", len(counts), len(bounds)+1)
	}
	var sum uint64
	for _, c := range counts {
		sum += c
	}
	if sum != h.Total() {
		t.Fatalf("bucket sum %d != total %d", sum, h.Total())
	}
	if counts[0] != 1 || counts[1] != 2 {
		t.Fatalf("counts = %v, want 1 in bucket 0 and 2 in bucket 1", counts)
	}
}
