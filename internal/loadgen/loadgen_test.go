package loadgen

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/scenario"
)

// stubServer records every synthesis request it answers.
type stubServer struct {
	mu    sync.Mutex
	seeds map[uint64]int // seed -> times requested
}

func newStub(t *testing.T) (*stubServer, *httptest.Server) {
	st := &stubServer{seeds: make(map[uint64]int)}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/profiles/{id}/synth", func(w http.ResponseWriter, r *http.Request) {
		seed, err := strconv.ParseUint(r.URL.Query().Get("seed"), 10, 64)
		if err != nil || r.PathValue("id") == "" {
			http.Error(w, "bad request", http.StatusBadRequest)
			return
		}
		st.mu.Lock()
		st.seeds[seed]++
		st.mu.Unlock()
		w.Write([]byte("bytes"))
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return st, ts
}

// A closed-loop run with a fixed seed is deterministic in everything
// but timing: the request count is exact, the set of seeds issued is
// exactly {seed+warmup .. seed+warmup+requests-1} (warmup taking
// {seed .. seed+warmup-1}), and the histogram's bucket counts sum to
// the requests issued — the bucket a latency lands in varies run to
// run, the total cannot.
func TestClosedLoopDeterminism(t *testing.T) {
	const warmup, requests = 7, 100
	for run := 0; run < 2; run++ {
		st, ts := newStub(t)
		reg := obs.NewRegistry()
		res, err := Run(context.Background(), Config{
			Targets:     []string{ts.URL},
			ProfileID:   "cafe",
			Seed:        1000,
			Concurrency: 8,
			Requests:    requests,
			Warmup:      warmup,
			Registry:    reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Requests != requests {
			t.Fatalf("run %d: %d requests measured, want exactly %d", run, res.Requests, requests)
		}
		if res.Errors != 0 {
			t.Fatalf("run %d: %d errors", run, res.Errors)
		}

		// Histogram bucket counts sum to the requests issued.
		bounds, counts := res.Hist.Snapshot()
		var sum uint64
		for _, c := range counts {
			sum += c
		}
		if sum != requests || res.Hist.Total() != requests {
			t.Fatalf("run %d: bucket sum %d, total %d, want %d", run, sum, res.Hist.Total(), requests)
		}
		if len(counts) != len(bounds)+1 {
			t.Fatalf("run %d: %d counts for %d bounds", run, len(counts), len(bounds))
		}

		// The seed set is a pure function of the config, independent of
		// worker interleaving.
		st.mu.Lock()
		for s := uint64(1000); s < 1000+warmup+requests; s++ {
			if st.seeds[s] != 1 {
				t.Fatalf("run %d: seed %d requested %d times, want once", run, s, st.seeds[s])
			}
		}
		if len(st.seeds) != warmup+requests {
			t.Fatalf("run %d: %d distinct seeds, want %d", run, len(st.seeds), warmup+requests)
		}
		st.mu.Unlock()

		// The registry view agrees with the result.
		if got := reg.Counter("loadgen.requests").Value(); got != requests {
			t.Fatalf("run %d: counter says %d requests", run, got)
		}
	}
}

// Requests round-robin across targets by index, so a two-target run
// splits an even request count exactly in half.
func TestRoundRobinTargets(t *testing.T) {
	var hits [2]int
	var mu sync.Mutex
	mk := func(i int) *httptest.Server {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			mu.Lock()
			hits[i]++
			mu.Unlock()
		}))
		t.Cleanup(ts.Close)
		return ts
	}
	a, b := mk(0), mk(1)
	res, err := Run(context.Background(), Config{
		Targets:     []string{a.URL, b.URL},
		ProfileID:   "cafe",
		Concurrency: 4,
		Requests:    50,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 50 {
		t.Fatalf("measured %d requests, want 50", res.Requests)
	}
	mu.Lock()
	defer mu.Unlock()
	if hits[0] != 25 || hits[1] != 25 {
		t.Fatalf("round robin split %d/%d, want 25/25", hits[0], hits[1])
	}
}

// Non-2xx responses count as errors and stay out of the latency
// histogram, so quantiles describe successful requests only — and the
// error breakdown attributes each failure to its status class.
func TestErrorsExcludedFromHistogram(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Query().Get("seed") {
		case "3", "4":
			http.Error(w, "boom", http.StatusInternalServerError)
		case "7":
			http.Error(w, "gone", http.StatusNotFound)
		default:
			w.Write([]byte("ok"))
		}
	}))
	t.Cleanup(ts.Close)
	reg := obs.NewRegistry()
	res, err := Run(context.Background(), Config{
		Targets:   []string{ts.URL},
		ProfileID: "cafe",
		Seed:      0,
		Requests:  10,
		Registry:  reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 3 {
		t.Fatalf("%d errors, want 3", res.Errors)
	}
	if res.Hist.Total() != 7 {
		t.Fatalf("histogram holds %d observations, want 7", res.Hist.Total())
	}
	if res.ErrorsByClass["5xx"] != 2 || res.ErrorsByClass["4xx"] != 1 || len(res.ErrorsByClass) != 2 {
		t.Fatalf("ErrorsByClass = %v, want 5xx:2 4xx:1", res.ErrorsByClass)
	}
	if got := reg.Counter("loadgen.errors.5xx").Value(); got != 2 {
		t.Fatalf("loadgen.errors.5xx = %d, want 2", got)
	}
	var sum uint64
	for _, n := range res.ErrorsByClass {
		sum += n
	}
	if sum != res.Errors {
		t.Fatalf("class counts sum to %d, Errors = %d", sum, res.Errors)
	}
}

// Transport-level failures (no status line) land in their own class.
func TestTransportErrorClass(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	ts.Close() // refuse every connection
	res, err := Run(context.Background(), Config{
		Targets:   []string{ts.URL},
		ProfileID: "cafe",
		Requests:  4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 4 || res.ErrorsByClass["transport"] != 4 {
		t.Fatalf("errors=%d by class=%v, want 4 transport", res.Errors, res.ErrorsByClass)
	}
}

// Every request carries a deterministic traceparent derived from the
// run seed: two runs with the same config send identical trace IDs,
// distinct within a run and distinct from the synthesis seed stream.
func TestDeterministicTraceparent(t *testing.T) {
	capture := func() map[uint64]string {
		seen := make(map[uint64]string)
		var mu sync.Mutex
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			seed, _ := strconv.ParseUint(r.URL.Query().Get("seed"), 10, 64)
			sc, ok := obs.ParseTraceparent(r.Header.Get("traceparent"))
			if !ok {
				http.Error(w, "no traceparent", http.StatusBadRequest)
				return
			}
			mu.Lock()
			seen[seed] = sc.TraceID.String()
			mu.Unlock()
			w.Write([]byte("ok"))
		}))
		defer ts.Close()
		res, err := Run(context.Background(), Config{
			Targets:     []string{ts.URL},
			ProfileID:   "cafe",
			Seed:        500,
			Concurrency: 4,
			Requests:    20,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Errors != 0 {
			t.Fatalf("%d requests arrived without a valid traceparent", res.Errors)
		}
		return seen
	}
	first, second := capture(), capture()
	if len(first) != 20 || len(second) != 20 {
		t.Fatalf("captured %d/%d trace IDs, want 20 each", len(first), len(second))
	}
	distinct := make(map[string]bool)
	for seed, id := range first {
		if second[seed] != id {
			t.Fatalf("seed %d: trace ID %s vs %s across identical runs", seed, id, second[seed])
		}
		distinct[id] = true
	}
	if len(distinct) != 20 {
		t.Fatalf("%d distinct trace IDs for 20 requests", len(distinct))
	}
}

// The slowest-request list is populated, bounded, sorted slowest first,
// and its trace IDs match the run's deterministic derivation.
func TestSlowestRequests(t *testing.T) {
	_, ts := newStub(t)
	res, err := Run(context.Background(), Config{
		Targets:     []string{ts.URL},
		ProfileID:   "cafe",
		Seed:        77,
		Concurrency: 4,
		Requests:    30,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Slowest) != 5 {
		t.Fatalf("Slowest holds %d entries, want 5", len(res.Slowest))
	}
	d := &driver{cfg: Config{Seed: 77}}
	for i, s := range res.Slowest {
		if i > 0 && s.Ns > res.Slowest[i-1].Ns {
			t.Fatalf("Slowest not sorted: %+v", res.Slowest)
		}
		if s.Ns <= 0 {
			t.Fatalf("non-positive slow latency: %+v", s)
		}
		if want := d.traceContext(s.Index).TraceID.String(); s.TraceID != want {
			t.Fatalf("slow request %d trace ID %s, want %s", s.Index, s.TraceID, want)
		}
	}
	// The row view carries both new fields.
	buf, err := json.Marshal(res.Row("serve/c4"))
	if err != nil {
		t.Fatal(err)
	}
	var row struct {
		Slowest []SlowRequest `json:"slowest"`
	}
	if err := json.Unmarshal(buf, &row); err != nil {
		t.Fatal(err)
	}
	if len(row.Slowest) != 5 {
		t.Fatalf("row JSON slowest = %s", buf)
	}
}

// Quantiles are nearest-rank order statistics of the recorded
// latencies, never values interpolated inside a histogram bucket. With
// fewer than 100 samples p99 is the slowest one, and with five samples
// Slowest lists every latency, so p50 must be its third entry.
func TestExactQuantiles(t *testing.T) {
	_, ts := newStub(t)
	for _, n := range []int{5, 50} {
		res, err := Run(context.Background(), Config{
			Targets:     []string{ts.URL},
			ProfileID:   "cafe",
			Concurrency: 2,
			Requests:    n,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.P99Ns != res.Slowest[0].Ns {
			t.Errorf("n=%d: p99 %d, want the slowest latency %d", n, res.P99Ns, res.Slowest[0].Ns)
		}
		if res.P50Ns > res.P95Ns || res.P95Ns > res.P99Ns {
			t.Errorf("n=%d: quantiles not monotone: p50 %d p95 %d p99 %d", n, res.P50Ns, res.P95Ns, res.P99Ns)
		}
		if n == 5 && res.P50Ns != res.Slowest[2].Ns {
			t.Errorf("n=5: p50 %d, want the median latency %d of %+v", res.P50Ns, res.Slowest[2].Ns, res.Slowest)
		}
	}
}

// The open loop issues requests on the arrival schedule: a 1s run at
// 200 QPS lands within a loose factor of the target even when every
// response is instant, and all issued requests are measured.
func TestOpenLoopRate(t *testing.T) {
	_, ts := newStub(t)
	res, err := Run(context.Background(), Config{
		Targets:   []string{ts.URL},
		ProfileID: "cafe",
		QPS:       200,
		Duration:  time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != "open" || res.TargetQPS != 200 {
		t.Fatalf("mode %q target %g", res.Mode, res.TargetQPS)
	}
	if res.Requests < 100 || res.Requests > 250 {
		t.Fatalf("issued %d requests in 1s at 200 QPS", res.Requests)
	}
	if got := res.Hist.Total() + res.Errors; got != res.Requests {
		t.Fatalf("measured %d of %d issued", got, res.Requests)
	}
}

// A ramp measures each level independently: fresh histograms, exact
// request counts, rows that parse as bench rows.
func TestRampLevels(t *testing.T) {
	_, ts := newStub(t)
	results, err := RunRamp(context.Background(), Config{
		Targets:   []string{ts.URL},
		ProfileID: "cafe",
		Requests:  40,
		Warmup:    5,
	}, []int{1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("%d results, want 3", len(results))
	}
	for i, want := range []int{1, 2, 4} {
		if results[i].Concurrency != want || results[i].Requests != 40 {
			t.Fatalf("level %d: c=%d requests=%d", i, results[i].Concurrency, results[i].Requests)
		}
	}
	// Row JSON carries the {name, ns_per_op} keys of bench rows.
	buf, err := json.Marshal(results[0].Row("serve/c1"))
	if err != nil {
		t.Fatal(err)
	}
	var row struct {
		Name    string `json:"name"`
		NsPerOp *int64 `json:"ns_per_op"`
	}
	if err := json.Unmarshal(buf, &row); err != nil {
		t.Fatal(err)
	}
	if row.Name != "serve/c1" || row.NsPerOp == nil {
		t.Fatalf("bench-row view: %s", buf)
	}
}

// Scenario mode posts the spec to /v1/scenarios/synth with every
// device seed shifted by the request index, so the body stream is a
// pure function of the config: request i carries WithSeedOffset(Seed+i)
// of the base spec, once each, regardless of worker interleaving.
func TestScenarioModeSeedShift(t *testing.T) {
	const warmup, requests = 5, 40
	base := &scenario.Spec{Devices: []scenario.Device{
		{Profile: testScenarioID("a"), Name: "cpu", Seed: 10},
		{Profile: testScenarioID("b"), Name: "gpu", Seed: 20, Dilation: 2.0,
			Window: &scenario.Window{Base: 1 << 30, Size: 1 << 30}},
	}}
	var mu sync.Mutex
	bodies := make(map[uint64]*scenario.Spec) // offset -> decoded spec
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/scenarios/synth", func(w http.ResponseWriter, r *http.Request) {
		if ct := r.Header.Get("Content-Type"); ct != "application/json" {
			http.Error(w, "content type "+ct, http.StatusUnsupportedMediaType)
			return
		}
		var spec scenario.Spec
		if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
			http.Error(w, err.Error(), http.StatusUnprocessableEntity)
			return
		}
		if err := spec.Validate(); err != nil {
			http.Error(w, err.Error(), http.StatusUnprocessableEntity)
			return
		}
		mu.Lock()
		bodies[spec.Devices[0].Seed-base.Devices[0].Seed] = &spec
		mu.Unlock()
		w.Write([]byte("bytes"))
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)

	res, err := Run(context.Background(), Config{
		Targets:     []string{ts.URL},
		Scenario:    base,
		Seed:        1000,
		Concurrency: 8,
		Requests:    requests,
		Warmup:      warmup,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != requests || res.Errors != 0 {
		t.Fatalf("measured %d requests, %d errors", res.Requests, res.Errors)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(bodies) != warmup+requests {
		t.Fatalf("%d distinct seed offsets, want %d", len(bodies), warmup+requests)
	}
	for i := uint64(0); i < warmup+requests; i++ {
		got, ok := bodies[1000+i]
		if !ok {
			t.Fatalf("no request carried seed offset %d", 1000+i)
		}
		want := base.WithSeedOffset(1000 + i)
		g, _ := json.Marshal(got)
		w, _ := json.Marshal(want)
		if string(g) != string(w) {
			t.Fatalf("offset %d: body %s, want %s", 1000+i, g, w)
		}
	}
}

// An invalid scenario spec fails Run's validation up front instead of
// hammering the target with 422s.
func TestScenarioConfigValidation(t *testing.T) {
	_, err := Run(context.Background(), Config{
		Targets:  []string{"http://localhost:0"},
		Scenario: &scenario.Spec{}, // no devices
		Requests: 10,
	})
	if err == nil {
		t.Fatal("empty scenario accepted")
	}
}

// testScenarioID builds a syntactically valid 64-hex content address
// from a repeating hex digit string.
func testScenarioID(c string) string {
	s := ""
	for len(s) < 64 {
		s += c
	}
	return s[:64]
}

// Config validation: every unusable config errors instead of spinning.
func TestConfigValidation(t *testing.T) {
	ctx := context.Background()
	cases := []Config{
		{},                              // no targets
		{Targets: []string{"http://x"}}, // no id
		{Targets: []string{"http://x"}, ProfileID: "a"},          // no bound
		{Targets: []string{"http://x"}, ProfileID: "a", QPS: 10}, // open loop, no duration
	}
	for i, cfg := range cases {
		if _, err := Run(ctx, cfg); err == nil {
			t.Errorf("case %d: no error", i)
		}
	}
}
