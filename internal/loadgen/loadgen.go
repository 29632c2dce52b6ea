// Package loadgen drives a mocktailsd node or cluster with synthesis
// requests and reports throughput and latency quantiles. It supports
// the two canonical load models: closed-loop (a fixed number of
// outstanding requests; each worker issues the next request as soon as
// the previous completes — measures capacity) and open-loop (requests
// arrive on a fixed schedule regardless of completions — measures
// behaviour at a target rate, exposing queueing delay that closed
// loops hide). Every successful request's latency is kept, so the
// reported P50/P95/P99 are exact nearest-rank order statistics, not
// estimates from histogram buckets.
package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/scenario"
)

// Config parameterises one measurement.
type Config struct {
	// Targets are the base URLs of the nodes under test; requests
	// round-robin across them by request index.
	Targets []string
	// ProfileID is the content address to synthesise. Ignored when
	// Scenario is set.
	ProfileID string
	// Scenario, when non-nil, switches the workload from per-profile
	// synthesis to POST /v1/scenarios/synth: request i sends the spec
	// with every device seed shifted by i (WithSeedOffset), so the
	// request stream stays a pure function of the config. N is ignored
	// (the spec's per-device counts govern).
	Scenario *scenario.Spec
	// Seed is the base synthesis seed; request i sends Seed+i, so a
	// fixed Seed makes the request stream reproducible.
	Seed uint64
	// N caps events per synthesis (the n query parameter); 0 streams
	// the profile's full length.
	N uint64
	// Concurrency is the worker count (closed loop) or the hint for
	// connection pooling (open loop). Minimum 1.
	Concurrency int
	// Requests is the measured request count for a closed-loop run.
	// When 0, the run is bounded by Duration instead.
	Requests int
	// Duration bounds time-based runs (open loop, or closed loop with
	// Requests == 0).
	Duration time.Duration
	// QPS > 0 selects the open-loop model at that target rate.
	QPS float64
	// Warmup requests are issued before the clock starts and are not
	// recorded, so connection setup and first-touch cache misses do
	// not pollute the quantiles.
	Warmup int
	// Client overrides the HTTP client (tests). Nil builds one with a
	// connection pool sized to Concurrency.
	Client *http.Client
	// Registry receives loadgen.* metrics; nil uses a private registry
	// per run so ramp levels do not share buckets.
	Registry *obs.Registry
}

// SlowRequest identifies one of a run's slowest successful requests by
// the trace ID it was issued under, so the matching server-side trace
// can be pulled from /debug/requests or grepped out of access logs.
type SlowRequest struct {
	TraceID string `json:"trace_id"`
	Index   uint64 `json:"index"` // global request index (target and seed derive from it)
	Ns      int64  `json:"ns"`
}

// Result is one measurement's outcome.
type Result struct {
	Mode        string // "closed" or "open"
	Concurrency int
	TargetQPS   float64 // open loop only
	Requests    uint64  // measured requests issued
	Errors      uint64  // transport failures and non-2xx responses
	WallNs      int64   // measured-phase wall clock
	QPS         float64 // achieved: Requests / wall
	MeanNs      int64
	P50Ns       int64
	P95Ns       int64
	P99Ns       int64
	// ErrorsByClass breaks Errors down by failure class: "transport"
	// for round-trips that died before a status line, otherwise the
	// status-code class ("4xx", "5xx"). The values sum to Errors.
	ErrorsByClass map[string]uint64
	// Slowest holds the up-to-five slowest successful requests, slowest
	// first, each tagged with the trace ID it carried.
	Slowest []SlowRequest
	// Hist is the latency histogram of successful requests; its Total
	// always equals Requests - Errors.
	Hist *obs.Histogram
}

// Row is the JSON shape of one result. It carries the {name, ns_per_op}
// keys of `go test -bench` rows, so bench tooling that reads those
// parses loadgen output unchanged.
type Row struct {
	Name     string            `json:"name"`
	NsPerOp  int64             `json:"ns_per_op"` // mean latency of successful requests
	Mode     string            `json:"mode"`
	Conc     int               `json:"concurrency"`
	Requests uint64            `json:"requests"`
	Errors   uint64            `json:"errors"`
	ErrByCls map[string]uint64 `json:"errors_by_class,omitempty"`
	QPS      float64           `json:"qps"`
	P50Ns    int64             `json:"p50_ns"`
	P95Ns    int64             `json:"p95_ns"`
	P99Ns    int64             `json:"p99_ns"`
	Slowest  []SlowRequest     `json:"slowest,omitempty"`
}

// Row renders the result under the given name.
func (r *Result) Row(name string) Row {
	return Row{
		Name: name, NsPerOp: r.MeanNs, Mode: r.Mode, Conc: r.Concurrency,
		Requests: r.Requests, Errors: r.Errors, ErrByCls: r.ErrorsByClass, QPS: r.QPS,
		P50Ns: r.P50Ns, P95Ns: r.P95Ns, P99Ns: r.P99Ns, Slowest: r.Slowest,
	}
}

// driver holds the per-run shared state.
type driver struct {
	cfg    Config
	client *http.Client
	reg    *obs.Registry
	hist   *obs.Histogram
	reqs   *obs.Counter
	errs   *obs.Counter

	mu       sync.Mutex
	errClass map[string]uint64
	samples  []SlowRequest // every successful measured request; TraceID unset
}

// maxSlowRequests bounds the per-run slowest-request list.
const maxSlowRequests = 5

// mix64 is the splitmix64 finalizer: a cheap bijective whitening of a
// counter into a well-distributed 64-bit value.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// traceContext derives request i's trace context deterministically from
// the run seed, so two runs with the same config carry the same trace
// IDs and any request can be cross-referenced in server rings and
// access logs after the fact.
func (d *driver) traceContext(i uint64) obs.SpanContext {
	base := d.cfg.Seed ^ 0x6d6f636b7461696c // "mocktail", so synth seed i and trace i differ
	return obs.SpanContext{
		TraceID: obs.TraceIDFromUint64(mix64(base+3*i), mix64(base+3*i+1)),
		SpanID:  obs.SpanIDFromUint64(mix64(base + 3*i + 2)),
		Flags:   obs.FlagSampled,
	}
}

// recordError classifies one failed request. status 0 means the
// round-trip died before a status line (transport class).
func (d *driver) recordError(status int) {
	class := "transport"
	if status > 0 {
		class = fmt.Sprintf("%dxx", status/100)
	}
	d.reg.Counter("loadgen.errors." + class).Inc()
	d.mu.Lock()
	if d.errClass == nil {
		d.errClass = make(map[string]uint64)
	}
	d.errClass[class]++
	d.mu.Unlock()
}

// issue sends request i and records it when record is true. The target,
// seed (or scenario body) and trace context derive from i alone, so the
// request stream is a pure function of the config regardless of worker
// scheduling.
func (d *driver) issue(ctx context.Context, i uint64, record bool) {
	target := d.cfg.Targets[i%uint64(len(d.cfg.Targets))]
	var url string
	var body io.Reader
	if d.cfg.Scenario != nil {
		url = strings.TrimRight(target, "/") + "/v1/scenarios/synth"
		spec, err := json.Marshal(d.cfg.Scenario.WithSeedOffset(d.cfg.Seed + i))
		if err != nil {
			if record {
				d.reqs.Inc()
				d.errs.Inc()
				d.recordError(0)
			}
			return
		}
		body = bytes.NewReader(spec)
	} else {
		url = fmt.Sprintf("%s/v1/profiles/%s/synth?seed=%d&format=bin",
			strings.TrimRight(target, "/"), d.cfg.ProfileID, d.cfg.Seed+i)
		if d.cfg.N > 0 {
			url += fmt.Sprintf("&n=%d", d.cfg.N)
		}
	}
	sc := d.traceContext(i)
	start := time.Now()
	status := 0 // stays 0 on transport-level failure
	func() {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, body)
		if err != nil {
			return
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		req.Header.Set("traceparent", sc.Traceparent())
		resp, err := d.client.Do(req)
		if err != nil {
			return
		}
		defer resp.Body.Close()
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			return
		}
		status = resp.StatusCode
	}()
	if !record {
		return
	}
	d.reqs.Inc()
	if status < 200 || status >= 300 {
		d.errs.Inc()
		d.recordError(status)
		return
	}
	ns := time.Since(start).Nanoseconds()
	d.hist.Observe(ns)
	d.mu.Lock()
	d.samples = append(d.samples, SlowRequest{Index: i, Ns: ns})
	d.mu.Unlock()
}

// orderStat returns the pct-th percentile of desc (sorted slowest
// first, non-empty) by the nearest-rank definition: the smallest sample
// with at least ceil(pct·n/100) samples at or below it. There is no
// interpolation, so the result is always a recorded latency.
func orderStat(desc []SlowRequest, pct int) int64 {
	n := len(desc)
	rank := min(max((pct*n+99)/100, 1), n)
	return desc[n-rank].Ns
}

// closed runs count requests (or until the deadline when count == 0)
// over workers parallel loops, issuing indices start, start+1, ....
// Returns the number of requests issued.
func (d *driver) closed(ctx context.Context, workers int, start, count uint64, deadline time.Time, record bool) uint64 {
	var next, issued atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := next.Add(1) - 1
				if count > 0 && i >= count {
					return
				}
				if count == 0 && !time.Now().Before(deadline) {
					return
				}
				d.issue(ctx, start+i, record)
				issued.Add(1)
			}
		}()
	}
	wg.Wait()
	return issued.Load()
}

// open fires requests on a fixed schedule at cfg.QPS for cfg.Duration,
// one goroutine per request so a slow response never delays the next
// arrival. Returns the number of requests issued.
func (d *driver) open(ctx context.Context, start uint64) uint64 {
	interval := time.Duration(float64(time.Second) / d.cfg.QPS)
	if interval <= 0 {
		interval = time.Nanosecond
	}
	deadline := time.Now().Add(d.cfg.Duration)
	tick := time.NewTicker(interval)
	defer tick.Stop()
	var wg sync.WaitGroup
	var i uint64
	for time.Now().Before(deadline) && ctx.Err() == nil {
		select {
		case <-tick.C:
			wg.Add(1)
			go func(i uint64) {
				defer wg.Done()
				d.issue(ctx, start+i, true)
			}(i)
			i++
		case <-ctx.Done():
		}
	}
	wg.Wait()
	return i
}

// Run executes one measurement: warmup (unrecorded), then the measured
// phase under the configured load model.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	if len(cfg.Targets) == 0 {
		return nil, fmt.Errorf("loadgen: no targets")
	}
	if cfg.ProfileID == "" && cfg.Scenario == nil {
		return nil, fmt.Errorf("loadgen: no profile id or scenario")
	}
	if cfg.Scenario != nil {
		if err := cfg.Scenario.Validate(); err != nil {
			return nil, fmt.Errorf("loadgen: %w", err)
		}
	}
	workers := cfg.Concurrency
	if workers < 1 {
		workers = 1
	}
	client := cfg.Client
	if client == nil {
		tr := http.DefaultTransport.(*http.Transport).Clone()
		// The default per-host idle pool (2) would force connection
		// churn at any real concurrency.
		tr.MaxIdleConnsPerHost = workers + 2
		client = &http.Client{Transport: tr, Timeout: 5 * time.Minute}
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	d := &driver{
		cfg:    cfg,
		client: client,
		reg:    reg,
		hist:   reg.Histogram("loadgen.latency.ns", obs.ScaleNs),
		reqs:   reg.Counter("loadgen.requests"),
		errs:   reg.Counter("loadgen.errors"),
	}

	if cfg.Warmup > 0 {
		d.closed(ctx, workers, 0, uint64(cfg.Warmup), time.Time{}, false)
	}
	start := uint64(cfg.Warmup)

	res := &Result{Mode: "closed", Concurrency: workers}
	t0 := time.Now()
	switch {
	case cfg.QPS > 0:
		res.Mode = "open"
		res.TargetQPS = cfg.QPS
		if cfg.Duration <= 0 {
			return nil, fmt.Errorf("loadgen: open loop needs a duration")
		}
		res.Requests = d.open(ctx, start)
	case cfg.Requests > 0:
		res.Requests = d.closed(ctx, workers, start, uint64(cfg.Requests), time.Time{}, true)
	case cfg.Duration > 0:
		res.Requests = d.closed(ctx, workers, start, 0, t0.Add(cfg.Duration), true)
	default:
		return nil, fmt.Errorf("loadgen: need -requests or -duration")
	}
	res.WallNs = time.Since(t0).Nanoseconds()

	res.Errors = d.errs.Value()
	if res.WallNs > 0 {
		res.QPS = float64(res.Requests) / (float64(res.WallNs) / 1e9)
	}
	res.MeanNs = int64(d.hist.Mean())
	res.Hist = d.hist
	d.mu.Lock()
	if len(d.errClass) > 0 {
		res.ErrorsByClass = make(map[string]uint64, len(d.errClass))
		for k, v := range d.errClass {
			res.ErrorsByClass[k] = v
		}
	}
	s := d.samples
	d.mu.Unlock()
	if len(s) > 0 {
		sort.Slice(s, func(i, j int) bool {
			if s[i].Ns != s[j].Ns {
				return s[i].Ns > s[j].Ns
			}
			return s[i].Index < s[j].Index
		})
		res.P50Ns = orderStat(s, 50)
		res.P95Ns = orderStat(s, 95)
		res.P99Ns = orderStat(s, 99)
		res.Slowest = append([]SlowRequest(nil), s[:min(len(s), maxSlowRequests)]...)
		for k := range res.Slowest {
			res.Slowest[k].TraceID = d.traceContext(res.Slowest[k].Index).TraceID.String()
		}
	}
	return res, ctx.Err()
}

// RunRamp runs one closed-loop measurement per concurrency level,
// reusing the warmup only for the first level (later levels arrive
// hot). Each level gets its own histogram.
func RunRamp(ctx context.Context, cfg Config, levels []int) ([]*Result, error) {
	var out []*Result
	for li, c := range levels {
		lc := cfg
		lc.Concurrency = c
		lc.Registry = nil // fresh buckets per level
		if li > 0 {
			lc.Warmup = 0
		}
		r, err := Run(ctx, lc)
		if err != nil {
			return out, err
		}
		out = append(out, r)
	}
	return out, nil
}
