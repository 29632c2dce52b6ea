package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// syncBuffer is a mutex-guarded buffer: both nodes of an in-process
// cluster log concurrently during a cross-node request.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// accessLogger returns a per-node access-log destination: an Info-level
// text logger into a private buffer.
func accessLogger() (*slog.Logger, *syncBuffer) {
	buf := &syncBuffer{}
	return slog.New(slog.NewTextHandler(buf, &slog.HandlerOptions{Level: slog.LevelInfo})), buf
}

// ringTrace finds the newest trace for route in the server's ring.
func ringTrace(s *Server, route string) *obs.RequestTrace {
	for _, tr := range s.Traces().Recent(s.Traces().Cap()) {
		if tr.Name == route {
			return tr
		}
	}
	return nil
}

// TestTraceparentAdopted checks the middleware joins an incoming W3C
// trace: the response echoes the trace ID as X-Request-Id, and the
// ring records the caller's span as parent.
func TestTraceparentAdopted(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	parent := obs.SpanContext{TraceID: obs.NewTraceID(), SpanID: obs.NewSpanID(), Flags: obs.FlagSampled}

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
	req.Header.Set("traceparent", parent.Traceparent())
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got != parent.TraceID.String() {
		t.Fatalf("X-Request-Id = %q, want the traceparent's trace ID %q", got, parent.TraceID)
	}
}

// TestXRequestIDAdopted checks the fallback: a bare 32-hex request ID
// supplies the trace ID when no traceparent is present, and a fresh ID
// is assigned when neither header parses.
func TestXRequestIDAdopted(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	id := obs.NewTraceID()

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
	req.Header.Set("X-Request-Id", id.String())
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got != id.String() {
		t.Fatalf("X-Request-Id = %q, want the request's %q", got, id)
	}

	req2, _ := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
	req2.Header.Set("X-Request-Id", "not-a-trace-id")
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if _, ok := obs.ParseTraceID(resp2.Header.Get("X-Request-Id")); !ok {
		t.Fatalf("assigned X-Request-Id %q is not a valid trace ID", resp2.Header.Get("X-Request-Id"))
	}
}

// TestDebugRequests checks GET /debug/requests returns recent traces
// newest first with route, status and spans, honours ?n=, and rejects
// a malformed n.
func TestDebugRequests(t *testing.T) {
	srv, ts := newTestServer(t, Config{TraceRing: 16})
	p := testProfile(t, 7)
	meta := uploadProfile(t, ts, p)
	if st, _ := streamSynth(t, ts.URL, meta.ID, 1); st != http.StatusOK {
		t.Fatalf("synth status %d", st)
	}
	await(func() bool { return ringTrace(srv, "serve.synth") != nil })

	resp, err := http.Get(ts.URL + "/debug/requests?n=8")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc struct {
		Requests []obs.RequestTrace `json:"requests"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Requests) < 2 {
		t.Fatalf("debug/requests returned %d traces, want >= 2", len(doc.Requests))
	}
	var synthTr *obs.RequestTrace
	for i := range doc.Requests {
		if doc.Requests[i].Name == "serve.synth" {
			synthTr = &doc.Requests[i]
		}
	}
	if synthTr == nil {
		t.Fatal("synth request missing from /debug/requests")
	}
	if synthTr.Method != "POST" || synthTr.Status != http.StatusOK || synthTr.Bytes <= 0 {
		t.Fatalf("synth trace outcome wrong: %+v", synthTr)
	}
	spanNames := make(map[string]bool)
	for _, sp := range synthTr.Spans {
		spanNames[sp.Name] = true
	}
	if !spanNames["limit.wait"] || !spanNames["store.acquire"] || !spanNames["synth.stream"] ||
		!spanNames["synth.init"] {
		t.Fatalf("synth trace spans = %v, want limit.wait + store.acquire + synth.init + synth.stream", synthTr.Spans)
	}

	// Stages timed inside the handlers show up in the request trace
	// too: the in-process fit of a trace upload, and the composition
	// behind a scenario stream.
	resp2, err := http.Post(ts.URL+"/v1/profiles?kind=trace&name=dbg", "application/gzip", gzTraceBody(t, testTrace(8, 300)))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusCreated {
		t.Fatalf("trace upload status %d", resp2.StatusCode)
	}
	if st, _, _ := postScenario(t, ts.URL, testSpec(meta.ID)); st != http.StatusOK {
		t.Fatalf("scenario status %d", st)
	}
	await(func() bool { return ringTrace(srv, "serve.scenario") != nil })
	for route, want := range map[string][]string{
		"serve.upload":   {"fit.stream", "profile.build_stream", "partition.stream"},
		"serve.scenario": {"store.acquire", "scenario.compose", "scenario.stream"},
	} {
		tr := ringTrace(srv, route)
		if tr == nil {
			t.Fatalf("%s trace missing from the ring", route)
		}
		for _, name := range want {
			if !slices.ContainsFunc(tr.Spans, func(sp obs.TraceSpan) bool { return sp.Name == name }) {
				t.Fatalf("%s trace spans = %v, want %v", route, tr.Spans, want)
			}
		}
	}

	if resp, err := http.Get(ts.URL + "/debug/requests?n=bogus"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("bad n: status %d, want 400", resp.StatusCode)
		}
	}

	// The ring accessor agrees with the endpoint.
	if tr := ringTrace(srv, "serve.synth"); tr == nil {
		t.Fatal("synth trace missing from the ring accessor")
	}
}

// TestRequestSpansNotRetained serves requests the way mocktailsd does,
// with the daemon's root span in every request's base context. Each
// request span must be the root of its own tree: nothing attaches
// under the daemon span (which lives until shutdown and would retain
// every request ever served), yet every request lands in the ring.
func TestRequestSpansNotRetained(t *testing.T) {
	base, root := obs.Start(context.Background(), "mocktailsd")
	srv, err := NewServer(Config{TraceRing: 16})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewUnstartedServer(srv.Handler())
	ts.Config.BaseContext = func(net.Listener) context.Context { return base }
	ts.Start()
	defer ts.Close()

	meta := uploadProfile(t, ts, testProfile(t, 5))
	const n = 4
	for seed := uint64(1); seed <= n; seed++ {
		if st, _ := streamSynth(t, ts.URL, meta.ID, seed); st != http.StatusOK {
			t.Fatalf("synth status %d", st)
		}
	}
	synths := func() int {
		k := 0
		for _, tr := range srv.Traces().Recent(srv.Traces().Cap()) {
			if tr.Name == "serve.synth" {
				k++
			}
		}
		return k
	}
	await(func() bool { return synths() == n })
	if got := synths(); got != n {
		t.Fatalf("ring holds %d synth traces, want %d", got, n)
	}
	if kids := root.Children(); len(kids) != 0 {
		t.Fatalf("daemon span retained %d request spans", len(kids))
	}
}

// TestMetricsEndpoint scrapes GET /metrics after live traffic and
// checks (a) the document passes the strict exposition parser, and
// (b) every serve.* and stage.* metric in the registry appears.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	p := testProfile(t, 3)
	meta := uploadProfile(t, ts, p)
	if st, _ := streamSynth(t, ts.URL, meta.ID, 1); st != http.StatusOK {
		t.Fatalf("synth status %d", st)
	}

	// Scrape twice: a scrape's own latency span ends after its response
	// is written, so stage.serve.metrics.* only exists from the second
	// scrape on.
	if warm, err := http.Get(ts.URL + "/metrics"); err != nil {
		t.Fatal(err)
	} else {
		io.Copy(io.Discard, warm.Body)
		warm.Body.Close()
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != obs.PromContentType {
		t.Fatalf("Content-Type = %q, want %q", ct, obs.PromContentType)
	}
	var body bytes.Buffer
	if _, err := body.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if _, err := obs.ValidateExposition(body.Bytes()); err != nil {
		t.Fatalf("/metrics failed validation: %v", err)
	}

	// Every serve.* / stage.* registry name must appear, sanitized.
	var reg bytes.Buffer
	if err := obs.Default.WriteJSON(&reg); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Counters   map[string]uint64          `json:"counters"`
		Gauges     map[string]float64         `json:"gauges"`
		Histograms map[string]json.RawMessage `json:"histograms"`
	}
	if err := json.Unmarshal(reg.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for n := range doc.Counters {
		names = append(names, n)
	}
	for n := range doc.Gauges {
		names = append(names, n)
	}
	for n := range doc.Histograms {
		names = append(names, n)
	}
	text := body.String()
	for _, n := range names {
		if !strings.HasPrefix(n, "serve.") && !strings.HasPrefix(n, "stage.") {
			continue
		}
		pn := obs.PromName(n)
		if !strings.Contains(text, "# TYPE "+pn+" ") {
			t.Errorf("/metrics missing %s (from registry name %s)", pn, n)
		}
	}
}

// TestClusterTracePropagation is the tentpole's acceptance test: one
// synthesis against node B whose profile lives only on node A is ONE
// trace — the same trace ID lands in both nodes' rings and both nodes'
// access logs, node B's trace carries the cluster.fetch and
// synth.stream spans, and node A's row is marked as a peer request.
func TestClusterTracePropagation(t *testing.T) {
	logA, bufA := accessLogger()
	logB, bufB := accessLogger()
	srvA, err := NewServer(Config{AccessLog: logA})
	if err != nil {
		t.Fatal(err)
	}
	srvB, err := NewServer(Config{AccessLog: logB})
	if err != nil {
		t.Fatal(err)
	}
	tsA := httptest.NewServer(srvA.Handler())
	defer tsA.Close()
	tsB := httptest.NewServer(srvB.Handler())
	defer tsB.Close()
	for _, j := range []struct {
		s     *Server
		self  string
		peers []string
	}{{srvA, tsA.URL, []string{tsB.URL}}, {srvB, tsB.URL, []string{tsA.URL}}} {
		if err := j.s.JoinCluster(ClusterConfig{
			Advertise: j.self, Peers: j.peers, PeerTimeout: 5 * time.Second,
		}); err != nil {
			t.Fatal(err)
		}
	}

	// Plant the profile directly in node A's store — no upload, no
	// replication — so node B's synthesis must fetch-on-miss from A.
	p := testProfile(t, 11)
	meta, _, err := srvA.Store().Put(p)
	if err != nil {
		t.Fatal(err)
	}

	parent := obs.SpanContext{TraceID: obs.NewTraceID(), SpanID: obs.NewSpanID(), Flags: obs.FlagSampled}
	req, _ := http.NewRequest(http.MethodPost,
		fmt.Sprintf("%s/v1/profiles/%s/synth?seed=9&format=bin", tsB.URL, meta.ID), nil)
	req.Header.Set("traceparent", parent.Traceparent())
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cross-node synth status %d", resp.StatusCode)
	}
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		t.Fatal(err)
	}
	traceID := parent.TraceID.String()
	await(func() bool {
		return ringTrace(srvB, "serve.synth") != nil && ringTrace(srvA, "serve.get") != nil &&
			strings.Contains(bufB.String(), traceID) && strings.Contains(bufA.String(), traceID)
	})
	if got := resp.Header.Get("X-Request-Id"); got != traceID {
		t.Fatalf("X-Request-Id = %q, want %q", got, traceID)
	}

	// Node B: the synth request under the caller's trace ID, with the
	// cluster.fetch and synth.stream spans.
	trB := ringTrace(srvB, "serve.synth")
	if trB == nil || trB.TraceID != traceID {
		t.Fatalf("node B synth trace = %+v, want trace %s", trB, traceID)
	}
	spansB := make(map[string]bool)
	for _, sp := range trB.Spans {
		spansB[sp.Name] = true
	}
	if !spansB["cluster.fetch"] || !spansB["synth.stream"] || !spansB["synth.init"] {
		t.Fatalf("node B spans = %v, want cluster.fetch + synth.init + synth.stream", trB.Spans)
	}

	// Node A: the peer download under the SAME trace ID, marked peer.
	trA := ringTrace(srvA, "serve.get")
	if trA == nil {
		t.Fatal("node A recorded no get request")
	}
	if trA.TraceID != traceID {
		t.Fatalf("node A trace ID = %s, want %s (trace did not propagate)", trA.TraceID, traceID)
	}
	if !trA.Peer {
		t.Fatal("node A's row is not marked as a peer request")
	}

	// Both access logs carry the one trace ID.
	if !strings.Contains(bufB.String(), traceID) {
		t.Fatalf("node B access log missing trace %s:\n%s", traceID, bufB.String())
	}
	if !strings.Contains(bufA.String(), traceID) {
		t.Fatalf("node A access log missing trace %s:\n%s", traceID, bufA.String())
	}
}

// TestClusterHealthRTT checks the peer probe rows report a positive
// round-trip time and feed the serve.cluster.probe.ns histogram.
func TestClusterHealthRTT(t *testing.T) {
	_, tss := newTestCluster(t, 2, Config{})
	before := obs.NewHistogram("serve.cluster.probe.ns", obs.ScaleNs).Total()

	resp, err := http.Get(tss[0].URL + "/v1/cluster/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc struct {
		Mode  string       `json:"mode"`
		Peers []peerHealth `json:"peers"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.Mode != "cluster" || len(doc.Peers) != 1 {
		t.Fatalf("cluster health = %+v", doc)
	}
	row := doc.Peers[0]
	if !row.OK || row.RTTNs <= 0 {
		t.Fatalf("peer row = %+v, want ok with positive rtt_ns", row)
	}
	after := obs.NewHistogram("serve.cluster.probe.ns", obs.ScaleNs).Total()
	if after != before+1 {
		t.Fatalf("probe histogram total %d -> %d, want one new observation", before, after)
	}
}

// TestAccessLogToggle checks obs.SetAccessLog(false) suppresses the
// per-request line without touching the trace ring.
func TestAccessLogToggle(t *testing.T) {
	log, buf := accessLogger()
	srv, err := NewServer(Config{AccessLog: log})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	obs.SetAccessLog(false)
	defer obs.SetAccessLog(true)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := buf.String(); got != "" {
		t.Fatalf("access log emitted while disabled:\n%s", got)
	}
	if tr := ringTrace(srv, "serve.health"); tr == nil {
		t.Fatal("trace ring must record requests even with access logs off")
	}

	obs.SetAccessLog(true)
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !strings.Contains(buf.String(), "route=serve.health") {
		t.Fatalf("access log missing the request line:\n%s", buf.String())
	}
}
