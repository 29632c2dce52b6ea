package obs

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTraceparentRoundTrip(t *testing.T) {
	sc := SpanContext{
		TraceID: TraceIDFromUint64(0x0123456789abcdef, 0xfedcba9876543210),
		SpanID:  SpanIDFromUint64(0xdeadbeefcafef00d),
		Flags:   FlagSampled,
	}
	tp := sc.Traceparent()
	want := "00-0123456789abcdeffedcba9876543210-deadbeefcafef00d-01"
	if tp != want {
		t.Fatalf("Traceparent() = %q, want %q", tp, want)
	}
	got, ok := ParseTraceparent(tp)
	if !ok || got != sc {
		t.Fatalf("ParseTraceparent(%q) = %+v, %v; want %+v", tp, got, ok, sc)
	}
}

func TestParseTraceparentInvalid(t *testing.T) {
	valid := "00-0123456789abcdeffedcba9876543210-deadbeefcafef00d-01"
	cases := []struct {
		name string
		in   string
		ok   bool
	}{
		{"valid", valid, true},
		{"uppercase hex accepted", strings.ToUpper(valid[:2]) + valid[2:], true},
		{"future version with suffix", "01" + valid[2:] + "-extrafield", true},
		{"empty", "", false},
		{"short", valid[:54], false},
		{"version ff", "ff" + valid[2:], false},
		{"version 00 with trailing data", valid + "-extra", false},
		{"future version bad separator", "01" + valid[2:] + "x", false},
		{"zero trace id", "00-00000000000000000000000000000000-deadbeefcafef00d-01", false},
		{"zero span id", "00-0123456789abcdeffedcba9876543210-0000000000000000-01", false},
		{"non-hex trace id", "00-0123456789abcdeffedcba987654321g-deadbeefcafef00d-01", false},
		{"non-hex flags", "00-0123456789abcdeffedcba9876543210-deadbeefcafef00d-0x", false},
		{"wrong separators", strings.Replace(valid, "-", "_", 1), false},
	}
	for _, tc := range cases {
		if _, ok := ParseTraceparent(tc.in); ok != tc.ok {
			t.Errorf("%s: ParseTraceparent(%q) ok = %v, want %v", tc.name, tc.in, ok, tc.ok)
		}
	}
}

func TestParseTraceID(t *testing.T) {
	id := NewTraceID()
	got, ok := ParseTraceID(id.String())
	if !ok || got != id {
		t.Fatalf("ParseTraceID(%q) = %v, %v", id.String(), got, ok)
	}
	for _, bad := range []string{
		"", "abc", strings.Repeat("0", 32), strings.Repeat("g", 32),
		id.String() + "00", id.String()[:30],
	} {
		if _, ok := ParseTraceID(bad); ok {
			t.Errorf("ParseTraceID(%q) accepted", bad)
		}
	}
}

func TestNewIDsUniqueAndNonZero(t *testing.T) {
	const n = 10000
	traces := make(map[TraceID]bool, n)
	spans := make(map[SpanID]bool, n)
	for i := 0; i < n; i++ {
		tid, sid := NewTraceID(), NewSpanID()
		if tid.IsZero() || sid.IsZero() {
			t.Fatal("generated a zero ID")
		}
		if traces[tid] || spans[sid] {
			t.Fatal("generated a duplicate ID")
		}
		traces[tid], spans[sid] = true, true
	}
	// The all-zero inputs must be remapped, not passed through.
	if TraceIDFromUint64(0, 0).IsZero() || SpanIDFromUint64(0).IsZero() {
		t.Fatal("FromUint64(0) produced the invalid zero ID")
	}
}

func TestStartRequestAdoptsParent(t *testing.T) {
	parent := SpanContext{TraceID: NewTraceID(), SpanID: NewSpanID(), Flags: FlagSampled}
	ctx, rt := StartRequest(context.Background(), "serve.synth", parent)
	if rt.TraceID() != parent.TraceID {
		t.Fatalf("trace ID not adopted: got %s, want %s", rt.TraceID(), parent.TraceID)
	}
	if SpanFromContext(ctx) != rt {
		t.Fatal("SpanFromContext did not return the started request span")
	}
	cc := rt.ChildContext()
	done := rt.Finish(200, 42)
	if cc.TraceID != parent.TraceID || cc.SpanID.String() == done.SpanID {
		t.Fatal("ChildContext must keep the trace ID and mint a fresh span ID")
	}
	if done.TraceID != parent.TraceID.String() || done.Parent != parent.SpanID.String() {
		t.Fatalf("finished trace identity wrong: %+v", done)
	}
	if done.Status != 200 || done.Bytes != 42 {
		t.Fatalf("finished trace outcome wrong: %+v", done)
	}

	// A zero parent starts a fresh trace.
	_, rt2 := StartRequest(context.Background(), "serve.synth", SpanContext{})
	if rt2.TraceID().IsZero() {
		t.Fatal("fresh request got a zero trace ID")
	}
	if d := rt2.Finish(200, 0); d.Parent != "" {
		t.Fatalf("fresh request has a parent span: %q", d.Parent)
	}
}

func TestReqTraceSpans(t *testing.T) {
	// A request span is the root of its own tree: it must not attach
	// to a span already in the context (a daemon's root span would
	// otherwise retain every request it ever served).
	bctx, daemon := Start(context.Background(), "daemon")
	ctx, rt := StartRequest(bctx, "serve.synth", SpanContext{})
	rt.SetHTTP("POST", "/v1/profiles/x/synth", true)
	sctx, stream := Start(ctx, "synth.stream")
	if stream.TraceID() != rt.TraceID() {
		t.Fatal("child span did not inherit the request's trace ID")
	}
	_, sinit := Start(sctx, "synth.init") // grandchild: flattened into the trace
	time.Sleep(time.Millisecond)
	sinit.End()
	stream.End()
	Start(ctx, "never.ended") // a span that never ends records nothing
	done := rt.Finish(200, 7)
	if len(done.Spans) != 2 || done.Spans[0].Name != "synth.stream" || done.Spans[1].Name != "synth.init" {
		t.Fatalf("spans = %+v, want synth.stream then synth.init", done.Spans)
	}
	for _, sp := range done.Spans {
		if sp.DurNs <= 0 || sp.StartNs < 0 {
			t.Fatalf("span timing not positive: %+v", sp)
		}
	}
	if done.Spans[1].StartNs < done.Spans[0].StartNs || done.DurNs < done.Spans[0].DurNs {
		t.Fatalf("spans not in start order within the request: %+v", done)
	}
	if len(daemon.Children()) != 0 {
		t.Fatalf("request span attached under the context's span: %v", daemon.Children())
	}
	if done.Method != "POST" || done.Route != "/v1/profiles/x/synth" || !done.Peer {
		t.Fatalf("HTTP identity lost: %+v", done)
	}
}

// TestRequestFinishConcurrent finishes a request while parallel stages
// still attach and end spans under it (run under -race); once they are
// done, the trace holds every ended span in start order.
func TestRequestFinishConcurrent(t *testing.T) {
	ctx, rt := StartRequest(context.Background(), "serve.scenario", SpanContext{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				sctx, sp := Start(ctx, "stage")
				_, inner := Start(sctx, "stage.inner")
				inner.End()
				sp.End()
			}
		}()
	}
	mid := rt.Finish(200, 0) // races the workers on purpose
	wg.Wait()
	if len(mid.Spans) > 400 {
		t.Fatalf("mid-flight trace has %d spans, want <= 400", len(mid.Spans))
	}
	done := rt.Finish(200, 0)
	if len(done.Spans) != 400 {
		t.Fatalf("trace has %d spans, want 400", len(done.Spans))
	}
	for i := 1; i < len(done.Spans); i++ {
		if done.Spans[i].StartNs < done.Spans[i-1].StartNs {
			t.Fatalf("spans out of start order at %d: %+v", i, done.Spans[i-1:i+1])
		}
	}
}

func TestReqTraceNilSafe(t *testing.T) {
	var rt *Span
	if !rt.TraceID().IsZero() {
		t.Fatal("nil trace has a trace ID")
	}
	if rt.ChildContext().Valid() {
		t.Fatal("nil trace has a valid span context")
	}
	rt.SetHTTP("GET", "/", false)
	rt.End()
	if rt.Finish(200, 0) != nil {
		t.Fatal("nil trace finished to a record")
	}
	if SpanFromContext(context.Background()).ChildContext().Valid() {
		t.Fatal("empty context carries a trace")
	}
	if SpanFromContext(nil).ChildContext().Valid() {
		t.Fatal("nil context carries a trace")
	}
	// A span outside any request carries no trace either.
	_, cli := Start(context.Background(), "profile")
	if !cli.TraceID().IsZero() || cli.ChildContext().Valid() {
		t.Fatal("a span outside a request has a trace")
	}
}

func TestTraceRingRecent(t *testing.T) {
	r := NewTraceRing(4)
	if r.Cap() != 4 {
		t.Fatalf("Cap = %d, want 4", r.Cap())
	}
	if got := r.Recent(10); got != nil {
		t.Fatalf("empty ring Recent = %v", got)
	}
	for i := 0; i < 6; i++ {
		r.Put(&RequestTrace{Name: fmt.Sprintf("req%d", i)})
	}
	got := r.Recent(10)
	if len(got) != 4 {
		t.Fatalf("Recent returned %d traces, want 4", len(got))
	}
	// Newest first; the two oldest were overwritten.
	for i, want := range []string{"req5", "req4", "req3", "req2"} {
		if got[i].Name != want {
			t.Fatalf("Recent[%d] = %s, want %s", i, got[i].Name, want)
		}
	}
	if got := r.Recent(2); len(got) != 2 || got[0].Name != "req5" {
		t.Fatalf("Recent(2) = %v", got)
	}
	r.Put(nil) // ignored
	if len(r.Recent(10)) != 4 {
		t.Fatal("nil Put changed the ring")
	}
}

func TestTraceRingDefaultSize(t *testing.T) {
	if NewTraceRing(0).Cap() != DefaultTraceRingSize {
		t.Fatal("size 0 did not select the default capacity")
	}
	if NewTraceRing(-3).Cap() != DefaultTraceRingSize {
		t.Fatal("negative size did not select the default capacity")
	}
}

func TestTraceRingConcurrent(t *testing.T) {
	r := NewTraceRing(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Put(&RequestTrace{Name: fmt.Sprintf("g%d-%d", g, i)})
				if i%100 == 0 {
					r.Recent(32)
				}
			}
		}(g)
	}
	wg.Wait()
	got := r.Recent(64)
	if len(got) == 0 || len(got) > 64 {
		t.Fatalf("Recent after concurrent writes returned %d traces", len(got))
	}
	for _, tr := range got {
		if tr == nil {
			t.Fatal("Recent returned a nil trace")
		}
	}
}
