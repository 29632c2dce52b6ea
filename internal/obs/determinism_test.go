// The determinism test lives in the external test package so it can
// drive the real pipeline: internal/obs itself imports nothing from the
// repository, and this test must keep it that way while proving the
// instrumentation is write-only.
package obs_test

import (
	"bytes"
	"context"
	"io"
	"log/slog"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/profile"
	"repro/internal/stats"
	"repro/internal/trace"
)

// detTrace builds a small deterministic trace (same recipe as the CLI
// smoke tests' tiny trace, scaled up so the profile has several leaves
// and synthesis exercises the merge path).
func detTrace() trace.Trace {
	rng := stats.NewRNG(5)
	tr := make(trace.Trace, 0, 4000)
	now, addr := uint64(100), uint64(1<<20)
	for i := 0; i < 4000; i++ {
		now += uint64(rng.Range(1, 120))
		addr += uint64(rng.Range(-2, 6) * 64)
		op := trace.Read
		if rng.Bool(0.25) {
			op = trace.Write
		}
		tr = append(tr, trace.Request{Time: now, Addr: addr, Size: 64, Op: op})
	}
	return tr
}

// runPipeline profiles and synthesises the trace and returns the
// serialised bytes of both artefacts.
func runPipeline(t *testing.T, tr trace.Trace, buildOpts []core.BuildOption, synthOpts []core.SynthOption) (profBytes, synthBytes []byte) {
	t.Helper()
	p, err := core.Build("det", tr, core.DefaultConfig(), buildOpts...)
	if err != nil {
		t.Fatal(err)
	}
	var pb bytes.Buffer
	if err := profile.WriteGzip(&pb, p); err != nil {
		t.Fatal(err)
	}
	syn := core.SynthesizeTrace(p, 42, synthOpts...)
	var sb bytes.Buffer
	if _, err := trace.WriteBinary(&sb, syn); err != nil {
		t.Fatal(err)
	}
	return pb.Bytes(), sb.Bytes()
}

// TestInstrumentationDoesNotPerturbOutput is the package's contract
// test: profile and synthetic-trace bytes are identical whether the
// pipeline runs bare or under verbose logging, nested spans and a
// populated metrics registry. Instrumentation is observation-only —
// nothing it records may feed back into partitioning, fitting or
// synthesis.
func TestInstrumentationDoesNotPerturbOutput(t *testing.T) {
	tr := detTrace()

	// Bare run: observability left at its defaults, no contexts.
	profOff, synthOff := runPipeline(t, tr, nil, nil)

	// Instrumented run: verbose mode on (logger swapped to io.Discard so
	// the test output stays clean — Verbose() still reports true, which
	// is what the pipeline's debug paths check), every stage recording
	// into the Default registry. The profile is built under a root span
	// as the CLI runs it; synthesis runs inside a sampled request span
	// with a timed child span and a ring Put, exactly as mocktailsd's
	// middleware runs it.
	obs.SetVerbose(true)
	obs.SetLogger(slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelDebug})))
	defer obs.SetVerbose(false)
	ctx, root := obs.Start(context.Background(), "determinism_test")
	parent := obs.SpanContext{TraceID: obs.NewTraceID(), SpanID: obs.NewSpanID(), Flags: obs.FlagSampled}
	rctx, rt := obs.StartRequest(ctx, "determinism_test.request", parent)
	sctx, stream := obs.Start(rctx, "synth.stream")
	profOn, synthOn := runPipeline(t, tr,
		[]core.BuildOption{core.BuildContext(ctx)},
		[]core.SynthOption{core.SynthContext(sctx)})
	stream.End()
	ring := obs.NewTraceRing(8)
	ring.Put(rt.Finish(200, int64(len(synthOn))))
	root.End()

	if !bytes.Equal(profOff, profOn) {
		t.Error("profile bytes differ with instrumentation enabled")
	}
	if !bytes.Equal(synthOff, synthOn) {
		t.Error("synthetic trace bytes differ with instrumentation enabled")
	}
	if len(root.Children()) == 0 {
		t.Error("instrumented run attached no stage spans under the root")
	}
	if got := ring.Recent(1); len(got) != 1 || got[0].TraceID != parent.TraceID.String() {
		t.Error("request trace did not land in the ring with the adopted trace ID")
	} else if !slices.ContainsFunc(got[0].Spans, func(sp obs.TraceSpan) bool { return sp.Name == "synth.init" }) {
		t.Errorf("request trace spans = %v, want the inner synth.init stage", got[0].Spans)
	}
}
