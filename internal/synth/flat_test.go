package synth

import (
	"fmt"
	"testing"

	"repro/internal/partition"
	"repro/internal/profile"
	"repro/internal/trace"
)

// openFlat round-trips a heap profile through the flat encoding and
// opens it as a zero-copy view.
func openFlat(t *testing.T, p *profile.Profile) *profile.Flat {
	t.Helper()
	buf, err := profile.MarshalFlat(p)
	if err != nil {
		t.Fatalf("MarshalFlat: %v", err)
	}
	f, err := profile.OpenFlat(buf)
	if err != nil {
		t.Fatalf("OpenFlat: %v", err)
	}
	return f
}

// TestFlatSynthesisByteIdentical is the invariant the flat fast path
// rests on: synthesizing from a flat view emits exactly the stream the
// heap profile emits, request for request, for serial and parallel
// configurations and for leaves on either side of a chunk boundary
// (which decides which leaves are eager and which keep chunked
// generators).
func TestFlatSynthesisByteIdentical(t *testing.T) {
	tr := workload(21, 6000)
	cfgs := append([]partition.Config{partition.TwoLevelTS(700)}, chunkBoundaryConfigs()...)
	for ci, cfg := range cfgs {
		p := buildProfile(t, tr, cfg)
		f := openFlat(t, p)
		want := trace.Collect(NewFrom(p, 99), 0)
		for _, w := range []int{1, 4} {
			got := trace.Collect(NewFrom(f, 99, Workers(w)), 0)
			assertSameTrace(t, fmt.Sprintf("cfg=%d workers=%d", ci, w), got, want)
		}
	}
}

// TestFlatSynthesisSingleLeaf exercises the chunked (non-eager) path
// against a view: one big leaf forces the generator to outlive init,
// which must not retain the stack-transient Leaf view.
func TestFlatSynthesisSingleLeaf(t *testing.T) {
	tr := workload(22, 4000)
	// One request-count layer big enough to swallow everything: a
	// single leaf many chunks long.
	p := buildProfile(t, tr, partition.Config{Layers: []partition.Layer{
		{Kind: partition.TemporalRequestCount, Param: 1 << 20},
	}})
	f := openFlat(t, p)
	want := trace.Collect(NewFrom(p, 5), 0)
	for _, w := range []int{1, 4} {
		got := trace.Collect(NewFrom(f, 5, Workers(w)), 0)
		assertSameTrace(t, fmt.Sprintf("workers=%d", w), got, want)
	}
}

// TestSynthesisAllocsBounded pins the arena design: serial synthesis
// setup plus a full drain must stay within a fixed allocation budget
// that does not scale with leaf count. (The tight end-to-end budget —
// <1k allocs for the large benchmark case — is asserted by the
// benchmarks; this test catches regressions that reintroduce per-leaf
// or per-request allocation.)
func TestSynthesisAllocsBounded(t *testing.T) {
	tr := workload(23, 20000)
	p := buildProfile(t, tr, partition.TwoLevelTS(300))
	if len(p.Leaves) < 40 {
		t.Fatalf("want a many-leaf profile, got %d leaves", len(p.Leaves))
	}
	f := openFlat(t, p)
	allocs := testing.AllocsPerRun(3, func() {
		s := NewFrom(f, 7)
		for {
			if _, ok := s.Next(); !ok {
				break
			}
		}
	})
	// A fixed-cost setup is ~15 allocations; leave generous headroom for
	// runtime noise while still failing hard if allocation becomes
	// proportional to the >40 leaves or the 20k requests.
	if allocs > 40 {
		t.Errorf("synthesis cost %.0f allocs; want a fixed handful", allocs)
	}
}
