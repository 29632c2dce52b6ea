package synth

import (
	"container/heap"
	"fmt"
	"math"
	"math/big"
	"testing"

	"repro/internal/partition"
	"repro/internal/profile"
	"repro/internal/stats"
	"repro/internal/trace"
)

// heapMerger is a frozen copy of the pre-optimisation container/heap
// merger. Together with the per-request Pending/Advance leaf generators
// it reproduces the old synthesis path exactly, so the batched
// loser-tree path can be asserted byte-identical against it.
type heapMerger struct {
	pq    refHeap
	shift uint64
}

type refEntry struct {
	g     *leafGen
	order int
}

type refHeap []refEntry

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	ti, tj := h[i].g.Pending().Time, h[j].g.Pending().Time
	if ti != tj {
		return ti < tj
	}
	return h[i].order < h[j].order
}
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(refEntry)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

func newHeapMerger(gens []*leafGen) *heapMerger {
	m := &heapMerger{}
	m.pq = make(refHeap, 0, len(gens))
	for i, g := range gens {
		if g != nil {
			m.pq = append(m.pq, refEntry{g: g, order: i})
		}
	}
	heap.Init(&m.pq)
	return m
}

func (m *heapMerger) Next() (trace.Request, bool) {
	if len(m.pq) == 0 {
		return trace.Request{}, false
	}
	e := &m.pq[0]
	req := e.g.Pending()
	req.Time += m.shift
	if e.g.Advance() {
		heap.Fix(&m.pq, 0)
	} else {
		heap.Pop(&m.pq)
	}
	return req, true
}

func (m *heapMerger) Delay(cycles uint64) { m.shift += cycles }

// refSynth reconstructs the old Synthesizer: per-request leaf generation
// merged through the reference heap.
func refSynth(p *profile.Profile, seed uint64) trace.Source {
	rng := stats.NewRNG(seed)
	gens := make([]*leafGen, 0, len(p.Leaves))
	for i := range p.Leaves {
		if g := newLeafGen(&p.Leaves[i], rng.Uint64()); g != nil {
			gens = append(gens, g)
		}
	}
	return newHeapMerger(gens)
}

func collectWithDelays(s trace.Source, delayEvery int, delay uint64) trace.Trace {
	var t trace.Trace
	for {
		req, ok := s.Next()
		if !ok {
			return t
		}
		t = append(t, req)
		if delayEvery > 0 && len(t)%delayEvery == 0 {
			s.Delay(delay)
		}
	}
}

func assertSameTrace(t *testing.T, label string, got, want trace.Trace) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d requests, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: request %d = %v, want %v", label, i, got[i], want[i])
		}
	}
}

// TestBatchedMatchesOldSynthesisPath asserts the tentpole invariant: the
// rebuilt hot path (cached-total/Fenwick sampling, loser-tree merge,
// batched chunks, parallel refill) emits a stream byte-identical to the
// pre-optimisation heap-based per-request path, for a fixed (profile,
// seed), with and without backpressure delays.
func TestBatchedMatchesOldSynthesisPath(t *testing.T) {
	for _, n := range []int{1, 40, 3000} {
		tr := workload(uint64(n), n)
		p := buildProfile(t, tr, partition.TwoLevelTS(500))
		for _, seed := range []uint64{0, 7, 999} {
			want := trace.Collect(refSynth(p, seed), 0)
			for _, opts := range [][]Option{
				nil,
				{Batch(1)},
				{Batch(7)},
				{Workers(4)},
				{Workers(8), Batch(3)},
				{Workers(2), Batch(1024)},
			} {
				got := trace.Collect(New(p, seed, opts...), 0)
				assertSameTrace(t, fmt.Sprintf("n=%d seed=%d opts=%d", n, seed, len(opts)), got, want)
			}
			// Backpressure delays interleaved identically on both paths.
			wantD := collectWithDelays(refSynth(p, seed), 13, 100)
			gotD := collectWithDelays(New(p, seed, Workers(4), Batch(5)), 13, 100)
			assertSameTrace(t, fmt.Sprintf("delayed n=%d seed=%d", n, seed), gotD, wantD)
		}
	}
}

// TestSerialVsParallelSynthesisIdentical pins the determinism contract
// of the parallel batch-refill stage across worker counts and batch
// sizes.
func TestSerialVsParallelSynthesisIdentical(t *testing.T) {
	tr := workload(21, 4000)
	p := buildProfile(t, tr, partition.TwoLevelTS(400))
	want := trace.Collect(New(p, 5), 0)
	for _, w := range []int{2, 3, 8, 16} {
		for _, b := range []int{1, 2, 64, DefaultBatch} {
			got := trace.Collect(New(p, 5, Workers(w), Batch(b)), 0)
			assertSameTrace(t, fmt.Sprintf("workers=%d batch=%d", w, b), got, want)
		}
	}
}

// TestParallelSynthesizerClose exercises abandoning a parallel stream
// mid-flight; under -race this also proves the refill pipeline shuts
// down without leaking blocked workers.
func TestParallelSynthesizerClose(t *testing.T) {
	tr := workload(22, 3000)
	p := buildProfile(t, tr, partition.TwoLevelTS(400))
	s := New(p, 1, Workers(4), Batch(8))
	for i := 0; i < 100; i++ {
		if _, ok := s.Next(); !ok {
			t.Fatal("stream ended early")
		}
	}
	s.Close()
	s.Close() // idempotent
	// A fully drained parallel stream closes itself; Close stays safe.
	s2 := New(p, 1, Workers(4))
	trace.Collect(s2, 0)
	s2.Close()
}

func TestSynthesizerEmptyProfile(t *testing.T) {
	for _, opts := range [][]Option{nil, {Workers(4)}} {
		s := New(&profile.Profile{}, 1, opts...)
		if _, ok := s.Next(); ok {
			t.Error("empty profile produced a request")
		}
		s.Close()
	}
}

// TestWrapAddrUpperHalf pins the uint64-span fix: regions straddling or
// above 1<<63, where the former int64 span computation overflowed and
// collapsed every address to lo.
func TestWrapAddrUpperHalf(t *testing.T) {
	top := uint64(1) << 63 // a variable, so int64(top+…) conversions wrap at runtime instead of failing constant checks
	cases := []struct {
		name   string
		addr   int64
		lo, hi uint64
		want   uint64
	}{
		{"upper-region in-range", int64(top + 100), top, top + 4096, top + 100},
		{"upper-region wraps", int64(top + 5000), top, top + 4096, top + (5000 % 4096)},
		{"straddles sign bit, below", int64(top - 8), top - 1024, top + 1024, top - 8},
		{"straddles sign bit, above", int64(top + 8), top - 1024, top + 1024, top + 8},
		{"straddles, wraps forward", int64(top + 2048), top - 1024, top + 1024, top},
		{"huge span, negative addr", -1, 0, top + 10, top + 9},
		{"max lo", int64(math.MaxInt64), math.MaxUint64 - 10, math.MaxUint64, math.MaxUint64 - 8},
		{"min addr", math.MinInt64, 100, 200, 192},
	}
	for _, c := range cases {
		if got := WrapAddr(c.addr, c.lo, c.hi); got != c.want {
			t.Errorf("%s: WrapAddr(%d, %#x, %#x) = %#x, want %#x", c.name, c.addr, c.lo, c.hi, got, c.want)
		}
		if got := WrapAddr(c.addr, c.lo, c.hi); got < c.lo || got >= c.hi {
			t.Errorf("%s: result %#x outside [%#x, %#x)", c.name, got, c.lo, c.hi)
		}
	}
}

// TestWrapAddrMatchesBigIntSemantics cross-checks the uint64 reduction
// against arbitrary-precision modular arithmetic over a deterministic
// sample of boundary-heavy inputs.
func TestWrapAddrMatchesBigIntSemantics(t *testing.T) {
	rng := stats.NewRNG(3)
	interesting := []uint64{0, 1, 63, 4096, 1<<62 - 1, 1 << 62, 1<<63 - 1, 1 << 63, 1<<63 + 1, math.MaxUint64 - 4096, math.MaxUint64}
	spans := []uint64{1, 2, 63, 64, 4096, 1 << 32, 1<<63 - 1, 1 << 63}
	for i := 0; i < 5000; i++ {
		lo := interesting[rng.Intn(len(interesting))]
		span := spans[rng.Intn(len(spans))]
		hi := lo + span
		if hi < lo { // overflow: clamp to top of address space
			hi = math.MaxUint64
			span = hi - lo
			if span == 0 {
				continue
			}
		}
		addr := int64(rng.Uint64())
		got := WrapAddr(addr, lo, hi)
		if got < lo || got >= hi {
			t.Fatalf("WrapAddr(%d, %#x, %#x) = %#x out of range", addr, lo, hi, got)
		}
		// want = lo + ((addr - lo) mod span) in exact integer arithmetic.
		rel := new(big.Int).Sub(big.NewInt(addr), new(big.Int).SetUint64(lo))
		rel.Mod(rel, new(big.Int).SetUint64(span)) // big.Mod is Euclidean: result in [0, span)
		want := new(big.Int).Add(new(big.Int).SetUint64(lo), rel)
		if new(big.Int).SetUint64(got).Cmp(want) != 0 {
			t.Fatalf("WrapAddr(%d, %#x, %#x) = %#x, want %s", addr, lo, hi, got, want)
		}
	}
}
