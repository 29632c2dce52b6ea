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
// merger. Over leaves each generated in full by one fill it reproduces
// the old synthesis path exactly, so the batched loser-tree path can be
// asserted byte-identical against it.
type heapMerger struct {
	pq    refHeap
	shift uint64
}

type refEntry struct {
	reqs  []trace.Request // the leaf's not-yet-emitted requests
	order int
}

type refHeap []refEntry

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	ti, tj := h[i].reqs[0].Time, h[j].reqs[0].Time
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

func newHeapMerger(leaves [][]trace.Request) *heapMerger {
	m := &heapMerger{}
	m.pq = make(refHeap, 0, len(leaves))
	for i, reqs := range leaves {
		if len(reqs) > 0 {
			m.pq = append(m.pq, refEntry{reqs: reqs, order: i})
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
	req := e.reqs[0]
	req.Time += m.shift
	if e.reqs = e.reqs[1:]; len(e.reqs) > 0 {
		heap.Fix(&m.pq, 0)
	} else {
		heap.Pop(&m.pq)
	}
	return req, true
}

func (m *heapMerger) Delay(cycles uint64) { m.shift += cycles }

// refSynth reconstructs the old Synthesizer: every leaf generated in
// full by one fill, merged through the reference heap.
func refSynth(p *profile.Profile, seed uint64) trace.Source {
	seeds := LeafSeeds(len(p.Leaves), seed)
	leaves := make([][]trace.Request, len(p.Leaves))
	for i := range p.Leaves {
		l := &p.Leaves[i]
		if l.Count == 0 {
			continue
		}
		var g leafGen
		g.init(l, seeds[i], nil)
		buf := make([]trace.Request, l.Count)
		leaves[i] = buf[:g.fill(buf)]
	}
	return newHeapMerger(leaves)
}

// chunkBoundaryConfigs partition into TemporalRequestCount leaves one
// request short of a chunk, exactly one chunk, one request over, and
// two chunks plus one: eager leaves, a leaf that fills its arena
// region exactly, and leaves that refill once and twice.
func chunkBoundaryConfigs() []partition.Config {
	var cfgs []partition.Config
	for _, n := range []uint64{batch - 1, batch, batch + 1, 2*batch + 1} {
		cfgs = append(cfgs, partition.Config{Layers: []partition.Layer{
			{Kind: partition.TemporalRequestCount, Param: n},
		}})
	}
	return cfgs
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
// chunked fills, parallel setup) emits a stream byte-identical to the
// pre-optimisation heap-based path, for a fixed (profile, seed), with
// and without backpressure delays, on profiles whose leaves end on
// either side of a chunk boundary.
func TestBatchedMatchesOldSynthesisPath(t *testing.T) {
	cfgs := append([]partition.Config{partition.TwoLevelTS(500)}, chunkBoundaryConfigs()...)
	for _, n := range []int{1, 40, 3000} {
		tr := workload(uint64(n), n)
		for ci, cfg := range cfgs {
			p := buildProfile(t, tr, cfg)
			for _, seed := range []uint64{0, 7, 999} {
				want := trace.Collect(refSynth(p, seed), 0)
				for _, w := range []int{1, 2, 4, 8} {
					got := trace.Collect(NewFrom(p, seed, Workers(w)), 0)
					assertSameTrace(t, fmt.Sprintf("n=%d cfg=%d seed=%d workers=%d", n, ci, seed, w), got, want)
				}
				// Backpressure delays interleaved identically on both paths.
				wantD := collectWithDelays(refSynth(p, seed), 13, 100)
				gotD := collectWithDelays(NewFrom(p, seed, Workers(4)), 13, 100)
				assertSameTrace(t, fmt.Sprintf("delayed n=%d cfg=%d seed=%d", n, ci, seed), gotD, wantD)
			}
		}
	}
}

// TestSerialVsParallelSynthesisIdentical pins the determinism contract
// of the parallel per-leaf setup across worker counts, with leaves
// ending on either side of a chunk boundary.
func TestSerialVsParallelSynthesisIdentical(t *testing.T) {
	tr := workload(21, 4000)
	for ci, cfg := range chunkBoundaryConfigs() {
		p := buildProfile(t, tr, cfg)
		want := trace.Collect(NewFrom(p, 5), 0)
		for w := 2; w <= 16; w++ {
			got := trace.Collect(NewFrom(p, 5, Workers(w)), 0)
			assertSameTrace(t, fmt.Sprintf("cfg=%d workers=%d", ci, w), got, want)
		}
	}
}

// TestSynthesizerCounters checks the stats a synthesizer flushes on a
// profile whose leaves refill: a drained stream adds exactly Requests()
// to synth.requests and one chunk per refill to synth.chunks, and an
// abandoned stream closed twice adds its pops once.
func TestSynthesizerCounters(t *testing.T) {
	tr := workload(22, 3000)
	for ci, cfg := range chunkBoundaryConfigs() {
		p := buildProfile(t, tr, cfg)
		refills := uint64(0)
		for i := range p.Leaves {
			if c := uint64(p.Leaves[i].Count); c > 0 {
				refills += (c+batch-1)/batch - 1
			}
		}

		reqs0, chunks0, leaves0 := mRequests.Value(), mChunks.Value(), mLeaves.Value()
		s := NewFrom(p, 1)
		n := len(trace.Collect(s, 0))
		if n != p.Requests() {
			t.Fatalf("cfg=%d: drained %d requests, want %d", ci, n, p.Requests())
		}
		s.Close()
		if got := mRequests.Value() - reqs0; got != uint64(p.Requests()) {
			t.Errorf("cfg=%d: synth.requests grew by %d after a drain, want %d", ci, got, p.Requests())
		}
		chunks, leaves := mChunks.Value()-chunks0, mLeaves.Value()-leaves0
		if chunks-leaves != refills {
			t.Errorf("cfg=%d: synth.chunks - synth.leaves = %d, want %d refills", ci, chunks-leaves, refills)
		}

		reqs0 = mRequests.Value()
		s = NewFrom(p, 1)
		for i := 0; i < 300; i++ {
			if _, ok := s.Next(); !ok {
				t.Fatalf("cfg=%d: stream ended after %d requests", ci, i)
			}
		}
		if got := mRequests.Value() - reqs0; got != 0 {
			t.Errorf("cfg=%d: synth.requests grew by %d before Close", ci, got)
		}
		s.Close()
		s.Close()
		if got := mRequests.Value() - reqs0; got != 300 {
			t.Errorf("cfg=%d: abandoned stream closed twice added %d to synth.requests, want 300", ci, got)
		}
	}
}

func TestSynthesizerEmptyProfile(t *testing.T) {
	for _, opts := range [][]Option{nil, {Workers(4)}} {
		s := NewFrom(&profile.Profile{}, 1, opts...)
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
