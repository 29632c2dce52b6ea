package synth

import (
	"testing"

	"repro/internal/partition"
	"repro/internal/profile"
	"repro/internal/stats"
	"repro/internal/trace"
)

// leavesTestTrace is a small deterministic trace with strides that
// wander and wrap.
func leavesTestTrace() trace.Trace {
	rng := stats.NewRNG(99)
	tr := make(trace.Trace, 0, 2000)
	now, addr := uint64(0), uint64(1<<20)
	for i := 0; i < 2000; i++ {
		now += uint64(rng.Range(1, 100))
		addr += uint64(rng.Range(-2, 6) * 64)
		op := trace.Read
		if rng.Bool(0.3) {
			op = trace.Write
		}
		tr = append(tr, trace.Request{Time: now, Addr: addr, Size: 64, Op: op})
	}
	return tr
}

// reassembleLeaf builds one leaf's partial order from its raw feature
// draws: delta times clamped at zero, strides wrapped into
// [Lo, Hi), starting from the leaf's recorded StartTime/StartAddr.
func reassembleLeaf(l *profile.Leaf, f LeafFeatures) trace.Trace {
	n := int(l.Count)
	out := make(trace.Trace, 0, n)
	tm, addr := l.StartTime, l.StartAddr
	for j := 0; j < n; j++ {
		if j > 0 {
			tm += uint64(max(f.DeltaTimes[j-1], 0))
			addr = WrapAddr(int64(addr)+f.Strides[j-1], l.Lo, l.Hi)
		}
		out = append(out, trace.Request{Time: tm, Addr: addr, Op: OpFromValue(f.Ops[j]), Size: SizeFromValue(f.Sizes[j])})
	}
	return out
}

// leavesTestConfigs covers leaves that fit one chunk (TwoLevelTS) and
// 513-request leaves that refill.
func leavesTestConfigs() []partition.Config {
	cfgs := chunkBoundaryConfigs()
	return []partition.Config{partition.TwoLevelTS(20_000), cfgs[len(cfgs)-1]}
}

// requestCounts returns the multiset of tr.
func requestCounts(tr trace.Trace) map[trace.Request]int {
	counts := make(map[trace.Request]int, len(tr))
	for _, r := range tr {
		counts[r]++
	}
	return counts
}

// TestLeafStreamsUnionEqualsMergedStream pins the contract of the
// per-leaf view: concatenating every leaf reassembled from its feature
// draws under its LeafSeeds seed yields exactly the multiset of requests
// the merged Synthesizer emits.
func TestLeafStreamsUnionEqualsMergedStream(t *testing.T) {
	tr := leavesTestTrace()
	for ci, cfg := range leavesTestConfigs() {
		p := buildProfile(t, tr, cfg)
		const seed = 1234
		seeds := LeafSeeds(len(p.Leaves), seed)
		counts := make(map[trace.Request]int)
		total := 0
		for i := range p.Leaves {
			l := &p.Leaves[i]
			for _, r := range reassembleLeaf(l, Features(l, seeds[i])) {
				counts[r]++
				total++
			}
		}
		merged := trace.Collect(NewFrom(p, seed), 0)
		if total != len(merged) {
			t.Fatalf("cfg %d: reassembled leaves hold %d requests, merged stream %d", ci, total, len(merged))
		}
		for _, r := range merged {
			counts[r]--
			if counts[r] == 0 {
				delete(counts, r)
			}
		}
		if len(counts) != 0 {
			t.Errorf("cfg %d: reassembled union and merged stream differ on %d request values", ci, len(counts))
		}
	}
}

// TestLeafStreamCounts verifies LeafSeeds hands out one seed per leaf,
// Features draws Count ops and sizes and Count-1 gaps per leaf, and the
// merged stream holds each non-empty leaf's first request at its
// recorded StartTime/StartAddr.
func TestLeafStreamCounts(t *testing.T) {
	tr := leavesTestTrace()
	for ci, cfg := range leavesTestConfigs() {
		p := buildProfile(t, tr, cfg)
		const seed = 5
		seeds := LeafSeeds(len(p.Leaves), seed)
		if len(seeds) != len(p.Leaves) {
			t.Fatalf("cfg %d: got %d seeds for %d leaves", ci, len(seeds), len(p.Leaves))
		}
		merged := requestCounts(trace.Collect(NewFrom(p, seed), 0))
		for i := range p.Leaves {
			l := &p.Leaves[i]
			f := Features(l, seeds[i])
			n := int(l.Count)
			if len(f.Ops) != n || len(f.Sizes) != n || (n > 0 && (len(f.DeltaTimes) != n-1 || len(f.Strides) != n-1)) {
				t.Fatalf("cfg %d leaf %d: feature lengths dt=%d stride=%d op=%d size=%d for Count %d",
					ci, i, len(f.DeltaTimes), len(f.Strides), len(f.Ops), len(f.Sizes), n)
			}
			if n == 0 {
				continue
			}
			first := trace.Request{Time: l.StartTime, Addr: l.StartAddr, Op: OpFromValue(f.Ops[0]), Size: SizeFromValue(f.Sizes[0])}
			if merged[first] == 0 {
				t.Errorf("cfg %d leaf %d: merged stream lacks the leaf's first request %v", ci, i, first)
			}
		}
	}
}

// TestFeaturesMatchStream checks every leaf's reassembled requests
// against the merged stream one leaf at a time, consuming matches, so
// a divergence names the first leaf and request index that disagree.
func TestFeaturesMatchStream(t *testing.T) {
	tr := leavesTestTrace()
	for ci, cfg := range leavesTestConfigs() {
		p := buildProfile(t, tr, cfg)
		const seed = 77
		seeds := LeafSeeds(len(p.Leaves), seed)
		merged := requestCounts(trace.Collect(NewFrom(p, seed), 0))
		for i := range p.Leaves {
			l := &p.Leaves[i]
			for j, want := range reassembleLeaf(l, Features(l, seeds[i])) {
				if merged[want] == 0 {
					t.Fatalf("cfg %d leaf %d request %d: reassembled %v not in the merged stream", ci, i, j, want)
				}
				merged[want]--
			}
		}
	}
}

// TestFeaturesEmptyLeaf: a zero-count leaf yields empty features.
func TestFeaturesEmptyLeaf(t *testing.T) {
	var l profile.Leaf
	f := Features(&l, 1)
	if len(f.DeltaTimes) != 0 || len(f.Strides) != 0 || len(f.Ops) != 0 || len(f.Sizes) != 0 {
		t.Errorf("empty leaf produced features: %+v", f)
	}
}
