package synth

import (
	"repro/internal/profile"
	"repro/internal/stats"
)

// This file exposes the per-leaf inputs of a synthesis run. The merged
// stream returned by Synthesizer interleaves every leaf's partial order;
// conformance checking (package conform) assembles its own reference
// partial orders from the raw feature draws to assert the paper's
// per-leaf guarantees — request counts, address ranges, and
// strict-convergence multiset equality (§III-C) — against the merged
// stream.

// LeafSeeds returns the per-leaf RNG seeds a Synthesizer constructed
// over n leaves with the given seed hands to each leaf generator. The
// draw order is part of the deterministic stream contract: seed i
// drives leaf i.
func LeafSeeds(n int, seed uint64) []uint64 {
	rng := stats.NewRNG(seed)
	seeds := make([]uint64, n)
	for i := range seeds {
		seeds[i] = rng.Uint64()
	}
	return seeds
}

// LeafFeatures holds the raw feature values a leaf's four McC
// generators produced during synthesis, before the request assembly
// transforms them (delta-time clamping at zero, address wrapping into
// [Lo, Hi)). Strict convergence is a property of these raw draws:
// generating exactly the training length reproduces the training
// multiset of each feature.
type LeafFeatures struct {
	// DeltaTimes and Strides hold Count-1 values each (the gaps
	// between consecutive requests); Ops and Sizes hold Count values.
	DeltaTimes []int64
	Strides    []int64
	Ops        []int64
	Sizes      []int64
}

// Features regenerates the raw feature draws of one leaf under the
// given per-leaf seed (see LeafSeeds). The generators are seeded
// exactly as a synthesis run seeds them, so the values are
// bit-identical to the draws it consumed.
func Features(l *profile.Leaf, seed uint64) LeafFeatures {
	var f LeafFeatures
	if l.Count == 0 {
		return f
	}
	n := int(l.Count)
	var g featureGens
	g.init(l, seed, nil)

	f.DeltaTimes = make([]int64, 0, n-1)
	f.Strides = make([]int64, 0, n-1)
	f.Ops = make([]int64, 0, n)
	f.Sizes = make([]int64, 0, n)
	// The first request draws only op and size (its time and address
	// come from the leaf's StartTime/StartAddr bookkeeping); each of
	// the remaining n-1 requests draws all four features.
	f.Ops = append(f.Ops, g.op.Next())
	f.Sizes = append(f.Sizes, g.size.Next())
	for i := 1; i < n; i++ {
		f.DeltaTimes = append(f.DeltaTimes, g.dt.Next())
		f.Strides = append(f.Strides, g.stride.Next())
		f.Ops = append(f.Ops, g.op.Next())
		f.Sizes = append(f.Sizes, g.size.Next())
	}
	return f
}
