package markov_test

import (
	"testing"

	"repro/internal/markov"
	"repro/internal/privacy"
	"repro/internal/profile"
	"repro/internal/stats"
)

// TestGeneratorMatchesSearchGeneratorNoised runs the draw-for-draw
// comparison against the search-based generator on privacy-noised
// models: noising prunes edges and rows, leaving source-only values and
// new terminal states behind.
func TestGeneratorMatchesSearchGeneratorNoised(t *testing.T) {
	p := &profile.Profile{Name: "noised"}
	for i := 0; i < 24; i++ {
		rng := stats.NewRNG(uint64(i))
		seq := make([]int64, 50+40*i)
		for j := range seq {
			seq[j] = int64(rng.Intn(4+i)) * 64
		}
		m := markov.Fit(seq)
		p.Leaves = append(p.Leaves, profile.Leaf{Count: uint32(len(seq)), DeltaTime: m, Stride: m, Op: m, Size: m})
	}
	for _, eps := range []float64{0.1, 0.5, 2} {
		q := privacy.Noise(p, eps, 7)
		for i := range q.Leaves {
			l := &q.Leaves[i]
			for f, m := range []*markov.Model{&l.DeltaTime, &l.Stride, &l.Op, &l.Size} {
				if d := markov.MatchSearch(m, uint64(i*4+f), 3*m.Transitions()+8); d >= 0 {
					t.Fatalf("epsilon=%g leaf %d feature %d: first divergence at draw %d", eps, i, f, d)
				}
			}
		}
	}
}
