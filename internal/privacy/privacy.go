// Package privacy implements the obfuscation extension sketched in the
// paper's §VI: before a Mocktails profile leaves the vendor, Laplace
// noise calibrated by a privacy budget epsilon is added to every Markov
// transition count (the profile's only frequency information), in the
// style of differential privacy. Lower epsilon means more noise: more
// protection of the exact execution frequencies, less synthesis fidelity.
// The "privacy" ablation experiment quantifies that trade-off.
package privacy

import (
	"math"

	"repro/internal/markov"
	"repro/internal/profile"
	"repro/internal/stats"
)

// Noise returns a deep copy of the profile whose Markov transition
// counts carry Laplace(1/epsilon) noise (rounded, clamped to >= 0, with
// zeroed edges pruned and empty rows dropped). Constant models and leaf
// bookkeeping (start time, address range, request count) are unchanged:
// they describe a single value, not a frequency. epsilon must be > 0.
func Noise(p *profile.Profile, epsilon float64, seed uint64) *profile.Profile {
	if epsilon <= 0 {
		panic("privacy: epsilon must be positive")
	}
	rng := stats.NewRNG(seed)
	out := &profile.Profile{
		Name:   p.Name,
		Config: p.Config,
		Leaves: make([]profile.Leaf, len(p.Leaves)),
	}
	for i := range p.Leaves {
		l := p.Leaves[i]
		l.DeltaTime = noiseModel(l.DeltaTime, epsilon, rng)
		l.Stride = noiseModel(l.Stride, epsilon, rng)
		l.Op = noiseModel(l.Op, epsilon, rng)
		l.Size = noiseModel(l.Size, epsilon, rng)
		out.Leaves[i] = l
	}
	return out
}

// noiseModel perturbs one McC model. A Markov model whose every row
// noises away entirely degenerates to a constant on its initial value.
func noiseModel(m markov.Model, epsilon float64, rng *stats.RNG) markov.Model {
	if m.Constant {
		return m
	}
	var rows []markov.Row
	for k := range m.Vals {
		var edges []markov.Edge
		for j := m.RowOff[k]; j < m.RowOff[k+1]; j++ {
			n := int64(m.N[j]) + int64(math.Round(laplace(rng, 1/epsilon)))
			if n > 0 {
				edges = append(edges, markov.Edge{To: m.Vals[m.To[j]], N: uint32(n)})
			}
		}
		if len(edges) > 0 {
			rows = append(rows, markov.Row{From: m.Vals[k], Edges: edges})
		}
	}
	if len(rows) == 0 {
		return markov.Model{Constant: true, Value: m.Initial, Initial: m.Initial}
	}
	return markov.FromRows(m.Initial, rows)
}

// laplace draws from the Laplace distribution with mean 0 and scale b
// via inverse transform sampling.
func laplace(rng *stats.RNG, b float64) float64 {
	u := rng.Float64() - 0.5
	if u == 0 {
		return 0
	}
	sign := 1.0
	if u < 0 {
		sign = -1.0
		u = -u
	}
	return -sign * b * math.Log(1-2*u)
}
