package markov

import (
	"testing"

	"repro/internal/stats"
)

// benchDeltaSeq builds a delta-time-like training sequence: 64 distinct
// gaps, of which 8 short "hub" gaps carry three quarters of the draws.
// The hubs' rows reach past fenwickMin edges (the Fenwick kernels), the
// rare gaps' rows stay short (the linear scans), and the value set is
// large enough for the value-level Fenwick tree.
func benchDeltaSeq(n int) []int64 {
	rng := stats.NewRNG(1)
	seq := make([]int64, n)
	for i := range seq {
		if rng.Intn(4) == 0 {
			seq[i] = int64(rng.Intn(64)) * 16
		} else {
			seq[i] = int64(rng.Intn(8)) * 16
		}
	}
	return seq
}

// BenchmarkGeneratorNext measures one strict-convergence draw. The
// generator restarts on a fresh arena every training length, so the
// mix of strict draws, row fallbacks and value redirects matches a
// synthesis run's.
func BenchmarkGeneratorNext(b *testing.B) {
	seq := benchDeltaSeq(4096)
	m := Fit(seq)
	n32, n64 := m.ArenaSize()
	u32, u64 := make([]uint32, n32), make([]uint64, n64)
	var g Generator
	var sink int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%len(seq) == 0 {
			ar := Arena{U32: u32, U64: u64}
			g.InitArena(&m, stats.NewRNG(uint64(i)), &ar)
		}
		sink += g.Next()
	}
	if sink == 42 {
		b.Log(sink)
	}
}
