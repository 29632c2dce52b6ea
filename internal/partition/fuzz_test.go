package partition

import (
	"testing"

	"repro/internal/stats"
	"repro/internal/trace"
)

// FuzzSplit drives the hierarchical partitioner with fuzz-shaped
// traces and configurations and asserts its structural invariants:
// every input request lands in exactly one leaf, request order (and
// therefore time order, for sorted input) is preserved inside each
// leaf, and every leaf's requests start inside its address bounds.
func FuzzSplit(f *testing.F) {
	f.Add(uint64(1), uint16(100), uint8(1), uint64(1000), uint8(3), uint64(0))
	f.Add(uint64(2), uint16(500), uint8(0), uint64(64), uint8(2), uint64(4096))
	f.Add(uint64(3), uint16(10), uint8(1), uint64(1), uint8(3), uint64(0))
	f.Fuzz(func(t *testing.T, seed uint64, n uint16, tempKind uint8, tempParam uint64, spatKind uint8, spatParam uint64) {
		rng := stats.NewRNG(seed)
		tr := make(trace.Trace, 0, n)
		now := uint64(0)
		for i := 0; i < int(n); i++ {
			now += uint64(rng.Range(0, 300))
			addr := uint64(rng.Intn(1<<20)) * 16
			if rng.Intn(8) == 0 { // within 4 KiB of 2^64, where ends wrap
				addr = -(uint64(1+rng.Intn(256)) * 16)
			}
			size := uint32(1 << rng.Intn(8))
			if rng.Intn(8) == 0 {
				size = 0
			}
			tr = append(tr, trace.Request{Time: now, Addr: addr, Size: size, Op: trace.Op(rng.Intn(2))})
		}

		layers := []Layer{
			{Kind: Kind(tempKind % 2), Param: tempParam},              // a temporal kind
			{Kind: Kind(spatKind%2) + SpatialFixed, Param: spatParam}, // a spatial kind
		}
		cfg := Config{Layers: layers}
		leaves, err := Split(tr, cfg)
		if err != nil {
			// Validate rejected the configuration (e.g. zero params);
			// that is the correct non-panicking outcome.
			return
		}

		total := 0
		for li, l := range leaves {
			total += len(l.Reqs)
			if !l.Reqs.Sorted() {
				t.Fatalf("leaf %d lost time order", li)
			}
			if l.Hi > l.Lo {
				for _, r := range l.Reqs {
					if r.Addr < l.Lo || r.Addr >= l.Hi {
						t.Fatalf("leaf %d: address 0x%x outside bounds [0x%x, 0x%x)",
							li, r.Addr, l.Lo, l.Hi)
					}
				}
			}
		}
		if total != len(tr) {
			t.Fatalf("leaves hold %d requests, input had %d", total, len(tr))
		}
	})
}
