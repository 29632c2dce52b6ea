package stm

import (
	"reflect"
	"testing"

	"repro/internal/partition"
)

// TestFitLeafEmpty guards the same empty-partition panic fixed in
// internal/profile: capacity n-1 and Reqs[0] on a leaf with no requests.
func TestFitLeafEmpty(t *testing.T) {
	l := fitLeaf(partition.Leaf{Lo: 100, Hi: 200})
	if l.Count != 0 || l.Reads != 0 || l.Writes != 0 {
		t.Fatalf("empty leaf has counts: %+v", l)
	}
	if l.Lo != 100 || l.Hi != 200 {
		t.Fatalf("bounds = [%d,%d), want [100,200)", l.Lo, l.Hi)
	}
}

// TestBuildParallelDeterminism: STM profiles carry maps (the stride
// pattern table), so equality is structural rather than byte-level — the
// profile package covers the encoded-bytes variant. Every hierarchy
// shape is covered: streamable temporal first layers and the
// materialising fallback a spatial first layer drives.
func TestBuildParallelDeterminism(t *testing.T) {
	tr := workload(7, 4000)
	cfgs := map[string]partition.Config{
		"2L-TS":        partition.TwoLevelTS(500),
		"reqcount-dyn": partition.TwoLevelRequestCount(128, 0),
		"spatial-first": {Layers: []partition.Layer{
			{Kind: partition.SpatialFixed, Param: 1 << 15},
			{Kind: partition.TemporalRequestCount, Param: 64},
		}},
	}
	for name, cfg := range cfgs {
		t.Run(name, func(t *testing.T) {
			serial, err := Build("w", tr, cfg, Workers(1))
			if err != nil {
				t.Fatal(err)
			}
			if len(serial.Leaves) < 2 {
				t.Fatalf("want a multi-leaf workload, got %d leaves", len(serial.Leaves))
			}
			for _, workers := range []int{2, 8} {
				p, err := Build("w", tr, cfg, Workers(workers))
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(p, serial) {
					t.Fatalf("workers=%d: profile differs from serial build", workers)
				}
			}
		})
	}
}
