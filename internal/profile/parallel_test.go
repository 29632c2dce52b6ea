package profile

import (
	"bytes"
	"testing"

	"repro/internal/partition"
)

// TestFitLeafEmpty is the regression test for the empty-leaf panic:
// fitLeaf used to allocate with capacity n-1 and index Reqs[0], both of
// which blow up when a partition carries no requests.
func TestFitLeafEmpty(t *testing.T) {
	l := fitLeaf(partition.Leaf{Lo: 4096, Hi: 8192})
	if l.Count != 0 {
		t.Fatalf("Count = %d, want 0", l.Count)
	}
	if l.Lo != 4096 || l.Hi != 8192 {
		t.Fatalf("bounds = [%d,%d), want [4096,8192)", l.Lo, l.Hi)
	}
	for name, m := range map[string]bool{
		"DeltaTime": l.DeltaTime.Constant,
		"Stride":    l.Stride.Constant,
		"Op":        l.Op.Constant,
		"Size":      l.Size.Constant,
	} {
		if !m {
			t.Errorf("%s model of empty leaf is not an empty constant", name)
		}
	}
}

// TestBuildParallelDeterminism asserts the tentpole guarantee: the same
// trace and config through Build at different worker counts must encode
// to byte-identical profiles, for every hierarchy shape — streamable
// temporal first layers and the materialising fallback a spatial first
// layer drives.
func TestBuildParallelDeterminism(t *testing.T) {
	tr := sampleTrace()
	cfgs := map[string]partition.Config{
		"2L-TS":          partition.TwoLevelTS(1000),
		"reqcount-dyn":   partition.TwoLevelRequestCount(64, 0),
		"reqcount-fixed": partition.TwoLevelRequestCount(64, 4096),
		"cycles-only":    {Layers: []partition.Layer{{Kind: partition.TemporalCycleCount, Param: 700}}},
		"spatial-first": {Layers: []partition.Layer{
			{Kind: partition.SpatialFixed, Param: 1 << 14},
			{Kind: partition.TemporalRequestCount, Param: 32},
		}},
	}
	for name, cfg := range cfgs {
		t.Run(name, func(t *testing.T) {
			encode := func(workers int) []byte {
				p, err := Build("sample", tr, cfg, Workers(workers))
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if err := Write(&buf, p); err != nil {
					t.Fatal(err)
				}
				return buf.Bytes()
			}
			serial := encode(1)
			for _, workers := range []int{2, 8, 16} {
				if got := encode(workers); !bytes.Equal(got, serial) {
					t.Fatalf("workers=%d: encoded profile differs from serial build", workers)
				}
			}
		})
	}
}
