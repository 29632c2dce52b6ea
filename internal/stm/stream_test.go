package stm

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/partition"
	"repro/internal/trace"
)

// TestBuildStreamMatchesBuild: the STM streaming build must produce a
// profile deeply equal to the materialised build (stm has no canonical
// encoding, so structural equality is the identity), serial and
// parallel, streamable and fallback hierarchies.
func TestBuildStreamMatchesBuild(t *testing.T) {
	tr := workload(3, 3000)
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
			want, err := Build("w", tr, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 4} {
				got, err := BuildStream("w", trace.NewSliceReader(tr), cfg, Workers(workers))
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("workers=%d: streaming STM build differs from Build", workers)
				}
			}
		})
	}
}

// TestBuildStreamOutOfOrder: unsorted traces are rejected, streamed or
// materialised.
func TestBuildStreamOutOfOrder(t *testing.T) {
	tr := trace.Trace{
		{Time: 10, Addr: 0x1000, Size: 64, Op: trace.Read},
		{Time: 5, Addr: 0x1040, Size: 64, Op: trace.Write},
	}
	cfg := partition.TwoLevelTS(500)
	for name, build := range map[string]func() (*Profile, error){
		"BuildStream": func() (*Profile, error) { return BuildStream("bad", trace.NewSliceReader(tr), cfg) },
		"Build":       func() (*Profile, error) { return Build("bad", tr, cfg) },
	} {
		if _, err := build(); !errors.Is(err, partition.ErrOutOfOrder) {
			t.Fatalf("%s: err = %v, want ErrOutOfOrder", name, err)
		}
	}
}
