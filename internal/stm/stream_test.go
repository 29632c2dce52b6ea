package stm

import (
	"errors"
	"testing"

	"repro/internal/partition"
	"repro/internal/trace"
)

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
