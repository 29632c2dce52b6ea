package core

import (
	"strings"
	"testing"

	"repro/internal/trace"
)

// TestBuildStreamUnsorted: the streaming path reports the same
// not-sorted diagnostic Build does.
func TestBuildStreamUnsorted(t *testing.T) {
	tr := trace.Trace{
		{Time: 10, Addr: 0x1000, Size: 64, Op: trace.Read},
		{Time: 5, Addr: 0x1040, Size: 64, Op: trace.Read},
	}
	_, err := BuildStream("bad", trace.NewSliceReader(tr), DefaultConfig())
	if err == nil || !strings.Contains(err.Error(), `trace "bad" is not sorted by time`) {
		t.Fatalf("err = %v, want not-sorted diagnostic", err)
	}
}
