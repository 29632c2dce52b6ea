package profile

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"repro/internal/partition"
	"repro/internal/trace"
)

// encodeProfile canonically encodes p.
func encodeProfile(t *testing.T, p *Profile) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, p); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestBuildStreamEmpty: an empty stream yields an empty (but valid)
// profile, matching Build on an empty trace.
func TestBuildStreamEmpty(t *testing.T) {
	cfg := partition.TwoLevelTS(1000)
	built, err := Build("empty", nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	streamed, err := BuildStream("empty", trace.NewSliceReader(nil), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeProfile(t, built), encodeProfile(t, streamed)) {
		t.Fatal("empty-trace builds encode differently")
	}
}

// TestBuildStreamCancel: a canceled context aborts the streaming build
// with a context error, mirroring Build's fit cancellation.
func TestBuildStreamCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := BuildStream("sample", trace.NewSliceReader(sampleTrace()), partition.TwoLevelTS(1000), Context(ctx), Workers(4))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestBuildStreamOutOfOrder: an unsorted trace is rejected with
// partition.ErrOutOfOrder in the error chain, streamed or materialised.
func TestBuildStreamOutOfOrder(t *testing.T) {
	tr := trace.Trace{
		req(10, 0x1000, 64, trace.Read),
		req(5, 0x1040, 64, trace.Write),
	}
	cfg := partition.TwoLevelTS(1000)
	for name, build := range map[string]func() (*Profile, error){
		"BuildStream": func() (*Profile, error) { return BuildStream("bad", trace.NewSliceReader(tr), cfg) },
		"Build":       func() (*Profile, error) { return Build("bad", tr, cfg) },
	} {
		if _, err := build(); !errors.Is(err, partition.ErrOutOfOrder) {
			t.Fatalf("%s: err = %v, want ErrOutOfOrder", name, err)
		}
	}
}
