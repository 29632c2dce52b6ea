package profile

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"repro/internal/partition"
	"repro/internal/trace"
)

// encodeProfile canonically encodes p, the same bytes content
// addressing hashes.
func encodeProfile(t *testing.T, p *Profile) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, p); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestBuildStreamMatchesBuild is the acceptance identity: for every
// hierarchy shape (streamable and fallback) and worker count, the
// streaming build must encode byte-identically to the materialised
// build — the property that makes the two paths share one content
// address.
func TestBuildStreamMatchesBuild(t *testing.T) {
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
			built, err := Build("sample", tr, cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := encodeProfile(t, built)
			for _, workers := range []int{1, 4} {
				streamed, err := BuildStream("sample", trace.NewSliceReader(tr), cfg, Workers(workers))
				if err != nil {
					t.Fatal(err)
				}
				if got := encodeProfile(t, streamed); !bytes.Equal(got, want) {
					t.Fatalf("workers=%d: streaming build encodes differently from Build", workers)
				}
			}
		})
	}
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
