package partition

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/trace"
)

// streamTrace builds a sorted trace with clustered addresses, bursts
// and idle gaps, so temporal windows vary in population (including
// empty cycle-count bins) and the dynamic spatial layer has structure
// to find.
func streamTrace(n int, seed int64) trace.Trace {
	rng := rand.New(rand.NewSource(seed))
	t := make(trace.Trace, 0, n)
	tm := uint64(0)
	for i := 0; i < n; i++ {
		tm += uint64(rng.Intn(40))
		if rng.Intn(100) == 0 {
			tm += 5000 // idle gap: empty cycle-count bins
		}
		base := uint64(0x1000) * uint64(1+rng.Intn(8))
		op := trace.Read
		if rng.Intn(3) == 0 {
			op = trace.Write
		}
		t = append(t, trace.Request{
			Time: tm,
			Addr: base<<8 + uint64(rng.Intn(4096)),
			Size: uint32(16 << rng.Intn(3)),
			Op:   op,
		})
	}
	return t
}

func streamConfigs() map[string]Config {
	return map[string]Config{
		"cycles-only":    {Layers: []Layer{{Kind: TemporalCycleCount, Param: 700}}},
		"reqcount-only":  {Layers: []Layer{{Kind: TemporalRequestCount, Param: 64}}},
		"2L-TS":          TwoLevelTS(700),
		"reqcount-fixed": TwoLevelRequestCount(100, 4096),
		"reqcount-dyn":   TwoLevelRequestCount(100, 0),
		"three-layer": {Layers: []Layer{
			{Kind: TemporalCycleCount, Param: 2000},
			{Kind: TemporalRequestCount, Param: 32},
			{Kind: SpatialDynamic},
		}},
	}
}

// pushAll drives a Streamer over t and collects every emitted leaf.
func pushAll(t *testing.T, s *Streamer, tr trace.Trace) []Leaf {
	t.Helper()
	var out []Leaf
	for _, r := range tr {
		closed, err := s.Push(r)
		if err != nil {
			t.Fatalf("Push: %v", err)
		}
		out = append(out, closed...)
	}
	return append(out, s.Flush()...)
}

// TestStreamerMatchesSplit is the core identity property: for every
// streamable hierarchy, pushing record by record yields exactly the
// leaves Split produces on the materialised trace — same content, same
// bounds, same order.
func TestStreamerMatchesSplit(t *testing.T) {
	tr := streamTrace(5000, 42)
	for name, cfg := range streamConfigs() {
		t.Run(name, func(t *testing.T) {
			want, err := Split(tr, cfg)
			if err != nil {
				t.Fatal(err)
			}
			s, err := NewStreamer(cfg)
			if err != nil {
				t.Fatal(err)
			}
			got := pushAll(t, s, tr)
			if len(got) != len(want) {
				t.Fatalf("streamed %d leaves, Split produced %d", len(got), len(want))
			}
			for i := range want {
				if !reflect.DeepEqual(got[i].Reqs, want[i].Reqs) || got[i].Lo != want[i].Lo || got[i].Hi != want[i].Hi {
					t.Fatalf("leaf %d differs:\nstream: lo=%x hi=%x n=%d\nsplit:  lo=%x hi=%x n=%d",
						i, got[i].Lo, got[i].Hi, len(got[i].Reqs), want[i].Lo, want[i].Hi, len(want[i].Reqs))
				}
			}
		})
	}
}

// TestStreamerWindowBoundaries pins the exact cut points: a cycle-count
// window [0,100) closes when t=100 arrives (not t=99), empty bins emit
// nothing, and request-count windows close at exactly Param requests.
func TestStreamerWindowBoundaries(t *testing.T) {
	t.Run("cycle-edges", func(t *testing.T) {
		cfg := Config{Layers: []Layer{{Kind: TemporalCycleCount, Param: 100}}}
		s, err := NewStreamer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if closed, _ := s.Push(req(0, 0x100, 64)); len(closed) != 0 {
			t.Fatal("first request closed a window")
		}
		// 99 is still inside [0,100).
		if closed, _ := s.Push(req(99, 0x140, 64)); len(closed) != 0 {
			t.Fatal("t=99 closed the [0,100) window")
		}
		// 100 starts bin 1 and must close bin 0 with exactly 2 requests.
		closed, _ := s.Push(req(100, 0x180, 64))
		if len(closed) != 1 || len(closed[0].Reqs) != 2 {
			t.Fatalf("t=100 closed %d leaves (want 1 with 2 reqs)", len(closed))
		}
		// 350 skips bin 2 entirely: exactly one window (bin 1) closes —
		// empty bins emit nothing.
		closed, _ = s.Push(req(350, 0x1c0, 64))
		if len(closed) != 1 || len(closed[0].Reqs) != 1 {
			t.Fatalf("skipping an empty bin closed %d leaves", len(closed))
		}
		if got := s.Flush(); len(got) != 1 || len(got[0].Reqs) != 1 {
			t.Fatalf("Flush returned %d leaves", len(got))
		}
	})
	t.Run("request-count", func(t *testing.T) {
		cfg := Config{Layers: []Layer{{Kind: TemporalRequestCount, Param: 3}}}
		s, err := NewStreamer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var sizes []int
		for i := 0; i < 7; i++ {
			closed, _ := s.Push(req(uint64(i), 0x100+uint64(i)*64, 64))
			for _, l := range closed {
				sizes = append(sizes, len(l.Reqs))
			}
		}
		for _, l := range s.Flush() {
			sizes = append(sizes, len(l.Reqs))
		}
		if !reflect.DeepEqual(sizes, []int{3, 3, 1}) {
			t.Fatalf("7 requests at Param=3 split as %v, want [3 3 1]", sizes)
		}
	})
}

// TestStreamerFreshBackingArrays: a closed window's requests must not
// share a backing array with the next window, or retaining one leaf
// would pin the other's memory.
func TestStreamerFreshBackingArrays(t *testing.T) {
	cfg := Config{Layers: []Layer{{Kind: TemporalRequestCount, Param: 2}}}
	s, err := NewStreamer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Push(req(0, 0x100, 64))
	closed, _ := s.Push(req(1, 0x140, 64))
	if len(closed) != 1 {
		t.Fatal("window did not close")
	}
	first := closed[0].Reqs
	s.Push(req(2, 0x999, 64))
	if first[0].Addr != 0x100 || first[1].Addr != 0x140 {
		t.Fatal("closed window mutated by later pushes")
	}
	// Appending into the new window must not write over the old one.
	if &first[0] == &s.cur[0] {
		t.Fatal("windows share a backing array")
	}
}

// TestStreamerOutOfOrder: a time regression is rejected without
// disturbing the open window, and the error unwraps to ErrOutOfOrder.
func TestStreamerOutOfOrder(t *testing.T) {
	s, err := NewStreamer(TwoLevelTS(100))
	if err != nil {
		t.Fatal(err)
	}
	s.Push(req(50, 0x100, 64))
	if _, err := s.Push(req(49, 0x140, 64)); !errors.Is(err, ErrOutOfOrder) {
		t.Fatalf("regression returned %v, want ErrOutOfOrder", err)
	}
	if s.Open() != 1 {
		t.Fatalf("rejected push disturbed the window: %d open requests", s.Open())
	}
	// Equal timestamps are fine (sorted, not strictly increasing).
	if _, err := s.Push(req(50, 0x180, 64)); err != nil {
		t.Fatalf("equal timestamp rejected: %v", err)
	}
}

// TestNewStreamerRejectsSpatialFirst: hierarchies that cannot stream
// are refused up front.
func TestNewStreamerRejectsSpatialFirst(t *testing.T) {
	if _, err := NewStreamer(Config{Layers: []Layer{{Kind: SpatialDynamic}}}); err == nil {
		t.Fatal("spatial-first config accepted")
	}
	if _, err := NewStreamer(Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
}

// keep is the identity fit: FitStream then returns the leaves
// themselves, in commit order.
func keep(l Leaf) Leaf { return l }

// TestFitStreamMatchesSplit: FitStream over a decoder-style reader
// produces the same (index, leaf) assignment as Split, for both
// streamable and fallback (spatial-first) hierarchies, serial and
// parallel.
func TestFitStreamMatchesSplit(t *testing.T) {
	tr := streamTrace(4000, 7)
	cfgs := streamConfigs()
	cfgs["spatial-first-fallback"] = Config{Layers: []Layer{
		{Kind: SpatialFixed, Param: 1 << 16},
		{Kind: TemporalRequestCount, Param: 50},
	}}
	for name, cfg := range cfgs {
		for _, workers := range []int{1, 4} {
			t.Run(name, func(t *testing.T) {
				want, err := Split(tr, cfg)
				if err != nil {
					t.Fatal(err)
				}
				got, records, err := FitStream(context.Background(), trace.NewSliceReader(tr), cfg, workers, keep)
				if err != nil {
					t.Fatal(err)
				}
				if records != uint64(len(tr)) {
					t.Fatalf("records = %d, want %d", records, len(tr))
				}
				if len(got) != len(want) {
					t.Fatalf("fitted %d leaves, want %d", len(got), len(want))
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatal("FitStream leaves differ from Split")
				}
			})
		}
	}
}

// TestFitStreamOutOfOrder: both modes reject unsorted streams with
// ErrOutOfOrder.
func TestFitStreamOutOfOrder(t *testing.T) {
	tr := trace.Trace{req(10, 0x100, 64), req(5, 0x140, 64)}
	for name, cfg := range map[string]Config{
		"streaming": TwoLevelTS(100),
		"fallback":  {Layers: []Layer{{Kind: SpatialDynamic}}},
	} {
		t.Run(name, func(t *testing.T) {
			_, _, err := FitStream(context.Background(), trace.NewSliceReader(tr), cfg, 1, keep)
			if !errors.Is(err, ErrOutOfOrder) {
				t.Fatalf("err = %v, want ErrOutOfOrder", err)
			}
		})
	}
}

// TestFitStreamCancel: a canceled context stops ingestion promptly and
// surfaces the context error.
func TestFitStreamCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	tr := streamTrace(2000, 3)
	_, _, err := FitStream(ctx, trace.NewSliceReader(tr), TwoLevelTS(100), 4, keep)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestFitStreamPropagatesDecodeError: a reader error mid-stream aborts
// the build (after draining in-flight fits) and is returned.
func TestFitStreamPropagatesDecodeError(t *testing.T) {
	wantErr := errors.New("boom")
	rd := &erroringReader{t: streamTrace(700, 9), failAt: 500, err: wantErr}
	_, _, err := FitStream(context.Background(), rd, TwoLevelTS(100), 2, keep)
	if !errors.Is(err, wantErr) {
		t.Fatalf("err = %v, want boom", err)
	}
}

type erroringReader struct {
	t      trace.Trace
	i      int
	failAt int
	err    error
}

func (e *erroringReader) Next(r *trace.Request) error {
	if e.i >= e.failAt {
		return e.err
	}
	*r = e.t[e.i]
	e.i++
	return nil
}

// TestFitStreamLeafOrderSorted: every returned leaf is non-empty and
// each leaf's requests preserve stream order (spot invariants beyond
// DeepEqual).
func TestFitStreamLeafOrderSorted(t *testing.T) {
	tr := streamTrace(3000, 11)
	got, _, err := FitStream(context.Background(), trace.NewSliceReader(tr), TwoLevelTS(500), 8, keep)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for i, l := range got {
		if len(l.Reqs) == 0 {
			t.Fatalf("leaf %d empty", i)
		}
		total += len(l.Reqs)
		if !sort.SliceIsSorted(l.Reqs, func(a, b int) bool { return l.Reqs[a].Time < l.Reqs[b].Time }) {
			t.Fatalf("leaf %d requests unsorted", i)
		}
	}
	if total != len(tr) {
		t.Fatalf("leaves cover %d requests, trace has %d", total, len(tr))
	}
}
