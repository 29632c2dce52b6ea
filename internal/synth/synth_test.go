package synth

import (
	"testing"
	"testing/quick"

	"repro/internal/partition"
	"repro/internal/profile"
	"repro/internal/stats"
	"repro/internal/trace"
)

func req(t, a uint64, s uint32, op trace.Op) trace.Request {
	return trace.Request{Time: t, Addr: a, Size: s, Op: op}
}

func buildProfile(t *testing.T, tr trace.Trace, cfg partition.Config) *profile.Profile {
	t.Helper()
	p, err := profile.Build("test", tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func workload(seed uint64, n int) trace.Trace {
	rng := stats.NewRNG(seed)
	var tr trace.Trace
	tm := uint64(0)
	for i := 0; i < n; i++ {
		tm += rng.Uint64n(60)
		op := trace.Read
		if rng.Bool(0.4) {
			op = trace.Write
		}
		tr = append(tr, req(tm, uint64((i%5)*8192)+rng.Uint64n(2048), 64, op))
	}
	return tr
}

func TestSynthesisRequestCount(t *testing.T) {
	tr := workload(1, 2000)
	p := buildProfile(t, tr, partition.TwoLevelTS(500))
	got := trace.Collect(NewFrom(p, 9), 0)
	if len(got) != len(tr) {
		t.Errorf("synthesised %d requests, want %d", len(got), len(tr))
	}
}

func TestSynthesisTimeOrdered(t *testing.T) {
	tr := workload(2, 2000)
	p := buildProfile(t, tr, partition.TwoLevelTS(500))
	got := trace.Collect(NewFrom(p, 9), 0)
	if !got.Sorted() {
		t.Error("synthetic stream not in time order")
	}
}

func TestSynthesisAddressesInLeafBounds(t *testing.T) {
	tr := workload(3, 2000)
	p := buildProfile(t, tr, partition.TwoLevelTS(500))
	lo, hi := tr.AddrRange()
	got := trace.Collect(NewFrom(p, 11), 0)
	for _, r := range got {
		if r.Addr < lo || r.Addr >= hi {
			t.Fatalf("address 0x%x outside workload range [0x%x,0x%x)", r.Addr, lo, hi)
		}
	}
}

func TestStrictConvergencePreservesOpCounts(t *testing.T) {
	// The paper: "strict convergence ensures that both McC and STM
	// models produce the exact number of reads and writes".
	tr := workload(4, 3000)
	wantR, wantW := tr.Counts()
	p := buildProfile(t, tr, partition.TwoLevelTS(500))
	got := trace.Collect(NewFrom(p, 13), 0)
	gotR, gotW := got.Counts()
	if gotR != wantR || gotW != wantW {
		t.Errorf("op counts = %d/%d, want %d/%d", gotR, gotW, wantR, wantW)
	}
}

func TestDeterministicForSeed(t *testing.T) {
	tr := workload(5, 1000)
	p := buildProfile(t, tr, partition.TwoLevelTS(500))
	a := trace.Collect(NewFrom(p, 7), 0)
	b := trace.Collect(NewFrom(p, 7), 0)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different streams")
		}
	}
}

func TestSeedsVary(t *testing.T) {
	tr := workload(6, 1000)
	p := buildProfile(t, tr, partition.TwoLevelTS(500))
	a := trace.Collect(NewFrom(p, 1), 0)
	b := trace.Collect(NewFrom(p, 2), 0)
	same := 0
	for i := range a {
		if a[i] == b[i] {
			same++
		}
	}
	if same == len(a) {
		t.Error("different seeds produced identical streams")
	}
}

func TestPerfectRecreationOfLinearStream(t *testing.T) {
	// A linear constant-everything stream must be recreated exactly.
	var tr trace.Trace
	for i := 0; i < 200; i++ {
		tr = append(tr, req(uint64(i*10), uint64(1000+i*64), 64, trace.Read))
	}
	p := buildProfile(t, tr, partition.TwoLevelTS(1<<40))
	got := trace.Collect(NewFrom(p, 3), 0)
	if len(got) != len(tr) {
		t.Fatalf("got %d requests", len(got))
	}
	for i := range tr {
		if got[i] != tr[i] {
			t.Fatalf("request %d = %v, want %v", i, got[i], tr[i])
		}
	}
}

func TestDelayShiftsPending(t *testing.T) {
	var tr trace.Trace
	for i := 0; i < 10; i++ {
		tr = append(tr, req(uint64(i*100), uint64(i*64), 64, trace.Read))
	}
	p := buildProfile(t, tr, partition.TwoLevelTS(1<<40))
	s := NewFrom(p, 1)
	first, _ := s.Next()
	s.Delay(500)
	second, _ := s.Next()
	if second.Time < first.Time+500 {
		t.Errorf("Delay not applied: first=%d second=%d", first.Time, second.Time)
	}
}

func TestStartTimesPreserved(t *testing.T) {
	// Each leaf starts at its recorded start time, so the first
	// synthetic request matches the first original one.
	tr := workload(7, 500)
	p := buildProfile(t, tr, partition.TwoLevelTS(500))
	got, ok := NewFrom(p, 5).Next()
	if !ok {
		t.Fatal("no requests")
	}
	if got.Time != tr[0].Time {
		t.Errorf("first synthetic request at %d, original at %d", got.Time, tr[0].Time)
	}
}

func TestWrapAddr(t *testing.T) {
	cases := []struct {
		addr   int64
		lo, hi uint64
		want   uint64
	}{
		{100, 100, 200, 100},
		{199, 100, 200, 199},
		{200, 100, 200, 100}, // one past -> wraps to lo
		{250, 100, 200, 150}, // wraps forward
		{50, 100, 200, 150},  // below lo wraps backward
		{-50, 100, 200, 150}, // negative wraps ((-150) mod 100 = 50... lo+50+... )
		{100, 100, 100, 100}, // empty span clamps to lo
		{12345, 50, 51, 50},  // single-byte span
	}
	for _, c := range cases {
		if got := WrapAddr(c.addr, c.lo, c.hi); got != c.want {
			t.Errorf("WrapAddr(%d, %d, %d) = %d, want %d", c.addr, c.lo, c.hi, got, c.want)
		}
	}
}

func TestWrapAddrProperty(t *testing.T) {
	check := func(addr int32, lo16, span16 uint16) bool {
		lo := uint64(lo16)
		hi := lo + uint64(span16)
		got := WrapAddr(int64(addr), lo, hi)
		if hi == lo {
			return got == lo
		}
		return got >= lo && got < hi
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

func TestOpFromValue(t *testing.T) {
	if OpFromValue(0) != trace.Read || OpFromValue(1) != trace.Write {
		t.Error("OpFromValue mapping wrong")
	}
	if OpFromValue(99) != trace.Read {
		t.Error("unknown value should default to read")
	}
}

func TestSizeFromValue(t *testing.T) {
	if SizeFromValue(-5) != 1 {
		t.Error("negative size not clamped to 1")
	}
	if SizeFromValue(64) != 64 {
		t.Error("valid size altered")
	}
	if SizeFromValue(1<<30) != 1<<20 {
		t.Error("huge size not clamped")
	}
}

// scheduleMerger builds a batch merger over fixed per-leaf schedules,
// each held as one eager chunk.
func scheduleMerger(schedules ...[]trace.Request) *batchMerger {
	streams := make([]*leafStream, len(schedules))
	for i, reqs := range schedules {
		streams[i] = &leafStream{cur: reqs}
	}
	return newBatchMerger(streams)
}

func TestMergerEmpty(t *testing.T) {
	m := scheduleMerger()
	if _, ok := m.Next(); ok {
		t.Error("empty merger produced a request")
	}
	m2 := scheduleMerger(nil, nil)
	if _, ok := m2.Next(); ok {
		t.Error("all-empty merger produced a request")
	}
}

func TestMergerTotalOrder(t *testing.T) {
	m := scheduleMerger(
		[]trace.Request{req(1, 0xa, 4, trace.Read), req(4, 0xa, 4, trace.Read)},
		[]trace.Request{req(2, 0xb, 4, trace.Read), req(3, 0xb, 4, trace.Read)},
	)
	var times []uint64
	for {
		r, ok := m.Next()
		if !ok {
			break
		}
		times = append(times, r.Time)
	}
	want := []uint64{1, 2, 3, 4}
	if len(times) != 4 {
		t.Fatalf("got %d requests", len(times))
	}
	for i := range want {
		if times[i] != want[i] {
			t.Errorf("times[%d] = %d, want %d", i, times[i], want[i])
		}
	}
}

func TestMergerTieBreakDeterministic(t *testing.T) {
	m := scheduleMerger(
		[]trace.Request{req(5, 0xa, 4, trace.Read)},
		[]trace.Request{req(5, 0xb, 4, trace.Read)},
	)
	first, _ := m.Next()
	if first.Addr != 0xa {
		t.Errorf("tie broken against insertion order: got 0x%x first", first.Addr)
	}
}

func TestSynthesisProperty(t *testing.T) {
	// Property: for any random workload and either hierarchy family,
	// synthesis preserves request count, read/write counts, and the
	// global address range.
	check := func(seed uint64, useReqCount bool) bool {
		tr := workload(seed, 400)
		cfg := partition.TwoLevelTS(700)
		if useReqCount {
			cfg = partition.TwoLevelRequestCount(100, 0)
		}
		p, err := profile.Build("prop", tr, cfg)
		if err != nil {
			return false
		}
		got := trace.Collect(NewFrom(p, seed^0xdead), 0)
		if len(got) != len(tr) || !got.Sorted() {
			return false
		}
		wr, ww := tr.Counts()
		gr, gw := got.Counts()
		if wr != gr || ww != gw {
			return false
		}
		lo, hi := tr.AddrRange()
		for _, r := range got {
			if r.Addr < lo || r.Addr >= hi {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
