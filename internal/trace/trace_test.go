package trace

import (
	"testing"
	"testing/quick"
)

func req(t, a uint64, s uint32, op Op) Request {
	return Request{Time: t, Addr: a, Size: s, Op: op}
}

func TestOpString(t *testing.T) {
	if Read.String() != "R" {
		t.Errorf("Read.String() = %q", Read.String())
	}
	if Write.String() != "W" {
		t.Errorf("Write.String() = %q", Write.String())
	}
}

func TestRequestEnd(t *testing.T) {
	r := req(0, 100, 64, Read)
	if r.End() != 164 {
		t.Errorf("End() = %d, want 164", r.End())
	}
}

func TestRequestString(t *testing.T) {
	s := req(5, 0x10, 64, Write).String()
	if s == "" {
		t.Error("empty String()")
	}
}

func TestCloneIndependent(t *testing.T) {
	orig := Trace{req(1, 2, 3, Read)}
	c := orig.Clone()
	c[0].Addr = 99
	if orig[0].Addr != 2 {
		t.Error("Clone shares backing array")
	}
}

func TestSortByTimeStable(t *testing.T) {
	tr := Trace{
		req(5, 1, 4, Read),
		req(3, 2, 4, Read),
		req(5, 3, 4, Read),
		req(1, 4, 4, Read),
	}
	tr.SortByTime()
	if !tr.Sorted() {
		t.Fatal("not sorted after SortByTime")
	}
	// Stability: the two t=5 entries keep relative order (addr 1 then 3).
	if tr[2].Addr != 1 || tr[3].Addr != 3 {
		t.Errorf("sort not stable: %v", tr)
	}
}

func TestSortedDetectsDisorder(t *testing.T) {
	tr := Trace{req(2, 0, 1, Read), req(1, 0, 1, Read)}
	if tr.Sorted() {
		t.Error("Sorted() = true for unsorted trace")
	}
	if !(Trace{}).Sorted() {
		t.Error("empty trace should be sorted")
	}
	if !(Trace{req(1, 0, 1, Read)}).Sorted() {
		t.Error("single-request trace should be sorted")
	}
}

func TestDuration(t *testing.T) {
	if d := (Trace{}).Duration(); d != 0 {
		t.Errorf("empty Duration = %d", d)
	}
	if d := (Trace{req(7, 0, 1, Read)}).Duration(); d != 0 {
		t.Errorf("single Duration = %d", d)
	}
	tr := Trace{req(10, 0, 1, Read), req(35, 0, 1, Read)}
	if tr.Duration() != 25 {
		t.Errorf("Duration = %d, want 25", tr.Duration())
	}
}

func TestCounts(t *testing.T) {
	tr := Trace{req(0, 0, 1, Read), req(1, 0, 1, Write), req(2, 0, 1, Write)}
	r, w := tr.Counts()
	if r != 1 || w != 2 {
		t.Errorf("Counts = %d,%d want 1,2", r, w)
	}
}

func TestBytes(t *testing.T) {
	tr := Trace{req(0, 0, 64, Read), req(1, 0, 128, Write)}
	if tr.Bytes() != 192 {
		t.Errorf("Bytes = %d, want 192", tr.Bytes())
	}
}

func TestAddrRange(t *testing.T) {
	lo, hi := (Trace{}).AddrRange()
	if lo != 0 || hi != 0 {
		t.Errorf("empty AddrRange = %d,%d", lo, hi)
	}
	tr := Trace{req(0, 100, 32, Read), req(1, 50, 8, Read), req(2, 90, 64, Read)}
	lo, hi = tr.AddrRange()
	if lo != 50 || hi != 154 {
		t.Errorf("AddrRange = %d,%d want 50,154", lo, hi)
	}
}

func TestFootprint(t *testing.T) {
	tr := Trace{
		req(0, 0, 64, Read),    // block 0
		req(1, 32, 64, Read),   // spans blocks 0 and 1
		req(2, 4096, 64, Read), // block 64
	}
	if fp := tr.Footprint(64); fp != 3 {
		t.Errorf("Footprint(64) = %d, want 3", fp)
	}
	if fp := tr.Footprint(4096); fp != 2 {
		t.Errorf("Footprint(4096) = %d, want 2", fp)
	}
	if fp := tr.Footprint(0); fp != 0 {
		t.Errorf("Footprint(0) = %d, want 0", fp)
	}
}

func TestReplayerOrderAndDelay(t *testing.T) {
	tr := Trace{req(10, 1, 4, Read), req(20, 2, 4, Read), req(30, 3, 4, Read)}
	r := NewReplayer(tr)
	if r.Remaining() != 3 {
		t.Fatalf("Remaining = %d", r.Remaining())
	}
	first, ok := r.Next()
	if !ok || first.Time != 10 {
		t.Fatalf("first = %v, %v", first, ok)
	}
	r.Delay(5)
	second, _ := r.Next()
	if second.Time != 25 {
		t.Errorf("second.Time = %d, want 25 after Delay(5)", second.Time)
	}
	r.Delay(5)
	third, _ := r.Next()
	if third.Time != 40 {
		t.Errorf("third.Time = %d, want 40 after cumulative Delay(10)", third.Time)
	}
	if _, ok := r.Next(); ok {
		t.Error("Next after exhaustion returned ok")
	}
}

func TestCollectLimit(t *testing.T) {
	tr := Trace{req(1, 0, 1, Read), req(2, 0, 1, Read), req(3, 0, 1, Read)}
	got := Collect(NewReplayer(tr), 2)
	if len(got) != 2 {
		t.Errorf("Collect limit: got %d requests", len(got))
	}
	got = Collect(NewReplayer(tr), 0)
	if len(got) != 3 {
		t.Errorf("Collect unlimited: got %d requests", len(got))
	}
}

func TestMergeInterleavesByTime(t *testing.T) {
	a := Trace{req(1, 0xa, 4, Read), req(5, 0xa, 4, Read)}
	b := Trace{req(2, 0xb, 4, Write), req(3, 0xb, 4, Write)}
	m := Merge(NewReplayer(a), NewReplayer(b))
	var times []uint64
	for {
		r, ok := m.Next()
		if !ok {
			break
		}
		times = append(times, r.Time)
	}
	want := []uint64{1, 2, 3, 5}
	if len(times) != len(want) {
		t.Fatalf("got %d requests, want %d", len(times), len(want))
	}
	for i := range want {
		if times[i] != want[i] {
			t.Errorf("times[%d] = %d, want %d", i, times[i], want[i])
		}
	}
}

func TestMergeDelayAppliesOnce(t *testing.T) {
	a := Trace{req(1, 0xa, 4, Read), req(10, 0xa, 4, Read)}
	m := Merge(NewReplayer(a))
	m.Next()
	m.Delay(100)
	r, _ := m.Next()
	if r.Time != 110 {
		t.Errorf("delayed request time = %d, want 110", r.Time)
	}
}

func TestMergeEmptyAndNil(t *testing.T) {
	for name, m := range map[string]*Merger{
		"no sources":  Merge(),
		"all nil":     Merge(nil, nil),
		"nil + empty": Merge(nil, NewReplayer(nil)),
	} {
		if _, ok := m.Next(); ok {
			t.Errorf("%s: empty merge produced a request", name)
		}
	}
}

func TestMergePreservesAllRequests(t *testing.T) {
	check := func(lens [3]uint8) bool {
		var srcs []Puller
		total := 0
		for si, n := range lens {
			var tr Trace
			for i := 0; i < int(n%16); i++ {
				tr = append(tr, req(uint64(i*7+si), uint64(si), 4, Read))
			}
			total += len(tr)
			srcs = append(srcs, NewReplayer(tr))
		}
		out := Collect(Merge(srcs...), 0)
		return len(out) == total && out.Sorted()
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}
