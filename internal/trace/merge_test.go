package trace

import "testing"

// mreq is a test shorthand.
func mreq(t, addr uint64) Request { return Request{Time: t, Addr: addr, Size: 4} }

// TestMergeTieBreakBySourceIndex pins the documented tie-break: requests
// sharing a timestamp are emitted in ascending source index, where the
// index is the position in the Merge argument list — counting nil and
// empty sources, so inserting either before a source does not reorder
// its ties. This is a regression guard for the composed-scenario
// pipeline, whose byte-identity across refactors depends on it.
func TestMergeTieBreakBySourceIndex(t *testing.T) {
	// Three sources, all colliding at t=10 and t=20. The Addr encodes
	// the source (1, 2, 3) so the emission order is observable.
	mk := func() []Puller {
		return []Puller{
			NewReplayer(Trace{mreq(10, 1), mreq(20, 1)}),
			NewReplayer(Trace{mreq(10, 2), mreq(20, 2)}),
			NewReplayer(Trace{mreq(10, 3), mreq(20, 3)}),
		}
	}

	want := []uint64{1, 2, 3, 1, 2, 3}
	check := func(name string, m Source) {
		t.Helper()
		got := Collect(m, 0)
		if len(got) != len(want) {
			t.Fatalf("%s: merged %d requests, want %d", name, len(got), len(want))
		}
		for i, r := range got {
			if r.Addr != want[i] {
				t.Errorf("%s: position %d came from source %d, want %d (tie-break must be source index)",
					name, i, r.Addr, want[i])
			}
		}
	}

	check("plain", Merge(mk()...))

	// A nil source and an empty source interleaved among the real ones
	// must not shift the tie-break: the real sources keep their relative
	// order exactly as if the inert ones were absent.
	srcs := mk()
	check("with nil and empty", Merge(
		nil, srcs[0], NewReplayer(nil), srcs[1], nil, srcs[2],
	))

	// A single two-way tie goes to the earlier argument.
	want = []uint64{0xa, 0xb}
	check("two-way", Merge(NewReplayer(Trace{mreq(5, 0xa)}), NewReplayer(Trace{mreq(5, 0xb)})))
}

// TestMergeNextIndexed checks that NextIndexed reports each request's
// source as its argument position, with nil and immediately-exhausted
// sources still occupying their positions.
func TestMergeNextIndexed(t *testing.T) {
	m := Merge(
		nil,
		NewReplayer(Trace{mreq(3, 0), mreq(7, 0)}),
		NewReplayer(nil),
		NewReplayer(Trace{mreq(3, 0), mreq(5, 0)}),
		nil,
	)
	want := []struct {
		time uint64
		src  int
	}{{3, 1}, {3, 3}, {5, 3}, {7, 1}}
	for i, w := range want {
		r, src, ok := m.NextIndexed()
		if !ok || r.Time != w.time || src != w.src {
			t.Fatalf("request %d = (t=%d, src %d, %v), want (t=%d, src %d)", i, r.Time, src, ok, w.time, w.src)
		}
	}
	if _, src, ok := m.NextIndexed(); ok || src != -1 {
		t.Fatalf("exhausted merge returned src %d, ok %v; want -1, false", src, ok)
	}
}

// TestMergeTotalOrder checks that a merge of interleaved sources is
// non-decreasing in time and loses no requests.
func TestMergeTotalOrder(t *testing.T) {
	for _, srcs := range [][]Trace{
		{
			{mreq(1, 0), mreq(5, 0), mreq(9, 0)},
			{mreq(2, 0), mreq(5, 0), mreq(100, 0)},
			{mreq(0, 0), mreq(50, 0)},
		},
		{{mreq(1, 0), mreq(4, 0)}, {mreq(2, 0), mreq(3, 0)}},
	} {
		var ps []Puller
		total := 0
		for _, tr := range srcs {
			ps = append(ps, NewReplayer(tr))
			total += len(tr)
		}
		got := Collect(Merge(ps...), 0)
		if len(got) != total {
			t.Fatalf("merged %d requests, want %d", len(got), total)
		}
		if !Trace(got).Sorted() {
			t.Fatalf("merged stream is not sorted by time: %v", got)
		}
	}
}
