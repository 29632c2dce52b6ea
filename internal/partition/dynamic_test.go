package partition

import (
	"cmp"
	"math"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/stats"
	"repro/internal/trace"
)

func TestDynamicEmpty(t *testing.T) {
	if got := ByDynamic(nil); got != nil {
		t.Errorf("ByDynamic(nil) = %v", got)
	}
}

func TestDynamicMergesOverlapping(t *testing.T) {
	tr := trace.Trace{
		req(0, 100, 64), // [100,164)
		req(1, 150, 64), // overlaps -> one region [100,214)
	}
	leaves := ByDynamic(tr)
	if len(leaves) != 1 {
		t.Fatalf("got %d leaves, want 1", len(leaves))
	}
	if leaves[0].Lo != 100 || leaves[0].Hi != 214 {
		t.Errorf("bounds = [%d,%d), want [100,214)", leaves[0].Lo, leaves[0].Hi)
	}
}

func TestDynamicMergesAdjacent(t *testing.T) {
	tr := trace.Trace{
		req(0, 0, 64),  // [0,64)
		req(1, 64, 64), // touches -> merged
	}
	leaves := ByDynamic(tr)
	if len(leaves) != 1 {
		t.Fatalf("adjacent ranges not merged: %d leaves", len(leaves))
	}
}

func TestDynamicSeparatesDistantRegions(t *testing.T) {
	tr := trace.Trace{
		req(0, 0, 64), req(1, 64, 64), // region A
		req(2, 100000, 64), req(3, 100064, 64), // region B
	}
	leaves := ByDynamic(tr)
	if len(leaves) != 2 {
		t.Fatalf("got %d leaves, want 2", len(leaves))
	}
}

func TestDynamicBoundsAreExactUnion(t *testing.T) {
	// The defining property vs fixed-size blocks: bounds cover exactly
	// the bytes touched, nothing more (§V-B's fidelity argument).
	tr := trace.Trace{
		req(0, 1000, 16), req(1, 1016, 8), req(2, 1024, 64),
	}
	leaves := ByDynamic(tr)
	if len(leaves) != 1 {
		t.Fatalf("got %d leaves", len(leaves))
	}
	if leaves[0].Lo != 1000 || leaves[0].Hi != 1088 {
		t.Errorf("bounds = [%d,%d), want [1000,1088)", leaves[0].Lo, leaves[0].Hi)
	}
}

func TestDynamicReuseStaysTogether(t *testing.T) {
	// Requests spread in time but hitting the same region belong to one
	// partition (the "partition F" case of Fig. 2).
	tr := trace.Trace{
		req(0, 500, 64), req(1000000, 500, 64), req(2000000, 564, 64),
	}
	leaves := ByDynamic(tr)
	if len(leaves) != 1 {
		t.Fatalf("reused region split into %d leaves", len(leaves))
	}
	if len(leaves[0].Reqs) != 3 {
		t.Errorf("partition has %d requests, want 3", len(leaves[0].Reqs))
	}
}

func TestDynamicLonelyCatchAll(t *testing.T) {
	// Two isolated single requests at unrelated addresses merge into one
	// catch-all partition (the "partition D" rule).
	tr := trace.Trace{
		req(0, 0, 64), req(1, 64, 64), // a real region
		req(2, 50000, 4),  // lonely
		req(3, 987654, 4), // lonely
	}
	leaves := ByDynamic(tr)
	if len(leaves) != 2 {
		t.Fatalf("got %d leaves, want 2 (region + merged lonelies)", len(leaves))
	}
	var lonely *Leaf
	for i := range leaves {
		if leaves[i].Lo >= 50000 {
			lonely = &leaves[i]
		}
	}
	if lonely == nil || len(lonely.Reqs) != 2 {
		t.Fatalf("lonely requests not merged: %+v", leaves)
	}
}

func TestDynamicLonelyStrideRun(t *testing.T) {
	// Lonely requests equally spaced in memory group into a single
	// partition.
	tr := trace.Trace{
		req(0, 0, 4), req(1, 1000, 4), req(2, 2000, 4), req(3, 3000, 4),
	}
	leaves := ByDynamic(tr)
	if len(leaves) != 1 {
		t.Fatalf("equally-spaced lonelies gave %d leaves, want 1", len(leaves))
	}
	if len(leaves[0].Reqs) != 4 {
		t.Errorf("run partition has %d requests", len(leaves[0].Reqs))
	}
}

func TestDynamicSingleRequest(t *testing.T) {
	leaves := ByDynamic(trace.Trace{req(0, 42, 8)})
	if len(leaves) != 1 || len(leaves[0].Reqs) != 1 {
		t.Fatalf("single request trace: %+v", leaves)
	}
}

func TestDynamicLonelyPreservesTimeOrder(t *testing.T) {
	// The catch-all partition re-sorts by time even though grouping
	// happens in address order.
	tr := trace.Trace{
		req(5, 900000, 4), // later in time, lower in no particular order
		req(1, 100, 4),
		req(3, 50000, 4),
	}
	leaves := ByDynamic(tr)
	if len(leaves) != 1 {
		t.Fatalf("got %d leaves", len(leaves))
	}
	reqs := leaves[0].Reqs
	for i := 1; i < len(reqs); i++ {
		if reqs[i].Time < reqs[i-1].Time {
			t.Fatal("lonely partition not in time order")
		}
	}
}

func TestDynamicPartitionInvariants(t *testing.T) {
	// Property: for any request set, dynamic partitioning (1) preserves
	// the total request count, (2) keeps every request inside its leaf's
	// bounds, and (3) produces leaves whose request extents never
	// overlap another leaf's bounds... except the catch-all partition,
	// whose bounds may span others, so we check (1) and (2) only plus
	// per-leaf containment.
	check := func(seed uint64, n uint8) bool {
		rng := stats.NewRNG(seed)
		var tr trace.Trace
		for i := 0; i < int(n); i++ {
			tr = append(tr, trace.Request{
				Time: uint64(i),
				Addr: rng.Uint64n(1 << 16),
				Size: uint32(1 + rng.Intn(128)),
				Op:   trace.Read,
			})
		}
		leaves := ByDynamic(tr)
		total := 0
		for _, l := range leaves {
			total += len(l.Reqs)
			for _, r := range l.Reqs {
				if r.Addr < l.Lo || r.End() > l.Hi {
					return false
				}
			}
		}
		return total == len(tr)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSplitPreservesRequestsProperty(t *testing.T) {
	// Property: every hierarchical configuration partitions the trace
	// (each request lands in exactly one leaf).
	configs := []Config{
		TwoLevelTS(100),
		TwoLevelRequestCount(7, 0),
		TwoLevelRequestCount(7, 256),
		{Layers: []Layer{{Kind: SpatialDynamic}}},
		{Layers: []Layer{{Kind: SpatialFixed, Param: 128}}},
	}
	check := func(seed uint64, n uint8) bool {
		rng := stats.NewRNG(seed)
		var tr trace.Trace
		tm := uint64(0)
		for i := 0; i < int(n); i++ {
			tm += rng.Uint64n(50)
			tr = append(tr, trace.Request{
				Time: tm,
				Addr: rng.Uint64n(1 << 14),
				Size: uint32(1 + rng.Intn(64)),
				Op:   trace.Read,
			})
		}
		for _, cfg := range configs {
			leaves, err := Split(tr, cfg)
			if err != nil {
				return false
			}
			total := 0
			for _, l := range leaves {
				total += len(l.Reqs)
			}
			if total != len(tr) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestDynamicDegenerateRanges pins the two ranges Algorithm 1 cannot
// take literally: an empty one (Size 0) and one whose end passes 2^64.
// A request counts as at least one byte and its end saturates, so each
// request lands in the region its range merged into. Both used to index
// past the region list, and a zero-size request at an interior region
// end was put in the next region.
func TestDynamicDegenerateRanges(t *testing.T) {
	const top = math.MaxUint64
	for _, c := range []struct {
		name   string
		tr     trace.Trace
		probe  uint64 // time of the request whose leaf is checked
		lo, hi uint64 // that leaf's bounds
	}{
		{"zero size at the last region end",
			trace.Trace{req(0, 0, 64), req(1, 0, 64), req(2, 64, 0)}, 2, 0, 65},
		{"zero size at an interior region end",
			trace.Trace{req(0, 0, 64), req(1, 0, 64), req(2, 64, 0), req(3, 1000, 64), req(4, 1000, 64)}, 2, 0, 65},
		{"end wraps",
			trace.Trace{req(0, 0, 64), req(1, 0, 64), req(2, top-31, 64)}, 2, top - 31, top},
		{"lonely zero size",
			trace.Trace{req(0, 0, 64), req(1, 0, 64), req(2, 5000, 0)}, 2, 5000, 5001},
	} {
		t.Run(c.name, func(t *testing.T) {
			leaves := ByDynamic(c.tr)
			total, found := 0, false
			for _, l := range leaves {
				total += len(l.Reqs)
				for _, r := range l.Reqs {
					if r.Addr < l.Lo || r.Addr >= l.Hi {
						t.Errorf("request %v outside its leaf [%d,%d)", r, l.Lo, l.Hi)
					}
					if r.Time == c.probe {
						found = true
						if l.Lo != c.lo || l.Hi != c.hi {
							t.Errorf("request %v in leaf [%d,%d), want [%d,%d)", r, l.Lo, l.Hi, c.lo, c.hi)
						}
					}
				}
			}
			if total != len(c.tr) || !found {
				t.Fatalf("leaves hold %d of %d requests (probe found: %v): %+v", total, len(c.tr), found, leaves)
			}
		})
	}
}

// refByDynamic is ByDynamic as it stood before the linear-pass rewrite:
// a comparison sort of (start, end) ranges, a binary search per request
// for its region and an append per request into its region's slice. It
// is defined only for requests of at least one byte whose end does not
// pass 2^64.
func refByDynamic(t trace.Trace) []Leaf {
	if len(t) == 0 {
		return nil
	}
	ranges := make([]region, len(t))
	for i, r := range t {
		ranges[i] = region{lo: r.Addr, hi: r.End()}
	}
	sort.Slice(ranges, func(i, j int) bool {
		if ranges[i].lo != ranges[j].lo {
			return ranges[i].lo < ranges[j].lo
		}
		return ranges[i].hi < ranges[j].hi
	})
	regions := ranges[:1]
	for _, r := range ranges[1:] {
		last := &regions[len(regions)-1]
		if r.lo <= last.hi {
			if r.hi > last.hi {
				last.hi = r.hi
			}
			continue
		}
		regions = append(regions, r)
	}
	perRegion := make([]trace.Trace, len(regions))
	for _, r := range t {
		i := sort.Search(len(regions), func(i int) bool { return regions[i].hi > r.Addr })
		perRegion[i] = append(perRegion[i], r)
	}
	var leaves []Leaf
	var lonelies []lonely
	for i, reqs := range perRegion {
		if len(reqs) == 0 {
			continue
		}
		if len(reqs) == 1 {
			lonelies = append(lonelies, lonely{reqs[0], regions[i].lo, regions[i].hi})
			continue
		}
		leaves = append(leaves, Leaf{Reqs: reqs, Lo: regions[i].lo, Hi: regions[i].hi})
	}
	if len(lonelies) == 0 {
		return leaves
	}
	sort.SliceStable(lonelies, func(i, j int) bool { return lonelies[i].req.Addr < lonelies[j].req.Addr })
	var rest []lonely
	i := 0
	for i < len(lonelies) {
		j := i + 1
		if j < len(lonelies) {
			stride := lonelies[j].req.Addr - lonelies[i].req.Addr
			for j+1 < len(lonelies) && lonelies[j+1].req.Addr-lonelies[j].req.Addr == stride {
				j++
			}
		}
		if j-i+1 >= 3 {
			leaves = append(leaves, lonelyLeaf(lonelies[i:j+1]))
			i = j + 1
			continue
		}
		rest = append(rest, lonelies[i])
		i++
	}
	if len(rest) > 0 {
		leaves = append(leaves, lonelyLeaf(rest))
	}
	return leaves
}

// TestDynamicMatchesReference checks ByDynamic leaf for leaf (bounds
// and requests, in order) against refByDynamic on random windows where
// the reference is defined. The shapes stress what the rewrite changed:
// ties in the sort key, ranges that only touch, windows with no region
// of two, and windows that merge into one region.
func TestDynamicMatchesReference(t *testing.T) {
	shapes := []struct {
		name string
		gen  func(rng *stats.RNG, i int) (addr uint64, size uint32)
	}{
		{"random", func(rng *stats.RNG, _ int) (uint64, uint32) {
			return rng.Uint64n(1 << 16), uint32(1 + rng.Intn(128))
		}},
		{"duplicate-addresses", func(rng *stats.RNG, _ int) (uint64, uint32) {
			return 0x4000 * rng.Uint64n(6), uint32(1 + rng.Intn(256))
		}},
		{"adjacent", func(rng *stats.RNG, _ int) (uint64, uint32) {
			return 1<<40 + 64*rng.Uint64n(512), 64
		}},
		{"all-lonely", func(rng *stats.RNG, i int) (uint64, uint32) {
			if i%3 == 0 { // interleave a strided run with scattered requests
				return 1<<20 + uint64(i)*4096, 64
			}
			return 1<<32 + uint64(i)*1_000_000 + rng.Uint64n(1000), uint32(1 + rng.Intn(64))
		}},
		{"one-region", func(rng *stats.RNG, _ int) (uint64, uint32) {
			return 1<<48 + rng.Uint64n(1024), 1024
		}},
		{"wide", func(rng *stats.RNG, _ int) (uint64, uint32) {
			return rng.Uint64n(1 << 62), uint32(1 + rng.Intn(4096))
		}},
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			for seed := uint64(1); seed <= 30; seed++ {
				rng := stats.NewRNG(seed)
				n := 1 + rng.Intn(3000)
				tr := make(trace.Trace, n)
				for i := range tr {
					addr, size := sh.gen(rng, i)
					// Times tie in threes, so the lonely leaves'
					// stable time sort sees ties.
					tr[i] = trace.Request{Time: uint64(i / 3), Addr: addr, Size: size, Op: trace.Op(i % 2)}
				}
				got, want := ByDynamic(tr), refByDynamic(tr)
				if len(got) != len(want) {
					t.Fatalf("seed %d: %d leaves, reference %d", seed, len(got), len(want))
				}
				for i := range got {
					g, w := got[i], want[i]
					if g.Lo != w.Lo || g.Hi != w.Hi || !slices.Equal(g.Reqs, w.Reqs) {
						t.Fatalf("seed %d leaf %d: got [%d,%d) with %d requests, reference [%d,%d) with %d",
							seed, i, g.Lo, g.Hi, len(g.Reqs), w.Lo, w.Hi, len(w.Reqs))
					}
				}
			}
		})
	}
}

// TestRadixSortMatchesStableSort checks the radix helper against a
// stable comparison sort on the start address, including the order of
// equal starts and key sets where some or all bytes are shared.
func TestRadixSortMatchesStableSort(t *testing.T) {
	rng := stats.NewRNG(5)
	gens := map[string]func() uint64{
		"uniform":   func() uint64 { return rng.Uint64() },
		"low-bytes": func() uint64 { return 0x7f00_0000_0000 + rng.Uint64n(1<<20) },
		"high-byte": func() uint64 { return rng.Uint64n(256) << 56 },
		"few":       func() uint64 { return rng.Uint64n(4) * 0x1_0001 },
		"equal":     func() uint64 { return 42 },
	}
	for name, gen := range gens {
		for _, n := range []int{0, 1, 2, 17, 5000} {
			keys := make([]rangeKey, n)
			for i := range keys {
				keys[i] = rangeKey{lo: gen(), k: int32(i)}
			}
			want := slices.Clone(keys)
			slices.SortStableFunc(want, func(a, b rangeKey) int { return cmp.Compare(a.lo, b.lo) })
			if got := radixSort(keys, make([]rangeKey, n)); !slices.Equal(got, want) {
				t.Errorf("%s, n=%d: radix order differs from the stable sort", name, n)
			}
		}
	}
}
