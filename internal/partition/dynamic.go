package partition

import (
	"math"

	"repro/internal/trace"
)

// ByDynamic implements the paper's dynamic spatial partitioning
// (Algorithm 1 plus the lonely-request rules of §III-A):
//
//  1. Build [addr, addr+size) ranges for every request, sort them by
//     start address, and merge ranges that intersect or touch into
//     maximal memory regions. A request occupies at least one byte, and
//     a range end past the top of the address space saturates at
//     2^64-1.
//  2. Assign every request to the region its range merged into; each
//     region with two or more requests becomes a partition whose bounds
//     are exactly the region.
//  3. Regions holding a single request are "lonely". Runs of lonely
//     requests that are equally spaced in memory (constant stride) are
//     grouped into one partition each; any remaining lonely requests are
//     merged together into a single catch-all partition.
//
// Request order within each partition preserves the input (temporal)
// order.
//
// A window is partitioned in linear passes: a radix sort of the range
// starts, one merge pass that also records each request's region, and
// one counting pass that lays the regions out back to back in a single
// backing trace. A window holds fewer than 2^31 requests.
func ByDynamic(t trace.Trace) []Leaf {
	if len(t) == 0 {
		return nil
	}
	regions, of := mergeRanges(t)
	// Every merge of Algorithm 1 collapses two ranges into one, so the
	// merge count is exactly the range deficit.
	mRangeMerges.Add(uint64(len(t) - len(regions)))
	// next[j] starts at region j's offset in the backing trace and,
	// once every request is placed, ends at the region's end. Requests
	// are placed in input order, so each region's subsequence is
	// ordered too.
	next := make([]int32, len(regions))
	var off int32
	multi := 0
	for j, g := range regions {
		next[j] = off
		off += g.n
		if g.n > 1 {
			multi++
		}
	}
	reqs := make(trace.Trace, len(t))
	for i, r := range t {
		j := of[i]
		reqs[next[j]] = r
		next[j]++
	}

	leaves := make([]Leaf, 0, multi+1)
	lonelies := make([]lonely, 0, len(regions)-multi)
	for j, g := range regions {
		end := next[j]
		if g.n == 1 {
			lonelies = append(lonelies, lonely{reqs[end-1], g.lo, g.hi})
			continue
		}
		leaves = append(leaves, Leaf{Reqs: reqs[end-g.n : end : end], Lo: g.lo, Hi: g.hi})
	}
	if len(lonelies) == 0 {
		return leaves
	}
	mLonelyRequests.Add(uint64(len(lonelies)))
	// Group lonely requests: maximal constant-stride runs in address
	// order become partitions; leftovers merge into one partition. A
	// lonely request starts its region and regions are disjoint and
	// ascending, so lonelies is already in address order. rest filters
	// lonelies in place: lonelyLeaf copies a run before it is overwritten.
	rest := lonelies[:0]
	i := 0
	for i < len(lonelies) {
		j := i + 1
		if j < len(lonelies) {
			stride := lonelies[j].req.Addr - lonelies[i].req.Addr
			for j+1 < len(lonelies) && lonelies[j+1].req.Addr-lonelies[j].req.Addr == stride {
				j++
			}
		}
		if j-i+1 >= 3 { // an equally-spaced run of at least three
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

// lonely is a merged region that attracted exactly one request.
type lonely struct {
	req    trace.Request
	lo, hi uint64
}

func lonelyLeaf(ls []lonely) Leaf {
	mLonelyGroups.Inc()
	reqs := make(trace.Trace, 0, len(ls))
	lo, hi := ls[0].lo, ls[0].hi
	for _, l := range ls {
		reqs = append(reqs, l.req)
		if l.lo < lo {
			lo = l.lo
		}
		if l.hi > hi {
			hi = l.hi
		}
	}
	// Restore temporal order within the grouped partition.
	reqs.SortByTime()
	return Leaf{Reqs: reqs, Lo: lo, Hi: hi}
}

// region is a maximal merged address range and the number of requests
// whose ranges merged into it.
type region struct {
	lo, hi uint64
	n      int32
}

// rangeKey is a request's range start and its index in the window.
type rangeKey struct {
	lo uint64
	k  int32
}

// mergeRanges is Algorithm 1: sort the per-request ranges by start and
// merge any that intersect or touch, yielding non-overlapping maximal
// regions in ascending address order. of[k] is the region request k's
// range merged into, so every request lies inside its region. Ranges
// that share a start may come in any order: they merge into the same
// union either way.
func mergeRanges(t trace.Trace) (regions []region, of []int32) {
	keys := make([]rangeKey, 2*len(t))
	for k, r := range t {
		keys[k] = rangeKey{r.Addr, int32(k)}
	}
	of = make([]int32, len(t))
	for _, e := range radixSort(keys[:len(t)], keys[len(t):]) {
		hi := rangeEnd(t[e.k])
		if n := len(regions); n > 0 && e.lo <= regions[n-1].hi { // overlapping or adjacent
			last := &regions[n-1]
			last.hi = max(last.hi, hi)
			last.n++
		} else {
			regions = append(regions, region{e.lo, hi, 1})
		}
		of[e.k] = int32(len(regions) - 1)
	}
	return regions, of
}

// rangeEnd is the end of r's range in Algorithm 1: a request occupies
// at least one byte, and an end past the top of the address space
// saturates at 2^64-1 instead of wrapping.
func rangeEnd(r trace.Request) uint64 {
	size := max(uint64(r.Size), 1)
	if r.Addr > math.MaxUint64-size {
		return math.MaxUint64
	}
	return r.Addr + size
}

// radixSort stably sorts keys by start address with an LSD radix sort,
// using tmp (of the same length) as scratch, and returns whichever of
// the two holds the result. Byte positions that every key shares need
// no pass, so a window's addresses usually sort in three or four.
func radixSort(keys, tmp []rangeKey) []rangeKey {
	if len(keys) < 2 {
		return keys
	}
	var counts [8][256]int32
	for _, e := range keys {
		for b := range counts {
			counts[b][byte(e.lo>>(8*b))]++
		}
	}
	for b := range counts {
		c := &counts[b]
		shift := 8 * b
		if int(c[byte(keys[0].lo>>shift)]) == len(keys) {
			continue // every key shares this byte
		}
		var sum int32
		for v, n := range c {
			c[v] = sum
			sum += n
		}
		for _, e := range keys {
			v := byte(e.lo >> shift)
			tmp[c[v]] = e
			c[v]++
		}
		keys, tmp = tmp, keys
	}
	return keys
}
