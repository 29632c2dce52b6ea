// Package partition implements Mocktails' hierarchical partitioning
// (§III-A): requests are divided along the temporal dimension (fixed
// request-count intervals as in STM, or fixed cycle-count intervals as in
// SynFull) and along the spatial dimension (fixed-size blocks as in HALO,
// or the paper's novel dynamic scheme of Algorithm 1 that merges
// overlapping/adjacent address ranges and groups lonely requests).
//
// A hierarchy Config lists the layers top-down; Split applies them
// recursively and returns the leaves, each of which is modelled
// independently by package profile.
package partition

import (
	"fmt"
	"slices"

	"repro/internal/obs"
	"repro/internal/trace"
)

// Partitioning metrics: how many final leaves each Split produced, and
// the work the dynamic scheme (Algorithm 1) performed getting there.
var (
	mLeaves         = obs.NewCounter("partition.leaves")
	mRangeMerges    = obs.NewCounter("partition.range_merges")
	mLonelyGroups   = obs.NewCounter("partition.lonely_groups")
	mLonelyRequests = obs.NewCounter("partition.lonely_requests")
)

// Kind selects a partitioning scheme for one layer of the hierarchy.
type Kind int

const (
	// TemporalRequestCount divides a sequence into intervals holding at
	// most Param requests (STM-style).
	TemporalRequestCount Kind = iota
	// TemporalCycleCount divides a sequence into fixed Param-cycle
	// intervals (SynFull-style).
	TemporalCycleCount
	// SpatialFixed divides requests into fixed Param-byte aligned blocks
	// keyed by each request's start address (HALO-style).
	SpatialFixed
	// SpatialDynamic applies the paper's dynamic scheme: ranges touched
	// by requests are merged when they overlap or are adjacent, and
	// lonely requests are grouped (Algorithm 1). Param is ignored.
	SpatialDynamic
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case TemporalRequestCount:
		return "temporal(request_count)"
	case TemporalCycleCount:
		return "temporal(cycle_count)"
	case SpatialFixed:
		return "spatial(fixed)"
	case SpatialDynamic:
		return "spatial(dynamic)"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Temporal reports whether the kind partitions along the time dimension.
func (k Kind) Temporal() bool {
	return k == TemporalRequestCount || k == TemporalCycleCount
}

// Layer is one level of the hierarchy.
type Layer struct {
	Kind Kind
	// Param is the requests-per-interval, cycles-per-interval, or block
	// size in bytes, depending on Kind. Ignored for SpatialDynamic.
	Param uint64
}

// Config is a hierarchical partitioning configuration, applied top-down.
type Config struct {
	Layers []Layer
}

// TwoLevelTS returns the paper's 2L-TS configuration: temporal
// cycle-count intervals first, then dynamic spatial partitions (§IV-A).
func TwoLevelTS(cycles uint64) Config {
	return Config{Layers: []Layer{
		{Kind: TemporalCycleCount, Param: cycles},
		{Kind: SpatialDynamic},
	}}
}

// TwoLevelRequestCount returns the Section V configuration: temporal
// request-count intervals first, then the given spatial scheme (dynamic
// when blockSize == 0, fixed-size otherwise).
func TwoLevelRequestCount(requests, blockSize uint64) Config {
	spatial := Layer{Kind: SpatialDynamic}
	if blockSize > 0 {
		spatial = Layer{Kind: SpatialFixed, Param: blockSize}
	}
	return Config{Layers: []Layer{
		{Kind: TemporalRequestCount, Param: requests},
		spatial,
	}}
}

// Validate checks that every layer has a sensible parameter.
func (c Config) Validate() error {
	if len(c.Layers) == 0 {
		return fmt.Errorf("partition: config has no layers")
	}
	for i, l := range c.Layers {
		if l.Kind != SpatialDynamic && l.Param == 0 {
			return fmt.Errorf("partition: layer %d (%s) needs a non-zero parameter", i, l.Kind)
		}
	}
	return nil
}

// String describes the configuration.
func (c Config) String() string {
	s := ""
	for i, l := range c.Layers {
		if i > 0 {
			s += " -> "
		}
		if l.Kind == SpatialDynamic {
			s += l.Kind.String()
		} else {
			s += fmt.Sprintf("%s[%d]", l.Kind, l.Param)
		}
	}
	return s
}

// Leaf is a final partition: an ordered subsequence of requests plus the
// spatial bounds within which synthesis must generate addresses. For
// dynamic partitions the bounds are exactly the union of touched bytes;
// for fixed partitions they are the enclosing block, which is looser and
// is the reason Mocktails(4KB) trails Mocktails(Dynamic) in §V-B.
type Leaf struct {
	Reqs   trace.Trace
	Lo, Hi uint64 // address range [Lo, Hi)
}

// Split applies the hierarchy to the trace and returns the leaves. The
// request order inside every leaf preserves the input order.
func Split(t trace.Trace, cfg Config) ([]Leaf, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(t) == 0 {
		return nil, nil
	}
	leaves := splitLayer(t, cfg.Layers)
	mLeaves.Add(uint64(len(leaves)))
	return leaves, nil
}

func splitLayer(t trace.Trace, layers []Layer) []Leaf {
	if len(layers) == 0 {
		lo, hi := t.AddrRange()
		return []Leaf{{Reqs: t, Lo: lo, Hi: hi}}
	}
	l := layers[0]
	var parts []Leaf
	switch l.Kind {
	case TemporalRequestCount:
		parts = byRequestCount(t, int(l.Param))
	case TemporalCycleCount:
		parts = byCycleCount(t, l.Param)
	case SpatialFixed:
		parts = ByFixedBlock(t, l.Param)
	case SpatialDynamic:
		parts = ByDynamic(t)
	}
	if len(layers) == 1 {
		return parts
	}
	var leaves []Leaf
	for _, p := range parts {
		leaves = append(leaves, expandPart(p, layers[1:])...)
	}
	return leaves
}

// expandPart applies the remaining layers beneath a first-layer part.
// It is shared by the materialised recursion above and the incremental
// Streamer, so both produce leaves with identical content, bounds and
// order for the same part.
func expandPart(p Leaf, rest []Layer) []Leaf {
	if len(rest) == 0 {
		return []Leaf{p}
	}
	children := splitLayer(p.Reqs, rest)
	if !rest[0].Kind.Temporal() {
		return children
	}
	// A temporal sub-layer inherits the parent's spatial bounds so
	// that synthesis stays inside the spatial partition.
	out := make([]Leaf, 0, len(children))
	for _, c := range children {
		c.Lo, c.Hi = p.Lo, p.Hi
		out = append(out, c)
	}
	return out
}

// byRequestCount chunks the sequence into intervals of at most n requests.
func byRequestCount(t trace.Trace, n int) []Leaf {
	if n <= 0 {
		n = len(t)
	}
	var out []Leaf
	for i := 0; i < len(t); i += n {
		end := i + n
		if end > len(t) {
			end = len(t)
		}
		sub := t[i:end]
		lo, hi := sub.AddrRange()
		out = append(out, Leaf{Reqs: sub, Lo: lo, Hi: hi})
	}
	return out
}

// byCycleCount chunks the sequence into fixed-width wall-clock intervals,
// anchored at the first request's timestamp. Empty intervals produce no
// leaf.
func byCycleCount(t trace.Trace, cycles uint64) []Leaf {
	if len(t) == 0 {
		return nil
	}
	start := t[0].Time
	var out []Leaf
	i := 0
	for i < len(t) {
		bin := (t[i].Time - start) / cycles
		j := i
		for j < len(t) && (t[j].Time-start)/cycles == bin {
			j++
		}
		sub := t[i:j]
		lo, hi := sub.AddrRange()
		out = append(out, Leaf{Reqs: sub, Lo: lo, Hi: hi})
		i = j
	}
	return out
}

// ByFixedBlock groups requests into fixed-size aligned blocks keyed by the
// request's start address. Leaves are ordered by block address; request
// order within a leaf preserves input order. Bounds are the whole block.
func ByFixedBlock(t trace.Trace, blockSize uint64) []Leaf {
	groups := make(map[uint64]trace.Trace)
	for _, r := range t {
		b := r.Addr / blockSize
		groups[b] = append(groups[b], r)
	}
	blocks := make([]uint64, 0, len(groups))
	for b := range groups {
		blocks = append(blocks, b)
	}
	slices.Sort(blocks)
	out := make([]Leaf, 0, len(blocks))
	for _, b := range blocks {
		out = append(out, Leaf{
			Reqs: groups[b],
			Lo:   b * blockSize,
			Hi:   (b + 1) * blockSize,
		})
	}
	return out
}
