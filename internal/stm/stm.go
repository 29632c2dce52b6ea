// Package stm implements the STM baseline (Awad & Solihin, "STM: Cloning
// the Spatial and Temporal Memory Access Behavior", HPCA 2014) as used in
// the paper's §IV comparison: within the same Mocktails hierarchy, the
// address and operation features are modelled by STM instead of McC.
//
//   - Addresses use a stride pattern table keyed by a history of up to the
//     last 8 strides (longest-suffix match with back-off), with a 32-row
//     stack-distance table as the temporal-reuse fallback — the table
//     sizes the paper chose for its smaller per-leaf request counts.
//   - Operations use a single read probability with strict convergence,
//     so the exact read/write counts are reproduced but not their order —
//     the error source the paper highlights in Figs. 9–11.
//   - Delta-time and size reuse the McC models, exactly as in the paper.
package stm

import (
	"context"
	"fmt"

	"repro/internal/markov"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/stats"
	"repro/internal/synth"
	"repro/internal/trace"
)

// mLeavesFitted counts leaves fitted by the STM baseline.
var mLeavesFitted = obs.NewCounter("stm.leaves_fitted")

// MaxHistory is the maximum stride-history length in the pattern table.
const MaxHistory = 8

// StackRows is the number of rows in the stack distance table.
const StackRows = 32

// Leaf is the STM model of one partition.
type Leaf struct {
	StartTime uint64
	StartAddr uint64
	Lo, Hi    uint64
	Count     uint32

	// Reads and Writes are the exact operation counts (strict
	// convergence for the single-probability operation model).
	Reads, Writes uint32

	// DeltaTime and Size reuse McC.
	DeltaTime markov.Model
	Size      markov.Model

	// Addr is the stride-pattern + stack-distance address model.
	Addr AddrModel
}

// Profile is a complete STM profile of a workload.
type Profile struct {
	Name   string
	Leaves []Leaf
}

// Option configures Build.
type Option func(*buildOptions)

type buildOptions struct {
	workers int
	ctx     context.Context
}

// Workers sets the number of goroutines Build fits leaves with. Values
// <= 0 select par.Default(). The result is identical for every worker
// count.
func Workers(n int) Option {
	return func(o *buildOptions) { o.workers = n }
}

// Context attaches a context to Build for observability: the build's
// tracing spans nest below the span carried by ctx (see internal/obs).
// The fitted profile is identical with or without it.
func Context(ctx context.Context) Option {
	return func(o *buildOptions) { o.ctx = ctx }
}

// Build fits an STM profile using the same partitioning hierarchy as
// Mocktails: BuildStream over the materialised trace.
func Build(name string, t trace.Trace, cfg partition.Config, opts ...Option) (*Profile, error) {
	return BuildStream(name, trace.NewSliceReader(t), cfg, opts...)
}

// BuildStream fits an STM profile from an incremental trace reader in
// O(frontier) peak heap, exactly as profile.BuildStream does. Leaves
// are fitted in parallel and committed in partition order, so the
// profile is identical to a serial build. Unsorted streams are rejected
// with an error wrapping partition.ErrOutOfOrder.
func BuildStream(name string, rd trace.Reader, cfg partition.Config, opts ...Option) (*Profile, error) {
	var o buildOptions
	for _, opt := range opts {
		opt(&o)
	}
	ctx, bsp := obs.Start(o.ctx, "stm.build_stream")
	defer bsp.End()
	leaves, records, err := partition.FitStream(ctx, rd, cfg, o.workers, fitLeaf)
	if err != nil {
		return nil, fmt.Errorf("stm: build: %w", err)
	}
	mLeavesFitted.Add(uint64(len(leaves)))
	bsp.SetCount("requests", int64(records))
	bsp.SetCount("leaves", int64(len(leaves)))
	return &Profile{Name: name, Leaves: leaves}, nil
}

func fitLeaf(l partition.Leaf) Leaf {
	n := len(l.Reqs)
	if n == 0 {
		return Leaf{
			Lo:        l.Lo,
			Hi:        l.Hi,
			DeltaTime: markov.Fit(nil),
			Size:      markov.Fit(nil),
			Addr:      FitAddr(nil),
		}
	}
	deltas := make([]int64, 0, n-1)
	sizes := make([]int64, 0, n)
	var reads, writes uint32
	addrs := make([]uint64, 0, n)
	for i, r := range l.Reqs {
		sizes = append(sizes, int64(r.Size))
		addrs = append(addrs, r.Addr)
		if r.Op == trace.Read {
			reads++
		} else {
			writes++
		}
		if i > 0 {
			deltas = append(deltas, int64(r.Time-l.Reqs[i-1].Time))
		}
	}
	return Leaf{
		StartTime: l.Reqs[0].Time,
		StartAddr: l.Reqs[0].Addr,
		Lo:        l.Lo,
		Hi:        l.Hi,
		Count:     uint32(n),
		Reads:     reads,
		Writes:    writes,
		DeltaTime: markov.Fit(deltas),
		Size:      markov.Fit(sizes),
		Addr:      FitAddr(addrs),
	}
}

// Synthesize returns a trace.Source that regenerates the workload from
// the STM profile, using the same priority-queue injection process as
// Mocktails so the comparison isolates the leaf models.
func Synthesize(p *Profile, seed uint64) trace.Source {
	rng := stats.NewRNG(seed)
	gens := make([]trace.Puller, 0, len(p.Leaves))
	for i := range p.Leaves {
		if g := newLeafGen(&p.Leaves[i], rng.Fork()); g != nil {
			gens = append(gens, g)
		}
	}
	return trace.Merge(gens...)
}

// leafGen generates one partition's requests from the STM models.
type leafGen struct {
	leaf    *Leaf
	dt      *markov.Generator
	size    *markov.Generator
	addr    *addrGen
	rng     *stats.RNG
	reads   uint32
	writes  uint32
	emitted uint32
	last    trace.Request
}

func newLeafGen(l *Leaf, rng *stats.RNG) *leafGen {
	if l.Count == 0 {
		return nil
	}
	return &leafGen{
		leaf:   l,
		dt:     markov.NewGenerator(&l.DeltaTime, rng.Fork()),
		size:   markov.NewGenerator(&l.Size, rng.Fork()),
		addr:   newAddrGen(&l.Addr, l.StartAddr, l.Lo, l.Hi, rng.Fork()),
		rng:    rng,
		reads:  l.Reads,
		writes: l.Writes,
	}
}

// nextOp draws read/write from the single-probability model under strict
// convergence (remaining counts are consumed without replacement).
func (g *leafGen) nextOp() trace.Op {
	total := g.reads + g.writes
	if total == 0 {
		return trace.Read
	}
	if g.rng.Uint64n(uint64(total)) < uint64(g.reads) {
		g.reads--
		return trace.Read
	}
	g.writes--
	return trace.Write
}

// Next generates the partition's next request; it returns false once
// the leaf has produced all Count requests.
func (g *leafGen) Next() (trace.Request, bool) {
	if g.emitted >= g.leaf.Count {
		return trace.Request{}, false
	}
	if g.emitted == 0 {
		g.last = trace.Request{
			Time: g.leaf.StartTime,
			Addr: g.leaf.StartAddr,
			Op:   g.nextOp(),
			Size: synth.SizeFromValue(g.size.Next()),
		}
	} else {
		dt := g.dt.Next()
		if dt < 0 {
			dt = 0
		}
		g.last = trace.Request{
			Time: g.last.Time + uint64(dt),
			Addr: g.addr.next(),
			Op:   g.nextOp(),
			Size: synth.SizeFromValue(g.size.Next()),
		}
	}
	g.emitted++
	return g.last, true
}
