// Package korder is an extension of Mocktails that replaces the
// first-order McC leaf models with history-k models (markov.HModel),
// keeping everything else — hierarchy, per-leaf bookkeeping, priority-
// queue injection, address wrapping — identical. It exists to quantify
// how much of Mocktails' residual error on strictly periodic patterns
// (e.g. the tiled DPU scan of Fig. 10) is due to the order-1 assumption;
// see the "ablation-korder" experiment.
package korder

import (
	"context"

	"repro/internal/markov"
	"repro/internal/partition"
	"repro/internal/stats"
	"repro/internal/synth"
	"repro/internal/trace"
)

// Leaf is the history-k analogue of profile.Leaf.
type Leaf struct {
	StartTime uint64
	StartAddr uint64
	Lo, Hi    uint64
	Count     uint32

	DeltaTime markov.HModel
	Stride    markov.HModel
	Op        markov.HModel
	Size      markov.HModel
}

// Profile is a history-k Mocktails profile.
type Profile struct {
	Name   string
	Order  int
	Leaves []Leaf
}

// Build fits a history-k profile with the given hierarchy. The trace
// must be sorted by time; an unsorted trace is rejected with an error
// wrapping partition.ErrOutOfOrder.
func Build(name string, t trace.Trace, cfg partition.Config, order int) (*Profile, error) {
	leaves, _, err := partition.FitStream(context.Background(), trace.NewSliceReader(t), cfg, 0,
		func(l partition.Leaf) Leaf { return fitLeaf(l, order) })
	if err != nil {
		return nil, err
	}
	return &Profile{Name: name, Order: order, Leaves: leaves}, nil
}

func fitLeaf(l partition.Leaf, order int) Leaf {
	n := len(l.Reqs)
	deltas := make([]int64, 0, n-1)
	strides := make([]int64, 0, n-1)
	ops := make([]int64, 0, n)
	sizes := make([]int64, 0, n)
	for i, r := range l.Reqs {
		ops = append(ops, int64(r.Op))
		sizes = append(sizes, int64(r.Size))
		if i > 0 {
			deltas = append(deltas, int64(r.Time-l.Reqs[i-1].Time))
			strides = append(strides, int64(r.Addr)-int64(l.Reqs[i-1].Addr))
		}
	}
	return Leaf{
		StartTime: l.Reqs[0].Time,
		StartAddr: l.Reqs[0].Addr,
		Lo:        l.Lo,
		Hi:        l.Hi,
		Count:     uint32(n),
		DeltaTime: markov.FitOrder(deltas, order),
		Stride:    markov.FitOrder(strides, order),
		Op:        markov.FitOrder(ops, order),
		Size:      markov.FitOrder(sizes, order),
	}
}

// Synthesize returns a source regenerating the workload from the
// history-k profile.
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

type leafGen struct {
	leaf    *Leaf
	dt      *markov.HGenerator
	stride  *markov.HGenerator
	op      *markov.HGenerator
	size    *markov.HGenerator
	emitted uint32
	last    trace.Request
}

func newLeafGen(l *Leaf, rng *stats.RNG) *leafGen {
	if l.Count == 0 {
		return nil
	}
	return &leafGen{
		leaf:   l,
		dt:     markov.NewHGenerator(&l.DeltaTime, rng.Fork()),
		stride: markov.NewHGenerator(&l.Stride, rng.Fork()),
		op:     markov.NewHGenerator(&l.Op, rng.Fork()),
		size:   markov.NewHGenerator(&l.Size, rng.Fork()),
	}
}

// Next generates the leaf's next request; it returns false once the
// leaf has produced all Count requests.
func (g *leafGen) Next() (trace.Request, bool) {
	if g.emitted >= g.leaf.Count {
		return trace.Request{}, false
	}
	if g.emitted == 0 {
		g.last = trace.Request{
			Time: g.leaf.StartTime,
			Addr: g.leaf.StartAddr,
			Op:   synth.OpFromValue(g.op.Next()),
			Size: synth.SizeFromValue(g.size.Next()),
		}
	} else {
		dt := g.dt.Next()
		if dt < 0 {
			dt = 0
		}
		g.last = trace.Request{
			Time: g.last.Time + uint64(dt),
			Addr: synth.WrapAddr(int64(g.last.Addr)+g.stride.Next(), g.leaf.Lo, g.leaf.Hi),
			Op:   synth.OpFromValue(g.op.Next()),
			Size: synth.SizeFromValue(g.size.Next()),
		}
	}
	g.emitted++
	return g.last, true
}
