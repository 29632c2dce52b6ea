// Package profile defines the Mocktails statistical profile: one McC model
// per feature per leaf of the partitioning hierarchy, plus the per-leaf
// bookkeeping (start time, start address, address range, request count)
// that §III-B saves to minimise synthesis error. A profile is the artefact
// industry would distribute in place of a proprietary trace.
package profile

import (
	"context"
	"fmt"

	"repro/internal/markov"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/trace"
)

// Fitting metrics: leaves fitted and the Markov-vs-Constant mix of the
// resulting feature models (4 per leaf).
var (
	mLeavesFitted   = obs.NewCounter("profile.leaves_fitted")
	mModelsMarkov   = obs.NewCounter("profile.models_markov")
	mModelsConstant = obs.NewCounter("profile.models_constant")
)

// Leaf models one partition. The four features are modelled independently
// (the paper's deliberate obfuscation/simplicity trade-off).
type Leaf struct {
	// StartTime is the cycle at which this partition begins injecting.
	StartTime uint64
	// StartAddr is the address of the partition's first request.
	StartAddr uint64
	// Lo, Hi bound the addresses synthesis may generate, [Lo, Hi).
	Lo, Hi uint64
	// Count is the number of requests this leaf must synthesise.
	Count uint32

	// DeltaTime models the cycle gaps between consecutive requests.
	DeltaTime markov.Model
	// Stride models the address deltas between consecutive requests.
	Stride markov.Model
	// Op models the read/write sequence (0 = read, 1 = write).
	Op markov.Model
	// Size models the request-size sequence in bytes.
	Size markov.Model
}

// Profile is a complete Mocktails statistical profile.
type Profile struct {
	// Name labels the workload the profile was built from.
	Name string
	// Config describes the hierarchy used, for provenance.
	Config string
	// Leaves holds one model per final partition.
	Leaves []Leaf
}

// Option configures Build.
type Option func(*buildOptions)

type buildOptions struct {
	workers int
	ctx     context.Context
}

// Workers sets the number of goroutines Build fits leaves with. Values
// <= 0 (and omitting the option) select par.Default(): the
// MOCKTAILS_PARALLELISM environment variable when set, else GOMAXPROCS.
// The result is identical for every worker count.
func Workers(n int) Option {
	return func(o *buildOptions) { o.workers = n }
}

// Context attaches a context to Build for observability: the build's
// tracing spans (profile.build_stream, partition.stream) nest below
// the span carried by ctx (see internal/obs). The fitted profile is
// identical with or without it. Canceling ctx stops the build.
func Context(ctx context.Context) Option {
	return func(o *buildOptions) { o.ctx = ctx }
}

// Build constructs a profile from a trace using the given hierarchical
// configuration: BuildStream over the materialised trace. The trace
// must be in injection (time) order; an unsorted trace is rejected with
// an error wrapping partition.ErrOutOfOrder.
func Build(name string, t trace.Trace, cfg partition.Config, opts ...Option) (*Profile, error) {
	return BuildStream(name, trace.NewSliceReader(t), cfg, opts...)
}

// BuildStream constructs a profile from an incremental trace reader.
// Temporal windows are fitted as they close and their trace memory is
// released behind the fit frontier, so peak heap is O(open window +
// queued leaves + fitted models) rather than O(trace). Hierarchies
// whose first layer is spatial fall back to materialising internally
// (see partition.FitStream); the result is identical either way.
//
// Leaves are fitted in parallel (see Workers) and committed in
// partition order, so the encoded profile is byte-identical for every
// worker count. The stream must be sorted by time; violations surface
// as an error wrapping partition.ErrOutOfOrder.
func BuildStream(name string, rd trace.Reader, cfg partition.Config, opts ...Option) (*Profile, error) {
	var o buildOptions
	for _, opt := range opts {
		opt(&o)
	}
	ctx, bsp := obs.Start(o.ctx, "profile.build_stream")
	defer bsp.End()
	leaves, records, err := partition.FitStream(ctx, rd, cfg, o.workers, fitLeaf)
	if err != nil {
		return nil, fmt.Errorf("profile: build: %w", err)
	}
	p := &Profile{Name: name, Config: cfg.String(), Leaves: leaves}
	s := StatsOf(p)
	mLeavesFitted.Add(uint64(s.Leaves))
	mModelsMarkov.Add(uint64(s.Chains))
	mModelsConstant.Add(uint64(s.Constants))
	bsp.SetCount("requests", int64(records))
	bsp.SetCount("leaves", int64(len(leaves)))
	return p, nil
}

// fitLeaf fits the four McC models of one partition. An empty partition
// yields a zero-count Leaf whose models are empty constants; synthesis
// emits nothing for it.
func fitLeaf(l partition.Leaf) Leaf {
	n := len(l.Reqs)
	if n == 0 {
		return Leaf{
			Lo:        l.Lo,
			Hi:        l.Hi,
			DeltaTime: markov.Fit(nil),
			Stride:    markov.Fit(nil),
			Op:        markov.Fit(nil),
			Size:      markov.Fit(nil),
		}
	}
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
		DeltaTime: markov.Fit(deltas),
		Stride:    markov.Fit(strides),
		Op:        markov.Fit(ops),
		Size:      markov.Fit(sizes),
	}
}

// Requests returns the total number of requests the profile synthesises.
func (p *Profile) Requests() int {
	n := 0
	for _, l := range p.Leaves {
		n += int(l.Count)
	}
	return n
}

// Stats summarises model composition for reporting: how many feature
// models are constants versus Markov chains, and total Markov states.
type Stats struct {
	Leaves    int
	Constants int
	Chains    int
	States    int
}

// StatsOf computes profile composition statistics.
func StatsOf(v View) Stats {
	s := Stats{Leaves: v.NumLeaves()}
	count := func(m *markov.Model) {
		if m.Constant {
			s.Constants++
		} else {
			s.Chains++
			s.States += m.States()
		}
	}
	var scratch Leaf
	for i := 0; i < s.Leaves; i++ {
		l := v.LeafView(i, &scratch)
		count(&l.DeltaTime)
		count(&l.Stride)
		count(&l.Op)
		count(&l.Size)
	}
	return s
}

// String summarises the profile.
func (p *Profile) String() string {
	s := StatsOf(p)
	return fmt.Sprintf("Profile(%s: %d leaves, %d requests, %d constants, %d chains)",
		p.Name, s.Leaves, p.Requests(), s.Constants, s.Chains)
}
