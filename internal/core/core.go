// Package core is the public face of the Mocktails reproduction: it ties
// hierarchical partitioning, McC leaf modelling, profile serialisation and
// priority-queue synthesis together behind a small API.
//
// The two entry points mirror Fig. 1 of the paper:
//
//   - Build: industry side — turn a (proprietary) trace into a statistical
//     profile that can be distributed freely.
//   - SynthesizeFrom / SynthesizeTrace: academia side — recreate a request
//     stream from a profile and plug it into a simulator of choice, either
//     as a trace (Option A) or as a live trace.Source with backpressure
//     feedback (Option B).
package core

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/partition"
	"repro/internal/profile"
	"repro/internal/synth"
	"repro/internal/trace"
)

// Config selects the partitioning hierarchy used when building a profile.
// The zero value is not valid; use one of the constructors or fill Layers
// explicitly.
type Config = partition.Config

// DefaultConfig returns the paper's 2L-TS configuration used throughout
// §IV: temporal 500,000-cycle intervals (from SynFull) followed by dynamic
// spatial partitioning.
func DefaultConfig() Config { return partition.TwoLevelTS(500000) }

// CPUPortConfig returns the §V configuration for CPU-to-L1 traces:
// temporal 100,000-request intervals (from STM) followed by dynamic
// spatial partitioning.
func CPUPortConfig() Config { return partition.TwoLevelRequestCount(100000, 0) }

// BuildOption configures Build; see profile.Workers.
type BuildOption = profile.Option

// Workers bounds the goroutines used to fit partition leaves; <= 0
// selects the MOCKTAILS_PARALLELISM / GOMAXPROCS default. Any worker
// count produces a byte-identical profile.
func Workers(n int) BuildOption { return profile.Workers(n) }

// BuildContext attaches a context to Build for observability: the
// partition and fit spans nest below the span carried by ctx (see
// internal/obs). The profile is identical with or without it.
func BuildContext(ctx context.Context) BuildOption { return profile.Context(ctx) }

// Build creates a Mocktails statistical profile from a trace:
// BuildStream over the materialised trace. The trace must be sorted by
// time; name labels the workload in the profile.
func Build(name string, t trace.Trace, cfg Config, opts ...BuildOption) (*profile.Profile, error) {
	return BuildStream(name, trace.NewSliceReader(t), cfg, opts...)
}

// BuildStream builds a profile from an incremental trace reader (see
// trace.Decoder): the trace is partitioned and fitted single-pass as
// records arrive, in O(open window + queued leaves + fitted models)
// peak memory. Sortedness is enforced as the stream flows — a
// timestamp regression aborts the build with a not-sorted error
// wrapping partition.ErrOutOfOrder.
func BuildStream(name string, rd trace.Reader, cfg Config, opts ...BuildOption) (*profile.Profile, error) {
	p, err := profile.BuildStream(name, rd, cfg, opts...)
	if err != nil {
		if errors.Is(err, partition.ErrOutOfOrder) {
			return nil, fmt.Errorf("core: trace %q is not sorted by time: %w", name, err)
		}
		return nil, err
	}
	return p, nil
}

// SynthOption configures synthesis; see SynthWorkers and SynthContext.
type SynthOption = synth.Option

// SynthWorkers sets how many goroutines synthesis setup fans the
// per-leaf generator construction across; <= 1 sets up serially.
// Generation itself always runs on the consuming goroutine. Any worker
// count produces a bit-identical stream.
func SynthWorkers(n int) SynthOption { return synth.Workers(n) }

// SynthContext attaches a context to synthesis for observability: the
// setup span nests below the span carried by ctx (see internal/obs).
// The stream is identical with or without it.
func SynthContext(ctx context.Context) SynthOption { return synth.Context(ctx) }

// SynthesizeFrom returns a live request source that regenerates the
// workload's behaviour from the profile. The source implements
// trace.Source, including backpressure feedback via Delay, so it can be
// coupled tightly to a simulator (Option B in Fig. 1). The profile may
// be a decoded heap profile or a zero-copy flat view over a mapped
// buffer (profile.OpenFlat / profile.OpenFlatFile); the stream depends
// only on the profile contents and the seed, never on the
// representation.
func SynthesizeFrom(v profile.View, seed uint64, opts ...SynthOption) trace.Source {
	return synth.NewFrom(v, seed, opts...)
}

// SynthesizeTrace drains a full synthetic trace from the profile
// (Option A in Fig. 1: generate a synthetic trace file up front). The
// result is sorted by time. The output length is known up front — every
// leaf emits exactly its Count requests — so the trace is allocated
// once instead of grown.
func SynthesizeTrace(v profile.View, seed uint64, opts ...SynthOption) trace.Trace {
	src := synth.NewFrom(v, seed, opts...)
	t := make(trace.Trace, 0, v.Requests())
	for {
		req, ok := src.Next()
		if !ok {
			return t
		}
		t = append(t, req)
	}
}

// Clone rebuilds a trace end-to-end: Build followed by SynthesizeTrace.
// It is a convenience for evaluations that compare an original workload
// with its Mocktails recreation.
func Clone(name string, t trace.Trace, cfg Config, seed uint64) (trace.Trace, *profile.Profile, error) {
	p, err := Build(name, t, cfg)
	if err != nil {
		return nil, nil, err
	}
	return SynthesizeTrace(p, seed), p, nil
}
