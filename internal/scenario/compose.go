package scenario

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/profile"
	"repro/internal/synth"
	"repro/internal/trace"
)

// Composition metrics, shared by the daemon endpoint and the offline CLI.
var (
	mComposed = obs.NewCounter("scenario.composed")
	mDevices  = obs.NewCounter("scenario.devices")
	mRequests = obs.NewCounter("scenario.requests")
)

// Resolver opens the profile with the given content address and returns
// a synthesis view plus a release function. The serve store resolves to
// a pinned (possibly mmap-ed flat) entry; the CLI resolves to files in a
// directory. The release function is called exactly once, when the
// composed stream is closed.
type Resolver func(id string) (profile.View, func(), error)

// Option configures a composition.
type Option func(*config)

type config struct {
	workers int
	ctx     context.Context
}

// Workers sets the parallelism of composition setup: devices are
// constructed concurrently and each device's per-leaf setup fans out
// over the same worker count; generation runs on the consuming
// goroutine. Any value produces a bit-identical stream.
func Workers(n int) Option { return func(c *config) { c.workers = n } }

// Context attaches a context for observability spans. The composed
// stream is identical with or without it.
func Context(ctx context.Context) Option { return func(c *config) { c.ctx = ctx } }

// Stream is a composed scenario: a totally-ordered merge of the
// devices' transformed synthetic streams. It implements trace.Source;
// NextDev additionally reports which device produced each request, for
// per-device replay attribution. Close releases the underlying profiles
// and flushes the devices' synthesis stats; a Stream must be closed even
// when drained.
type Stream struct {
	m      *trace.Merger
	total  uint64
	closed bool
	mu     sync.Mutex
	closes []func()
}

// Total returns the exact number of requests the stream will emit,
// known up front so binary output can be streamed with a precomputed
// Content-Length.
func (s *Stream) Total() uint64 { return s.total }

// Next returns the globally next request.
func (s *Stream) Next() (trace.Request, bool) {
	r, _, ok := s.NextDev()
	return r, ok
}

// NextDev returns the globally next request and the index (into the
// spec's Devices) of the device that produced it.
func (s *Stream) NextDev() (trace.Request, int, bool) { return s.m.NextIndexed() }

// Delay adds backpressure delay to all not-yet-emitted requests.
func (s *Stream) Delay(cycles uint64) { s.m.Delay(cycles) }

// Close releases pinned profiles and closes the devices' synthesizers.
// It is safe to call more than once.
func (s *Stream) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	for _, f := range s.closes {
		f()
	}
	s.closes = nil
}

// device applies one device's transforms — request cap, time
// dilation, window remap — to its synthesized stream before the merge
// sees the request. Dilation scales the offset from the device's first
// timestamp (t' = t0 + (t-t0)·f) and is monotone for any valid factor,
// so each device's stream stays sorted and the merge's total order is
// preserved.
type device struct {
	src       *synth.Synthesizer
	remaining uint64 // requests still to emit
	window    *Window
	dilation  float64
	started   bool
	t0        uint64
}

// Next returns the device's next transformed request, or false when the
// cap or the profile is exhausted.
func (d *device) Next() (trace.Request, bool) {
	if d.remaining == 0 {
		return trace.Request{}, false
	}
	r, ok := d.src.Next()
	if !ok {
		d.remaining = 0
		return trace.Request{}, false
	}
	d.remaining--
	if !d.started {
		d.started, d.t0 = true, r.Time
	}
	if d.dilation != 1 {
		r.Time = d.t0 + uint64(float64(r.Time-d.t0)*d.dilation)
	}
	r.Addr = d.window.Remap(r.Addr)
	return r, true
}

// Compose opens every device's profile through the resolver,
// synthesizes the devices concurrently, and returns the merged stream.
// The result is a pure function of the spec and the profile contents:
// the same spec produces byte-identical output for any worker count and
// whether the profiles resolve to heap or flat (mmap) representations.
// Requests sharing a timestamp are emitted in ascending device index
// (the spec's Devices order), inheriting trace.Merge's documented
// tie-break.
//
// A single-device spec with no window, dilation 1 and no count cap
// composes to exactly the device profile's plain synthesis stream.
func Compose(spec *Spec, resolve Resolver, opts ...Option) (*Stream, error) {
	cfg := config{workers: 1}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.workers < 1 {
		cfg.workers = 1
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	ctx, sp := obs.Start(cfg.ctx, "scenario.compose")
	defer sp.End()

	st := &Stream{}
	// Resolve serially: resolvers may fetch over the network or touch an
	// LRU, and a deterministic resolve order keeps failure modes (which
	// missing profile is reported) stable too.
	views := make([]profile.View, len(spec.Devices))
	for i := range spec.Devices {
		v, release, err := resolve(spec.Devices[i].Profile)
		if err != nil {
			st.Close()
			return nil, fmt.Errorf("scenario: device %d (%s): %w", i, spec.Devices[i].Profile, err)
		}
		views[i] = v
		st.closes = append(st.closes, release)
	}

	// Synthesize the devices concurrently. par.ForEach commits by index,
	// so construction order cannot leak into the output.
	srcs := make([]*synth.Synthesizer, len(spec.Devices))
	counts := make([]uint64, len(spec.Devices))
	par.ForEach(len(spec.Devices), cfg.workers, func(i int) {
		d := &spec.Devices[i]
		counts[i] = uint64(views[i].Requests())
		if d.Count > 0 && d.Count < counts[i] {
			counts[i] = d.Count
		}
		srcs[i] = synth.NewFrom(views[i], d.Seed, synth.Workers(cfg.workers), synth.Context(ctx))
	})
	for _, s := range srcs {
		st.closes = append(st.closes, s.Close)
	}

	// One merge source per device in spec order, so the merge's source
	// index is the device index; a device that emits nothing stays nil.
	devs := make([]trace.Puller, len(spec.Devices))
	for i := range spec.Devices {
		if counts[i] == 0 {
			continue
		}
		d := &spec.Devices[i]
		devs[i] = &device{src: srcs[i], remaining: counts[i], window: d.Window, dilation: d.dilation()}
		st.total += counts[i]
	}
	st.m = trace.Merge(devs...)

	mComposed.Inc()
	mDevices.Add(uint64(len(spec.Devices)))
	mRequests.Add(st.total)
	sp.SetCount("devices", int64(len(spec.Devices)))
	sp.SetCount("requests", int64(st.total))
	return st, nil
}
