package partition

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/trace"
)

// Streaming ingestion: the temporal first layer of a hierarchy imposes
// exactly the structure needed to partition without the whole trace in
// hand — a window's membership is decided the moment a request from a
// later window arrives. The Streamer exploits that: requests are pushed
// one at a time, and each window is expanded through the remaining
// layers (the same expandPart the materialised Split uses) and emitted
// as finished leaves the moment it closes. Peak memory is the open
// window plus whatever the consumer still holds, not the trace.

// Ingestion metrics, maintained by FitStream: records decoded, leaves
// dispatched but not yet fitted (plus the open window), and the bytes
// of trace memory in flight between the decoder and the fit frontier.
var (
	mIngestRecords  = obs.NewCounter("ingest.records")
	mOpenLeaves     = obs.NewGauge("ingest.open_leaves")
	mFrontierBytes  = obs.NewGauge("ingest.frontier_bytes")
	mIngestFallback = obs.NewCounter("ingest.materialized_fallbacks")
)

// ErrOutOfOrder is returned by Streamer.Push (and wrapped by the build
// paths) when a request's timestamp precedes its predecessor's.
// Temporal windows can only be closed incrementally over a time-sorted
// stream.
var ErrOutOfOrder = errors.New("partition: request timestamps out of order")

// Streamer incrementally applies a hierarchy whose first layer is
// temporal. Push returns the leaves of every window the new request
// closed (usually none); Flush closes the final partial window. Leaves
// never share memory across windows, so once the consumer drops a
// window's leaves that memory is unreachable — the property streaming
// ingestion's O(frontier) bound rests on.
//
// Leaf content, bounds and order are identical to Split on the
// materialised trace: windows close exactly where byCycleCount /
// byRequestCount would cut them, and sub-layers run through the same
// expansion code.
type Streamer struct {
	first Layer
	// rest are the layers applied to a closed window: those below a
	// temporal first layer, or every layer when the whole trace is the
	// one window (a spatial first layer, see newStreamer).
	rest []Layer

	cur trace.Trace
	// reuse is set when rest holds a spatial layer: spatial grouping
	// copies requests into fresh per-region slices, so no leaf aliases
	// the window buffer and one buffer serves every window.
	reuse    bool
	started  bool
	anchor   uint64 // first request's timestamp (cycle-count bins)
	bin      uint64 // current cycle-count bin
	lastTime uint64
}

// NewStreamer validates cfg and returns an incremental partitioner for
// it. Hierarchies whose first layer is spatial cannot stream (every
// window spans the whole trace); callers should fall back to the
// materialised Split — FitStream does so automatically.
func NewStreamer(cfg Config) (*Streamer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if !cfg.Layers[0].Kind.Temporal() {
		return nil, fmt.Errorf("partition: streaming requires a temporal first layer, got %s", cfg.Layers[0].Kind)
	}
	return newStreamer(cfg), nil
}

// newStreamer builds a Streamer for a validated cfg. A spatial first
// layer never closes a window before Flush, which then splits the whole
// buffered trace exactly as Split does: the materialising fallback.
func newStreamer(cfg Config) *Streamer {
	s := &Streamer{first: cfg.Layers[0], rest: cfg.Layers[1:]}
	if !s.first.Kind.Temporal() {
		s.rest = cfg.Layers
	}
	for _, l := range s.rest {
		s.reuse = s.reuse || !l.Kind.Temporal()
	}
	return s
}

// Push adds one request and returns the fully-expanded leaves of any
// temporal window it closed. The returned slice is nil for most pushes.
// Requests must arrive sorted by time; a regression returns
// ErrOutOfOrder with the window state unchanged.
func (s *Streamer) Push(r trace.Request) ([]Leaf, error) {
	if s.started && r.Time < s.lastTime {
		return nil, fmt.Errorf("%w: %d after %d", ErrOutOfOrder, r.Time, s.lastTime)
	}
	var closed []Leaf
	switch s.first.Kind {
	case TemporalCycleCount:
		if !s.started {
			s.anchor = r.Time
			s.bin = 0
		}
		if bin := (r.Time - s.anchor) / s.first.Param; s.started && bin != s.bin {
			closed = s.closeWindow()
			s.bin = bin
		}
		s.cur = append(s.cur, r)
	case TemporalRequestCount:
		s.cur = append(s.cur, r)
		if uint64(len(s.cur)) >= s.first.Param {
			closed = s.closeWindow()
		}
	default:
		s.cur = append(s.cur, r)
	}
	s.started = true
	s.lastTime = r.Time
	return closed, nil
}

// Flush closes the final partial window and returns its leaves. The
// Streamer is reusable afterwards (a subsequent Push anchors a new
// trace).
func (s *Streamer) Flush() []Leaf {
	if len(s.cur) == 0 {
		s.started = false
		return nil
	}
	closed := s.closeWindow()
	s.started = false
	return closed
}

// Open returns the number of requests buffered in the open window.
func (s *Streamer) Open() int { return len(s.cur) }

// OpenBytes returns the in-memory footprint of the open window.
func (s *Streamer) OpenBytes() uint64 { return uint64(len(s.cur)) * trace.RequestMemBytes }

func (s *Streamer) closeWindow() []Leaf {
	sub := s.cur
	lo, hi := sub.AddrRange()
	leaves := expandPart(Leaf{Reqs: sub, Lo: lo, Hi: hi}, s.rest)
	if s.reuse {
		s.cur = sub[:0]
	} else {
		s.cur = nil // the leaves alias sub: the next window gets a fresh array
	}
	return leaves
}

// fitQueueFactor sizes FitStream's pool queue relative to the worker
// count: deep enough to keep workers fed across uneven leaf costs,
// shallow enough that backpressure caps the frontier at a few windows.
const fitQueueFactor = 2

// FitStream decodes requests from rd, partitions them incrementally and
// fits every leaf with fit under the pool's concurrency, returning the
// fitted leaves and the number of records read. Fitted leaves come back
// in the exact order Split produces the leaves, so the result equals
// fitting Split's output serially, for any worker count. Backpressure
// from the bounded fit queue caps trace memory at O(open window +
// queued leaves) — the streaming frontier.
//
// Hierarchies without a temporal first layer cannot stream; FitStream
// transparently materialises the trace for those (counting
// ingest.materialized_fallbacks), so callers get one code path for
// every configuration. The stream must be time-sorted in either mode;
// violations return an error wrapping ErrOutOfOrder.
func FitStream[L any](ctx context.Context, rd trace.Reader, cfg Config, workers int, fit func(Leaf) L) (fitted []L, records uint64, err error) {
	if err := cfg.Validate(); err != nil {
		return nil, 0, err
	}
	leaves := 0
	_, sp := obs.Start(ctx, "partition.stream")
	defer func() {
		sp.SetCount("requests", int64(records))
		sp.SetCount("leaves", int64(leaves))
		sp.End()
	}()

	if !cfg.Layers[0].Kind.Temporal() {
		mIngestFallback.Inc()
	}
	st := newStreamer(cfg)

	pool := par.NewPool(ctx, workers, par.Workers(workers)*fitQueueFactor)
	var (
		inflightLeaves atomic.Int64 // dispatched, not yet fitted
		inflightReqs   atomic.Int64 // their request counts
		counted        uint64       // records already flushed to mIngestRecords
	)
	// Leaves are handed to the pool in batches of about fitBatchReqs
	// requests: interval-partitioned traces close thousands of tiny
	// leaves, and one hand-off per leaf would cost more than its fit.
	// Each batch's task fits into its own slot of results, which only
	// this goroutine appends to, so committing needs no lock.
	var (
		batch     []Leaf
		batchReqs int
		results   [][]L
	)
	submit := func() error {
		if len(batch) == 0 {
			return nil
		}
		b, res, nr := batch, make([]L, len(batch)), int64(batchReqs)
		results = append(results, res)
		batch, batchReqs = nil, 0
		inflightLeaves.Add(int64(len(b)))
		inflightReqs.Add(nr)
		return pool.Submit(func() {
			for k, l := range b {
				res[k] = fit(l)
			}
			inflightLeaves.Add(-int64(len(b)))
			inflightReqs.Add(-nr)
		})
	}
	dispatch := func(closed []Leaf) error {
		for _, l := range closed {
			batch = append(batch, l)
			leaves++
			if batchReqs += len(l.Reqs); batchReqs >= fitBatchReqs {
				if err := submit(); err != nil {
					return err
				}
			}
		}
		return nil
	}
	gauges := func() {
		mOpenLeaves.Set(float64(inflightLeaves.Load() + int64(len(batch))))
		pending := uint64(inflightReqs.Load()) + uint64(batchReqs)
		mFrontierBytes.Set(float64(pending*trace.RequestMemBytes + st.OpenBytes()))
	}

	var r trace.Request
	for {
		if records%cancelCheckEvery == 0 && ctx != nil {
			if err = ctx.Err(); err != nil {
				break
			}
		}
		nerr := rd.Next(&r)
		if nerr == io.EOF {
			if err = dispatch(st.Flush()); err == nil {
				err = submit()
			}
			break
		}
		if nerr != nil {
			err = nerr
			break
		}
		records++
		closed, perr := st.Push(r)
		if perr != nil {
			err = perr
			break
		}
		if err = dispatch(closed); err != nil {
			break
		}
		if records%gaugeEvery == 0 {
			mIngestRecords.Add(records - counted)
			counted = records
			gauges()
		}
	}
	cerr := pool.Close()
	mIngestRecords.Add(records - counted)
	gauges()
	mLeaves.Add(uint64(leaves))
	if err == nil {
		err = cerr
	}
	if err != nil {
		return nil, records, err
	}
	fitted = make([]L, 0, leaves)
	for _, res := range results {
		fitted = append(fitted, res...)
	}
	return fitted, records, nil
}

// fitBatchReqs is the request count of one fit task (see FitStream).
const fitBatchReqs = 2048

// cancelCheckEvery matches the streaming trace encoders' cadence: the
// read loop notices cancellation within one batch of records.
const cancelCheckEvery = 256

// gaugeEvery is how many records pass between ingest gauge refreshes.
const gaugeEvery = 1024
