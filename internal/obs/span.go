package obs

import (
	"context"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"
)

// Span measures one pipeline stage. Spans nest through the context:
// Start attaches the new span as a child of the span already carried by
// ctx, reproducing the Fig. 1 pipeline (partition → fit → synthesize →
// simulate) as a tree the CLI prints with -v. End records the wall time
// into the stage's ns-latency histogram ("stage.<name>.ns") and wall
// gauge ("stage.<name>.wall_ns") in the Default registry.
//
// A request span (StartRequest) is the root of its own tree and carries
// the request's trace identity; spans started under it inherit the
// trace ID, and Finish flattens the tree into the request's trace.
//
// Spans are observation-only: nothing in the pipeline reads them, so
// they never perturb profile or synthesis output. All methods are safe
// on a nil *Span and safe for concurrent children (parallel stages
// attach under a mutex).
type Span struct {
	name  string
	start time.Time

	// Trace identity: set by StartRequest, inherited by descendants
	// (traceID, flags). Zero outside a request.
	traceID       TraceID
	spanID        SpanID
	parent        SpanID
	flags         byte
	method, route string
	peer          bool

	mu       sync.Mutex
	wall     time.Duration
	ended    bool
	counts   []SpanCount
	children []*Span
}

// SpanCount is one named item count attached to a span (requests,
// leaves, ...). Summary rendering derives per-second rates from it.
type SpanCount struct {
	Name string
	N    int64
}

// spanKey carries the current span through a context.
type spanKey struct{}

// Start begins a span named name, child of the span carried by ctx (if
// any, inheriting its trace), and returns a derived context carrying
// the new span.
func Start(ctx context.Context, name string) (context.Context, *Span) {
	sp := &Span{name: name, start: time.Now()}
	if ctx == nil {
		ctx = context.Background()
	}
	if parent, ok := ctx.Value(spanKey{}).(*Span); ok && parent != nil {
		sp.traceID, sp.flags = parent.traceID, parent.flags
		parent.mu.Lock()
		parent.children = append(parent.children, sp)
		parent.mu.Unlock()
	}
	return context.WithValue(ctx, spanKey{}, sp), sp
}

// SpanFromContext returns the span carried by ctx, or nil.
func SpanFromContext(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	sp, _ := ctx.Value(spanKey{}).(*Span)
	return sp
}

// SetCount attaches (or overwrites) a named item count.
func (s *Span) SetCount(name string, n int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.counts {
		if s.counts[i].Name == name {
			s.counts[i].N = n
			return
		}
	}
	s.counts = append(s.counts, SpanCount{name, n})
}

// End stops the span, feeding its wall time into the stage histogram
// and gauge. Calling End more than once keeps the first measurement.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	s.wall = time.Since(s.start)
	wall := s.wall
	s.mu.Unlock()
	NewHistogram("stage."+s.name+".ns", ScaleNs).Observe(int64(wall))
	NewGauge("stage." + s.name + ".wall_ns").Set(float64(wall))
	if Verbose() {
		args := []any{"stage", s.name, "wall", wall}
		for _, c := range s.snapshotCounts() {
			args = append(args, c.Name, c.N)
		}
		Logger().Debug("stage done", args...)
	}
}

// Name returns the span's name.
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Wall returns the measured wall time; for a running span, the time
// since Start.
func (s *Span) Wall() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.ended {
		return time.Since(s.start)
	}
	return s.wall
}

// Counts returns a copy of the span's item counts.
func (s *Span) Counts() []SpanCount {
	if s == nil {
		return nil
	}
	return s.snapshotCounts()
}

func (s *Span) snapshotCounts() []SpanCount {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]SpanCount(nil), s.counts...)
}

// Children returns a copy of the span's child list in attach order.
func (s *Span) Children() []*Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Span(nil), s.children...)
}

// WriteTree renders the span and its descendants as an indented tree:
//
//	mocktails.check                 41.2ms
//	  profile                       17.0ms  requests=12000
//	    profile.build_stream        16.8ms  leaves=210
//	      partition.stream          16.6ms  leaves=210
//
// Durations are wall times; counts follow as name=value pairs.
func (s *Span) WriteTree(w io.Writer) {
	if s == nil {
		return
	}
	s.writeTree(w, 0)
}

func (s *Span) writeTree(w io.Writer, depth int) {
	label := strings.Repeat("  ", depth) + s.name
	line := fmt.Sprintf("%-36s %10s", label, s.Wall().Round(time.Microsecond))
	for _, c := range s.snapshotCounts() {
		line += fmt.Sprintf("  %s=%d", c.Name, c.N)
	}
	fmt.Fprintln(w, line)
	for _, c := range s.Children() {
		c.writeTree(w, depth+1)
	}
}

// WriteSummary renders a flat per-stage table over the span's direct
// children (the pipeline stages of one run): stage, wall time, and one
// <count>/s rate column per attached item count.
func (s *Span) WriteSummary(w io.Writer) {
	if s == nil {
		return
	}
	fmt.Fprintf(w, "%-20s %12s  %s\n", "stage", "wall", "rates")
	for _, c := range s.Children() {
		c.summaryRow(w)
	}
	s.summaryRow(w)
}

func (s *Span) summaryRow(w io.Writer) {
	wall := s.Wall()
	rates := ""
	for _, c := range s.snapshotCounts() {
		if wall > 0 {
			rate := float64(c.N) / wall.Seconds()
			if rates != "" {
				rates += "  "
			}
			rates += fmt.Sprintf("%s/s=%.0f", c.Name, rate)
		}
	}
	fmt.Fprintf(w, "%-20s %12s  %s\n", s.name, wall.Round(time.Microsecond), rates)
}
