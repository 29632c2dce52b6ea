package obs

import (
	"cmp"
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"slices"
	"sync/atomic"
	"time"
)

// This file is the distributed-tracing core: 128-bit trace IDs and
// 64-bit span IDs, the W3C traceparent wire encoding, request spans
// (StartRequest: a Span that roots one request's tree and carries its
// trace identity), and a bounded lock-free ring buffer of recently
// completed request traces (TraceRing) behind mocktailsd's
// GET /debug/requests.
//
// Like the rest of the package, tracing is strictly write-only from
// the pipeline's point of view: trace IDs and spans never feed back
// into synthesis, so output bytes are identical with tracing on or
// off (pinned by the determinism test in this package).

// TraceID is a 128-bit trace identifier, hex-encoded on the wire.
type TraceID [16]byte

// String returns the 32-character lowercase hex encoding.
func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

// IsZero reports whether the ID is the invalid all-zero value.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// SpanID is a 64-bit span identifier, hex-encoded on the wire.
type SpanID [8]byte

// String returns the 16-character lowercase hex encoding.
func (s SpanID) String() string { return hex.EncodeToString(s[:]) }

// IsZero reports whether the ID is the invalid all-zero value.
func (s SpanID) IsZero() bool { return s == SpanID{} }

// idState is a crypto-seeded atomic counter whitened through the
// splitmix64 finalizer: ID generation is one atomic add plus a few
// multiplies — lock-free, unique within the process, and random-looking
// across processes (the seed and xor key differ per process).
var (
	idState atomic.Uint64
	idKey   uint64
)

func init() {
	var b [16]byte
	if _, err := crand.Read(b[:]); err != nil {
		// crypto/rand failing is essentially fatal elsewhere; here a
		// clock seed only weakens cross-process uniqueness of debug IDs.
		binary.LittleEndian.PutUint64(b[:8], uint64(time.Now().UnixNano()))
	}
	idState.Store(binary.LittleEndian.Uint64(b[0:8]))
	idKey = binary.LittleEndian.Uint64(b[8:16]) | 1
}

func randID64() uint64 {
	x := idState.Add(0x9e3779b97f4a7c15) ^ idKey
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// NewTraceID returns a fresh non-zero trace ID.
func NewTraceID() TraceID { return TraceIDFromUint64(randID64(), randID64()) }

// NewSpanID returns a fresh non-zero span ID.
func NewSpanID() SpanID { return SpanIDFromUint64(randID64()) }

// TraceIDFromUint64 builds a trace ID from two 64-bit words (big-endian
// hi then lo). The all-zero input is remapped to a valid ID, since the
// zero trace ID is invalid on the wire. Deterministic callers
// (internal/loadgen derives trace IDs from its seed so a slow request
// can be re-issued exactly) use this instead of NewTraceID.
func TraceIDFromUint64(hi, lo uint64) TraceID {
	var t TraceID
	binary.BigEndian.PutUint64(t[0:8], hi)
	binary.BigEndian.PutUint64(t[8:16], lo)
	if t.IsZero() {
		t[15] = 1
	}
	return t
}

// SpanIDFromUint64 builds a span ID from one 64-bit word, remapping the
// invalid all-zero input like TraceIDFromUint64.
func SpanIDFromUint64(v uint64) SpanID {
	var s SpanID
	binary.BigEndian.PutUint64(s[:], v)
	if s.IsZero() {
		s[7] = 1
	}
	return s
}

// ParseTraceID parses a 32-character hex trace ID (the X-Request-Id
// convention). ok is false for any other string or the all-zero ID.
func ParseTraceID(s string) (TraceID, bool) {
	var t TraceID
	if len(s) != 32 {
		return t, false
	}
	if _, err := hex.Decode(t[:], []byte(s)); err != nil || t.IsZero() {
		return TraceID{}, false
	}
	return t, true
}

// FlagSampled is the W3C trace-flags bit marking a sampled trace.
const FlagSampled = 0x01

// SpanContext identifies one span within one trace — what travels on
// the wire in a traceparent header.
type SpanContext struct {
	TraceID TraceID
	SpanID  SpanID
	Flags   byte
}

// Valid reports whether both IDs are non-zero.
func (sc SpanContext) Valid() bool { return !sc.TraceID.IsZero() && !sc.SpanID.IsZero() }

// Traceparent renders the context as a W3C traceparent header value:
// version 00, dash-separated lowercase hex.
func (sc SpanContext) Traceparent() string {
	return fmt.Sprintf("00-%s-%s-%02x", sc.TraceID, sc.SpanID, sc.Flags)
}

// ParseTraceparent parses a W3C traceparent header value:
// "<2 hex version>-<32 hex trace-id>-<16 hex parent-id>-<2 hex flags>".
// Per the spec, version ff is invalid, version 00 must be exactly that
// shape, and future versions are accepted if they start with it (extra
// version-specific fields after the flags are ignored). ok is false
// for anything else, including all-zero IDs.
func ParseTraceparent(s string) (SpanContext, bool) {
	var sc SpanContext
	if len(s) < 55 {
		return sc, false
	}
	var ver byte
	if !hexByte(s[0:2], &ver) || ver == 0xff {
		return sc, false
	}
	if ver == 0 && len(s) != 55 {
		return sc, false
	}
	if ver != 0 && len(s) > 55 && s[55] != '-' {
		return sc, false
	}
	if s[2] != '-' || s[35] != '-' || s[52] != '-' {
		return sc, false
	}
	if _, err := hex.Decode(sc.TraceID[:], []byte(s[3:35])); err != nil {
		return SpanContext{}, false
	}
	if _, err := hex.Decode(sc.SpanID[:], []byte(s[36:52])); err != nil {
		return SpanContext{}, false
	}
	if !hexByte(s[53:55], &sc.Flags) {
		return SpanContext{}, false
	}
	if !sc.Valid() {
		return SpanContext{}, false
	}
	return sc, true
}

// hexByte decodes exactly two lowercase-or-uppercase hex digits.
func hexByte(s string, out *byte) bool {
	var b [1]byte
	if _, err := hex.Decode(b[:], []byte(s)); err != nil {
		return false
	}
	*out = b[0]
	return true
}

// TraceSpan is one timed operation inside a request trace (limiter
// wait, store acquire, peer fetch, synth init, synth stream, ...): a
// descendant of the request span at any depth. Times are offsets from
// the request's start so a trace is self-contained.
type TraceSpan struct {
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	DurNs   int64  `json:"dur_ns"`
}

// RequestTrace is one completed request's immutable record: identity,
// HTTP outcome, and the timed spans in start order. It is what
// TraceRing stores and GET /debug/requests serves.
type RequestTrace struct {
	TraceID string      `json:"trace_id"`
	SpanID  string      `json:"span_id"`
	Parent  string      `json:"parent_span_id,omitempty"`
	Name    string      `json:"name"`
	Method  string      `json:"method,omitempty"`
	Route   string      `json:"route,omitempty"`
	Peer    bool        `json:"peer,omitempty"`
	Status  int         `json:"status,omitempty"`
	Bytes   int64       `json:"bytes,omitempty"`
	Start   time.Time   `json:"start"`
	DurNs   int64       `json:"dur_ns"`
	Spans   []TraceSpan `json:"spans,omitempty"`
}

// StartRequest opens a request span named name as a child of parent:
// a valid parent trace ID is adopted (the request joins the caller's
// trace) and its span ID recorded as the parent span; a zero parent
// starts a fresh trace. The request span never attaches to a span
// already carried by ctx — each request is the root of its own tree,
// so a long-lived server span does not accumulate every request ever
// served. Spans started under the returned context carry the trace ID.
func StartRequest(ctx context.Context, name string, parent SpanContext) (context.Context, *Span) {
	if ctx == nil {
		ctx = context.Background()
	}
	s := &Span{
		name:    name,
		start:   time.Now(),
		traceID: parent.TraceID,
		spanID:  NewSpanID(),
		parent:  parent.SpanID,
		flags:   parent.Flags | FlagSampled,
	}
	if s.traceID.IsZero() {
		s.traceID = NewTraceID()
	}
	return context.WithValue(ctx, spanKey{}, s), s
}

// TraceID returns the span's trace identifier (zero outside a request).
func (s *Span) TraceID() TraceID {
	if s == nil {
		return TraceID{}
	}
	return s.traceID
}

// ChildContext mints a span context for one outbound call: same trace,
// fresh span ID. Its Traceparent() is what goes on the wire, so the
// remote hop records this request's trace ID and a parent span that is
// unique per outbound call. Outside a request it is invalid.
func (s *Span) ChildContext() SpanContext {
	if s == nil || s.traceID.IsZero() {
		return SpanContext{}
	}
	return SpanContext{TraceID: s.traceID, SpanID: NewSpanID(), Flags: s.flags}
}

// SetHTTP attaches the request's HTTP identity: method, route (URL
// path), and whether the caller is a cluster peer.
func (s *Span) SetHTTP(method, route string, peer bool) {
	if s == nil {
		return
	}
	s.method, s.route, s.peer = method, route, peer
}

// Finish ends the span with the request's outcome and returns the
// immutable completed record: every ended descendant flattened to a
// TraceSpan in start order, offsets relative to this span's start. A
// span that never ended records nothing. A nil span returns nil.
func (s *Span) Finish(status int, bytes int64) *RequestTrace {
	if s == nil {
		return nil
	}
	s.End()
	spans := s.appendEnded(nil, s.start)
	slices.SortStableFunc(spans, func(a, b TraceSpan) int { return cmp.Compare(a.StartNs, b.StartNs) })
	rt := &RequestTrace{
		TraceID: s.traceID.String(),
		SpanID:  s.spanID.String(),
		Name:    s.name,
		Method:  s.method,
		Route:   s.route,
		Peer:    s.peer,
		Status:  status,
		Bytes:   bytes,
		Start:   s.start,
		DurNs:   s.Wall().Nanoseconds(),
		Spans:   spans,
	}
	if !s.parent.IsZero() {
		rt.Parent = s.parent.String()
	}
	return rt
}

// appendEnded appends s's ended descendants in depth-first order.
func (s *Span) appendEnded(out []TraceSpan, root time.Time) []TraceSpan {
	s.mu.Lock()
	children := s.children // append-only: the prefix is stable
	s.mu.Unlock()
	for _, c := range children {
		c.mu.Lock()
		ended, wall := c.ended, c.wall
		c.mu.Unlock()
		if ended {
			out = append(out, TraceSpan{Name: c.name, StartNs: c.start.Sub(root).Nanoseconds(), DurNs: wall.Nanoseconds()})
		}
		out = c.appendEnded(out, root)
	}
	return out
}

// TraceRing is a bounded lock-free ring buffer of completed request
// traces: Put is one atomic add plus one atomic pointer store, so the
// request path never contends on a lock, and the newest cap(ring)
// traces win. Readers get point-in-time snapshots.
type TraceRing struct {
	slots []atomic.Pointer[RequestTrace]
	next  atomic.Uint64
}

// DefaultTraceRingSize is the ring capacity when none is configured.
const DefaultTraceRingSize = 256

// NewTraceRing returns a ring keeping the most recent size traces
// (size <= 0 selects DefaultTraceRingSize).
func NewTraceRing(size int) *TraceRing {
	if size <= 0 {
		size = DefaultTraceRingSize
	}
	return &TraceRing{slots: make([]atomic.Pointer[RequestTrace], size)}
}

// Cap returns the ring's capacity.
func (r *TraceRing) Cap() int { return len(r.slots) }

// Put records one completed trace, overwriting the oldest slot once
// the ring is full. nil traces are ignored.
func (r *TraceRing) Put(t *RequestTrace) {
	if t == nil {
		return
	}
	i := r.next.Add(1) - 1
	r.slots[i%uint64(len(r.slots))].Store(t)
}

// Recent returns up to n completed traces, newest first. Concurrent
// writers may race individual slots; the result is always a consistent
// set of completed traces, just not necessarily a gap-free suffix.
func (r *TraceRing) Recent(n int) []*RequestTrace {
	total := r.next.Load()
	if n <= 0 || total == 0 {
		return nil
	}
	if uint64(n) > total {
		n = int(total)
	}
	if n > len(r.slots) {
		n = len(r.slots)
	}
	out := make([]*RequestTrace, 0, n)
	for k := 0; k < n; k++ {
		i := total - 1 - uint64(k)
		if t := r.slots[i%uint64(len(r.slots))].Load(); t != nil {
			out = append(out, t)
		}
	}
	return out
}
