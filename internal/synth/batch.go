package synth

import (
	"repro/internal/markov"
	"repro/internal/profile"
	"repro/internal/trace"
)

// leafStream adapts one leafGen to chunked consumption: the merge loop
// iterates over cur, a flat slice of pre-generated requests, instead of
// generating per request.
type leafStream struct {
	// gen is nil for eager streams: a leaf whose full output fits one
	// chunk is generated at construction time by a stack-local generator
	// and only its requests are retained. Most leaves of
	// interval-partitioned profiles are eager, which keeps the surviving
	// per-synthesis state at one exact-sized arena region per leaf.
	gen *leafGen

	// cur is the filled prefix of the leaf's region of the shared
	// arena, capped at the region's end; pos is the next request to
	// emit. A leaf longer than one chunk refills the region
	// (cur[:cap(cur)]) in place, on the consumer's goroutine, when the
	// merge has emitted all of cur.
	cur []trace.Request
	pos int
}

// batchMerger merges per-leaf chunk streams with trace.LoserTree.
type batchMerger struct {
	streams []*leafStream
	lt      *trace.LoserTree
	shift   uint64
	live    int

	// pops, delayCalls and delayCycles are merge-loop-local stats
	// (single consumer goroutine, no atomics) flushed to the registry
	// exactly once by finish — when the last stream drains, or from
	// Close for an abandoned synthesizer.
	pops        uint64
	delayCalls  uint64
	delayCycles uint64
	finished    bool
}

// init builds the stream for one non-empty leaf in place — generator
// construction plus the first chunk fill into buf, the leaf's region of
// the shared arena, holding min(Count, batch) requests. It does all the
// per-leaf setup work and touches nothing shared (arena regions are
// disjoint), so NewFrom fans calls to it across workers. The generator
// lives on the stack; only a leaf that is not exhausted by the first
// fill keeps a heap copy of it, and refills into the same region. l may
// be a stack-transient view over a flat buffer: nothing retains it past
// this call (leafGen copies the scalars and slice views it needs).
func (s *leafStream) init(l *profile.Leaf, seed uint64, buf []trace.Request, ar *markov.Arena) {
	var g leafGen
	g.init(l, seed, ar)
	s.cur = buf[:g.fill(buf):len(buf)]
	if g.exhausted {
		return
	}
	s.gen = new(leafGen)
	*s.gen = g
}

func newBatchMerger(streams []*leafStream) *batchMerger {
	m := &batchMerger{streams: streams}
	times := make([]uint64, len(streams))
	done := make([]bool, len(streams))
	for i, s := range streams {
		if len(s.cur) == 0 {
			done[i] = true
		} else {
			times[i] = s.cur[0].Time
			m.live++
		}
	}
	m.lt = trace.NewLoserTree(times, done)
	if m.live == 0 {
		m.finish()
	}
	return m
}

// Next returns the globally next request.
func (m *batchMerger) Next() (trace.Request, bool) {
	w := m.lt.Winner()
	if w < 0 {
		return trace.Request{}, false
	}
	s := m.streams[w]
	req := s.cur[s.pos]
	req.Time += m.shift
	s.pos++
	m.pops++
	if s.pos < len(s.cur) {
		m.lt.Replace(s.cur[s.pos].Time)
	} else if s.refill() {
		m.lt.Replace(s.cur[0].Time)
	} else {
		m.lt.Remove()
		m.live--
		if m.live == 0 {
			m.finish()
		}
	}
	return req, true
}

// refill generates the stream's next chunk into its arena region,
// returning false when the stream is exhausted.
func (s *leafStream) refill() bool {
	if s.gen == nil {
		return false
	}
	buf := s.cur[:cap(s.cur)]
	s.cur, s.pos = buf[:s.gen.fill(buf)], 0
	if s.gen.exhausted {
		s.gen = nil
	}
	return len(s.cur) > 0
}

// Delay adds backpressure delay to all not-yet-emitted requests.
func (m *batchMerger) Delay(cycles uint64) {
	m.shift += cycles
	m.delayCalls++
	m.delayCycles += cycles
}

// finish flushes the merge-loop stats to the registry, once.
func (m *batchMerger) finish() {
	if m.finished {
		return
	}
	m.finished = true
	mRequests.Add(m.pops)
	mDelayCalls.Add(m.delayCalls)
	mDelayCycles.Add(m.delayCycles)
}
