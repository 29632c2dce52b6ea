package synth

import (
	"sync"

	"repro/internal/markov"
	"repro/internal/profile"
	"repro/internal/trace"
)

// leafStream adapts one leafGen to chunked consumption: the merge loop
// iterates over cur, a flat slice of pre-generated requests, instead of
// generating per request. In parallel mode the stream double-buffers:
// while the merge consumes cur (one slab), a refill worker fills the
// other slab and commits it through next.
type leafStream struct {
	// gen is nil for eager streams: a leaf whose full output fits one
	// chunk is generated at construction time by a stack-local generator
	// and only its requests are retained. Most leaves of
	// interval-partitioned profiles are eager, which keeps the surviving
	// per-synthesis state at one exact-sized arena region per leaf.
	gen *leafGen

	cur []trace.Request
	pos int

	// slabs are the chunk buffers of a leaf longer than one chunk:
	// slabs[0] is its region of the shared arena; slabs[1] is allocated
	// only in parallel mode. filling is the slab index the outstanding
	// refill writes into (owned by the worker between enqueue and
	// commit).
	slabs   [2][]trace.Request
	filling int

	// next transfers a filled chunk from the refill worker back to the
	// merge loop; its capacity of one and the at-most-one-outstanding-
	// refill invariant guarantee the worker never blocks sending.
	next chan []trace.Request

	// eof marks that the generator has been fully drained into chunks:
	// no refill is outstanding and none may be scheduled.
	eof bool
}

// refillJob asks a worker to fill slabs[slab] of one stream.
type refillJob struct {
	s    *leafStream
	slab int
}

// batchMerger merges per-leaf chunk streams with trace.LoserTree. With
// workers > 1 the next chunk of every stream is pre-generated
// concurrently with the merge; every leaf draws from its own forked RNG
// and chunks are committed in a fixed per-stream order, so the emitted
// stream is bit-identical to the serial one.
type batchMerger struct {
	streams []*leafStream
	lt      *trace.LoserTree
	shift   uint64
	live    int

	// pops, delayCalls and delayCycles are merge-loop-local stats
	// (single consumer goroutine, no atomics) flushed to the registry
	// exactly once by finish.
	pops        uint64
	delayCalls  uint64
	delayCycles uint64

	// jobs feeds refill requests to the worker pool; nil in serial mode.
	// finishOnce flushes stats and closes jobs exactly once — when the
	// last stream drains, or from Close for abandoned synthesizers.
	jobs       chan refillJob
	finishOnce sync.Once
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
	s.cur = buf[:g.fill(buf)]
	if g.exhausted {
		s.eof = true
		return
	}
	s.gen = new(leafGen)
	*s.gen = g
	s.slabs[0] = buf
}

func newBatchMerger(streams []*leafStream, cfg config) *batchMerger {
	m := &batchMerger{streams: streams}
	times := make([]uint64, len(streams))
	done := make([]bool, len(streams))
	pending := 0
	for i, s := range streams {
		if len(s.cur) == 0 {
			done[i] = true
		} else {
			times[i] = s.cur[0].Time
			m.live++
		}
		if !s.eof {
			pending++
		}
	}
	m.lt = trace.NewLoserTree(times, done)

	if cfg.workers > 1 && pending > 0 {
		m.jobs = make(chan refillJob, len(streams))
		w := cfg.workers
		if w > pending {
			w = pending
		}
		for i := 0; i < w; i++ {
			go func() {
				for j := range m.jobs {
					n := j.s.gen.fill(j.s.slabs[j.slab])
					j.s.next <- j.s.slabs[j.slab][:n]
				}
			}()
		}
		// Pre-schedule every unfinished stream's next chunk so it is
		// generated concurrently with the merge. A stream that needs a
		// second chunk necessarily had a full first one, so slabs[0] is
		// a full chunk and double-buffering alternates two of them.
		for _, s := range streams {
			if s.eof {
				continue
			}
			s.next = make(chan []trace.Request, 1)
			s.slabs[1] = make([]trace.Request, batch)
			s.filling = 1
			m.jobs <- refillJob{s: s, slab: 1}
		}
	}
	if m.live == 0 {
		m.close()
	}
	return m
}

// commitChunk installs a chunk received from a refill worker as the
// stream's current one and, unless the generator is now drained,
// schedules the next refill into the slab the chunk replaced. Reading
// gen.exhausted is safe: the worker's send on next happens after its
// fill, and no refill is outstanding once the chunk is received.
func (m *batchMerger) commitChunk(s *leafStream, chunk []trace.Request) {
	s.cur, s.pos = chunk, 0
	if s.gen.exhausted {
		s.eof = true
		return
	}
	s.filling = 1 - s.filling
	m.jobs <- refillJob{s: s, slab: s.filling}
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
	} else if m.refill(s) {
		m.lt.Replace(s.cur[0].Time)
	} else {
		m.lt.Remove()
		m.live--
		if m.live == 0 {
			m.close()
		}
	}
	return req, true
}

// refill obtains the stream's next chunk, returning false when the
// stream is exhausted.
func (m *batchMerger) refill(s *leafStream) bool {
	if s.eof {
		return false
	}
	if m.jobs != nil {
		m.commitChunk(s, <-s.next)
	} else {
		n := s.gen.fill(s.slabs[0])
		s.cur, s.pos = s.slabs[0][:n], 0
		s.eof = s.gen.exhausted
	}
	return len(s.cur) > 0
}

// Delay adds backpressure delay to all not-yet-emitted requests.
func (m *batchMerger) Delay(cycles uint64) {
	m.shift += cycles
	m.delayCalls++
	m.delayCycles += cycles
}

// close releases the refill workers and flushes the merge-loop stats to
// the registry. Safe because no stream has an outstanding refill when
// it is called: drained streams are eof, and Close's contract is that
// the caller has stopped calling Next.
func (m *batchMerger) close() {
	m.finishOnce.Do(func() {
		mRequests.Add(m.pops)
		mDelayCalls.Add(m.delayCalls)
		mDelayCycles.Add(m.delayCycles)
		if m.jobs != nil {
			close(m.jobs)
		}
	})
}

// Close releases the refill workers of an abandoned parallel merger.
func (m *batchMerger) Close() { m.close() }
