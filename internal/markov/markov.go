// Package markov implements the McC model of Mocktails §III-B: each memory
// request feature (delta time, stride, operation, size) within a partition
// is modelled either by a Constant, when the training sequence shows no
// variability, or by a first-order Markov chain over the observed values.
//
// Generation uses strict convergence (Mocktails §III-C, following STM and
// WEST): every observed transition carries a count, and each time a
// transition is taken its remaining count is decremented, so the synthetic
// sequence reproduces the exact multiset of transitions where possible.
package markov

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/stats"
)

// Edge is one outgoing Markov transition with its training count.
type Edge struct {
	To int64
	N  uint32
}

// Row holds the outgoing transitions of one state, sorted by To for
// deterministic iteration and serialisation. Rows are a construction
// convenience keyed by value (see FromRows and RowAt); the model itself
// stores the table over dense value indices.
type Row struct {
	From  int64
	Edges []Edge
}

// Model is a McC ("Markov chain or Constant") model of one feature.
// The zero value is an empty model; build one with Fit or FromRows.
//
// The transition table is stored over dense value indices, as flat
// parallel arrays. Vals holds the model's distinct values sorted
// ascending — every source, every target and the initial value — and a
// chain state is an index into it. Row k, value k's outgoing edges,
// occupies To[RowOff[k]:RowOff[k+1]] / N[RowOff[k]:RowOff[k+1]], with
// To holding value indices sorted ascending; a value that never occurs
// as a source has an empty row. Generation therefore indexes every
// table directly and never searches for a value. The layout is what
// the flat profile encoding maps directly from disk (package profile),
// and what the Generator binds to without per-row allocations. RowSum
// and ValN are derived tables (see Finish): callers that fill
// Vals/RowOff/To/N by hand must call Finish before generating.
type Model struct {
	// Constant is true when the feature never changes value in the
	// training sequence; Value holds that value.
	Constant bool
	Value    int64

	// Initial is the first value of the training sequence; generation
	// starts here. It is always one of Vals.
	Initial int64

	// Vals holds the distinct values, sorted ascending; RowOff (len
	// len(Vals)+1) delimits each value's edge span in To and N.
	Vals   []int64
	RowOff []uint32
	To     []uint32
	N      []uint32

	// RowSum[k] is the total training count of row k — the static
	// fallback distribution's normaliser. ValN[k] is value k's
	// multiplicity in the model's value multiset (its in-degree, plus
	// one for the initial value; zero for a value that is only ever a
	// source); strict convergence replays exactly this multiset. Both
	// are derived by Finish.
	RowSum []uint64
	ValN   []uint32
}

// Fit builds a McC model from a training sequence. An empty sequence
// yields a constant-zero model; a sequence whose values are all equal
// yields a Constant model; otherwise a Markov chain with per-transition
// counts is built.
func Fit(seq []int64) Model {
	if len(seq) == 0 {
		return Model{Constant: true}
	}
	constant := true
	for _, v := range seq[1:] {
		if v != seq[0] {
			constant = false
			break
		}
	}
	if constant {
		return Model{Constant: true, Value: seq[0], Initial: seq[0]}
	}
	// Dense-rank the sequence with one sort of its values, then sort
	// the transitions as packed rankFrom<<32|rankTo keys: the sorted
	// keys coalesce, run by run, into the row-major table with rows
	// and edges already in order.
	sorted := slices.Clone(seq)
	slices.Sort(sorted)
	m := Model{Initial: seq[0], Vals: slices.Clone(slices.Compact(sorted))}
	rank := func(v int64) uint64 {
		i, _ := slices.BinarySearch(m.Vals, v)
		return uint64(i)
	}
	keys := make([]uint64, len(seq)-1)
	prev := rank(seq[0])
	for i, v := range seq[1:] {
		r := rank(v)
		keys[i] = prev<<32 | r
		prev = r
	}
	slices.Sort(keys)
	edges := 1
	for i := 1; i < len(keys); i++ {
		if keys[i] != keys[i-1] {
			edges++
		}
	}
	m.RowOff = make([]uint32, len(m.Vals)+1)
	m.To = make([]uint32, 0, edges)
	m.N = make([]uint32, 0, edges)
	for i := 0; i < len(keys); {
		j := i + 1
		for j < len(keys) && keys[j] == keys[i] {
			j++
		}
		m.RowOff[keys[i]>>32+1]++
		m.To = append(m.To, uint32(keys[i]))
		m.N = append(m.N, uint32(j-i))
		i = j
	}
	for k := range m.Vals {
		m.RowOff[k+1] += m.RowOff[k]
	}
	m.Finish()
	return m
}

// FromRows builds a model from value-keyed rows — the shape
// construction-time callers like the privacy noising pass naturally
// produce — and derives the generation tables. Rows must be sorted by
// From with no From repeated, and each row's edges sorted by To with no
// To repeated; the profile codec checks this before calling. A row with
// no edges is the same as no row at all.
func FromRows(initial int64, rows []Row) Model {
	edges := 0
	for i := range rows {
		edges += len(rows[i].Edges)
	}
	vals := make([]int64, 0, 1+len(rows)+edges)
	vals = append(vals, initial)
	for i := range rows {
		vals = append(vals, rows[i].From)
		for _, e := range rows[i].Edges {
			vals = append(vals, e.To)
		}
	}
	slices.Sort(vals)
	m := Model{Initial: initial, Vals: slices.Clip(slices.Compact(vals))}
	m.RowOff = make([]uint32, len(m.Vals)+1)
	m.To = make([]uint32, 0, edges)
	m.N = make([]uint32, 0, edges)
	r := 0
	for k, v := range m.Vals {
		m.RowOff[k] = uint32(len(m.To))
		if r < len(rows) && rows[r].From == v {
			t := 0 // targets ascend, so each search starts past the last
			for _, e := range rows[r].Edges {
				i, _ := slices.BinarySearch(m.Vals[t:], e.To)
				t += i
				m.To = append(m.To, uint32(t))
				m.N = append(m.N, e.N)
			}
			r++
		}
	}
	m.RowOff[len(m.Vals)] = uint32(len(m.To))
	m.Finish()
	return m
}

// Finish derives the generation tables (RowSum, ValN) from the
// transition table in one linear pass. Fit and FromRows return finished
// models; callers that fill Vals/RowOff/To/N directly — hand-built test
// models — must call Finish before generating, and again after mutating
// edge counts.
func (m *Model) Finish() {
	if m.Constant {
		m.RowSum, m.ValN = nil, nil
		return
	}
	m.RowSum = make([]uint64, len(m.Vals))
	m.ValN = make([]uint32, len(m.Vals))
	for k := range m.Vals {
		var s uint64
		for j := m.RowOff[k]; j < m.RowOff[k+1]; j++ {
			s += uint64(m.N[j])
			m.ValN[m.To[j]] += m.N[j]
		}
		m.RowSum[k] = s
	}
	if i := m.InitialIndex(); i >= 0 {
		m.ValN[i]++
	}
}

// InitialIndex returns the index of Initial in Vals, or -1 when it is
// missing (never for a model built by Fit or FromRows; the flat codec
// rejects such models on open).
func (m *Model) InitialIndex() int {
	if i, ok := slices.BinarySearch(m.Vals, m.Initial); ok {
		return i
	}
	return -1
}

// States returns the number of states with outgoing transitions (0 for
// a Constant model).
func (m *Model) States() int {
	n := 0
	for k := range m.Vals {
		if m.RowOff[k] != m.RowOff[k+1] {
			n++
		}
	}
	return n
}

// Transitions returns the total training transition count.
func (m *Model) Transitions() int {
	n := 0
	for _, c := range m.N {
		n += int(c)
	}
	return n
}

// String summarises the model.
func (m *Model) String() string {
	if m.Constant {
		return fmt.Sprintf("Constant(%d)", m.Value)
	}
	return fmt.Sprintf("Markov(states=%d, transitions=%d, initial=%d)", m.States(), m.Transitions(), m.Initial)
}

// RowAt materialises value k's row keyed by value; for iteration
// convenience in cold paths (tests, codecs) — hot paths index the flat
// arrays.
func (m *Model) RowAt(k int) Row {
	lo, hi := m.RowOff[k], m.RowOff[k+1]
	edges := make([]Edge, hi-lo)
	for j := range edges {
		edges[j] = Edge{To: m.Vals[m.To[lo+uint32(j)]], N: m.N[lo+uint32(j)]}
	}
	return Row{From: m.Vals[k], Edges: edges}
}

// fenwickMin is the distribution size above which the sampling kernels
// switch from a cached-total linear scan to a Fenwick-tree (mutable
// counts) or prefix-sum (static counts) binary search. Small
// distributions stay linear: the scan fits in a cache line and beats the
// tree's pointer arithmetic. Either path selects the same element for
// the same RNG draw, so the cutoff never changes generated streams.
const fenwickMin = 16

// Arena is scratch memory a Generator's mutable per-stream state is
// carved from. A synthesis run sizes one arena for all its generators
// (see Model.ArenaSize), so generator setup performs no allocations at
// all; Init with a nil arena allocates a private one. Prior contents
// are irrelevant — InitArena fully overwrites what it takes.
type Arena struct {
	U32 []uint32
	U64 []uint64
}

func (a *Arena) take32(n int) []uint32 {
	s := a.U32[:n:n]
	a.U32 = a.U32[n:]
	return s
}

func (a *Arena) take64(n int) []uint64 {
	s := a.U64[:n:n]
	a.U64 = a.U64[n:]
	return s
}

// ArenaSize returns how many uint32 and uint64 arena elements a
// generator for m consumes: the strict-convergence remaining counts,
// cached row totals, and — for rows and value sets at or above
// fenwickMin — the Fenwick trees and static prefix sums.
func (m *Model) ArenaSize() (n32, n64 int) {
	if m.Constant {
		return 0, 0
	}
	n := len(m.Vals)
	n32 = len(m.To) + n
	n64 = n
	maxRow, bigEdges, bigRows := m.bigRows()
	if maxRow >= fenwickMin {
		n32 += n                    // fenIdx
		n64 += 2*bigEdges + bigRows // per big row: tree (e+1) + prefix sums (e)
	}
	if n >= fenwickMin {
		n64 += n + 1
	}
	return n32, n64
}

// bigRows returns the longest row's edge count, and the edges and rows
// of the rows at or above fenwickMin.
func (m *Model) bigRows() (maxRow, bigEdges, bigRows int) {
	for k := range m.Vals {
		e := int(m.RowOff[k+1] - m.RowOff[k])
		maxRow = max(maxRow, e)
		if e >= fenwickMin {
			bigEdges += e
			bigRows++
		}
	}
	return maxRow, bigEdges, bigRows
}

// noFen marks a row without a Fenwick block in Generator.fenIdx.
const noFen = ^uint32(0)

// Generator produces a value sequence from a Model under strict
// convergence: per-transition counts steer the ordering, and per-value
// remaining counts guarantee that generating exactly the training length
// reproduces the exact multiset of values — the property the paper relies
// on ("strict convergence ensures that only two 128 sizes and ten 64
// sizes are generated"). A Generator is single-use; create a fresh one
// per synthesis run.
//
// A Generator holds slice views of the model's immutable tables (not a
// *Model — the model struct handed to Init may be a transient view over
// a flat profile buffer) plus mutable strict-convergence state carved
// from an Arena. Its state is a value index, so a draw indexes the row
// and value tables directly. Sampling is O(1) amortised per draw for
// small rows and O(log n) for large ones.
type Generator struct {
	// rng is held by value: a Generator owns its RNG stream outright
	// (every caller hands it a dedicated fork), and a self-contained
	// struct lets short-lived generators live on the stack.
	rng     stats.RNG
	state   uint32
	started bool

	constant bool
	value    int64
	// initial is the initial value's index.
	initial uint32

	// Immutable model views (shared with the Model or the flat buffer
	// behind it): the sorted values, edge spans, target indices,
	// training counts and row totals.
	values    []int64
	mOff      []uint32
	to        []uint32
	eN        []uint32
	fallTotal []uint64

	// Mutable strict-convergence state, arena-carved. rem holds each
	// edge's remaining count (edge-major, spans delimited by mOff);
	// rowTotal caches each row's remaining sum. Rows with >= fenwickMin
	// edges keep their mutable counts in a Fenwick tree and their static
	// distribution as inclusive prefix sums, packed per row into fenData
	// at offset fenIdx[row] (noFen for small rows); fenIdx is nil when
	// no row is that large.
	rem      []uint32
	rowTotal []uint64
	fenIdx   []uint32
	fenData  []uint64

	// Value-level strict convergence: how many emissions of each value
	// remain, their total, and — for >= fenwickMin values — a Fenwick
	// tree over the remaining counts.
	valueRem []uint32
	valueFen []uint64
	remTotal uint64
}

// NewGenerator returns a generator for m seeded with rng's current
// state; the generator draws from its own copy of rng (see Init).
func NewGenerator(m *Model, rng *stats.RNG) *Generator {
	g := new(Generator)
	g.Init(m, rng)
	return g
}

// Init prepares g to generate from m with a private arena; see
// InitArena.
func (g *Generator) Init(m *Model, rng *stats.RNG) { g.InitArena(m, rng, nil) }

// InitArena prepares g to generate from m, copying rng's state as its
// private draw stream and replacing any previous state. The mutable
// per-stream tables are carved from ar — callers that build many
// generators (four per leaf per synthesis) size one arena for all of
// them and pay zero allocations here; a nil ar allocates a private
// arena. g retains m's table slices but not m itself, so m may be a
// stack-transient view as long as the arrays it points at outlive g.
func (g *Generator) InitArena(m *Model, rng *stats.RNG, ar *Arena) {
	*g = Generator{rng: *rng}
	if m.Constant {
		g.constant, g.value = true, m.Value
		return
	}
	init := m.InitialIndex()
	if init < 0 {
		// Only a hand-built model can lack its initial value; repeat it.
		g.constant, g.value = true, m.Initial
		return
	}
	if ar == nil {
		n32, n64 := m.ArenaSize()
		ar = &Arena{U32: make([]uint32, n32), U64: make([]uint64, n64)}
	}
	n := len(m.Vals)
	g.initial = uint32(init)
	g.values, g.mOff, g.to, g.eN = m.Vals, m.RowOff, m.To, m.N
	g.fallTotal = m.RowSum

	g.rem = ar.take32(len(m.To))
	copy(g.rem, m.N)
	g.valueRem = ar.take32(n)
	copy(g.valueRem, m.ValN)
	g.rowTotal = ar.take64(n)
	copy(g.rowTotal, m.RowSum)

	if maxRow, bigEdges, bigRows := m.bigRows(); maxRow >= fenwickMin {
		g.fenIdx = ar.take32(n)
		g.fenData = ar.take64(2*bigEdges + bigRows)
		base := 0
		for k := 0; k < n; k++ {
			lo, hi := m.RowOff[k], m.RowOff[k+1]
			e := int(hi - lo)
			if e < fenwickMin {
				g.fenIdx[k] = noFen
				continue
			}
			g.fenIdx[k] = uint32(base)
			stats.FenBuild(g.fenData[base:base+e+1], m.N[lo:hi])
			cum := g.fenData[base+e+1 : base+2*e+1]
			var s uint64
			for j := 0; j < e; j++ {
				s += uint64(m.N[lo+uint32(j)])
				cum[j] = s
			}
			base += 2*e + 1
		}
	}
	for _, c := range g.valueRem {
		g.remTotal += uint64(c)
	}
	if n >= fenwickMin {
		g.valueFen = ar.take64(n + 1)
		stats.FenBuild(g.valueFen, g.valueRem)
	}
}

// takeValue consumes one remaining emission of values[i].
func (g *Generator) takeValue(i int) {
	g.valueRem[i]--
	g.remTotal--
	if g.valueFen != nil {
		stats.FenDec(g.valueFen, i)
	}
}

// consumeValue decrements the remaining count of value k, redirecting
// to a value that still has emissions left when k is exhausted. Once
// the training length has been fully generated it passes values
// through unchanged.
func (g *Generator) consumeValue(k uint32) uint32 {
	if g.remTotal == 0 {
		return k
	}
	if g.valueRem[k] > 0 {
		g.takeValue(int(k))
		return k
	}
	// Redirect: draw among the values that still need emitting, weighted
	// by their remaining counts.
	pick := g.rng.Uint64n(g.remTotal)
	if g.valueFen != nil {
		j := stats.FenFind(g.valueFen, pick)
		g.takeValue(j)
		return uint32(j)
	}
	for j, n := range g.valueRem {
		if pick < uint64(n) {
			g.takeValue(j)
			return uint32(j)
		}
		pick -= uint64(n)
	}
	return k
}

// Next returns the next value of the sequence. The first call returns the
// model's initial value; later calls take one Markov transition (or repeat
// the constant).
func (g *Generator) Next() int64 {
	if g.constant {
		return g.value
	}
	if !g.started {
		g.started = true
		g.state = g.consumeValue(g.initial)
	} else {
		g.state = g.consumeValue(g.step(g.state))
	}
	return g.values[g.state]
}

// step chooses the next state from row k. It first draws from the
// remaining (strict-convergence) counts; if the row is exhausted it
// falls back to the original training distribution, and if the row is
// empty — a terminal training state — it restarts from the initial
// value's row.
func (g *Generator) step(k uint32) uint32 {
	lo, hi := g.mOff[k], g.mOff[k+1]
	if lo == hi {
		k = g.initial
		lo, hi = g.mOff[k], g.mOff[k+1]
		if lo == hi {
			return k
		}
	}
	e := int(hi - lo)
	if total := g.rowTotal[k]; total > 0 {
		pick := g.rng.Uint64n(total)
		g.rowTotal[k] = total - 1
		if g.fenIdx != nil {
			if base := g.fenIdx[k]; base != noFen {
				tree := g.fenData[base : int(base)+e+1]
				j := stats.FenFind(tree, pick)
				if j >= e {
					// Reachable only when a stored RowSum overstates the
					// actual counts (corrupted or hand-built model);
					// clamp instead of indexing past the row.
					j = e - 1
				}
				stats.FenDec(tree, j)
				return g.to[lo+uint32(j)]
			}
		}
		rem := g.rem[lo:hi]
		for j, n := range rem {
			if pick < uint64(n) {
				rem[j]--
				return g.to[lo+uint32(j)]
			}
			pick -= uint64(n)
		}
	}
	// Row exhausted: fall back to the original distribution.
	total := g.fallTotal[k]
	if total == 0 {
		// A row whose edges all carry zero counts (possible only in a
		// hand-built or corrupted model — Fit never emits one) has no
		// distribution to draw from; take its first edge
		// deterministically rather than divide by zero.
		return g.to[lo]
	}
	pick := g.rng.Uint64n(total)
	if g.fenIdx != nil {
		if base := g.fenIdx[k]; base != noFen {
			cum := g.fenData[int(base)+e+1 : int(base)+2*e+1]
			j := sort.Search(len(cum), func(i int) bool { return cum[i] > pick })
			if j >= e {
				j = e - 1
			}
			return g.to[lo+uint32(j)]
		}
	}
	for j := lo; j < hi; j++ {
		if pick < uint64(g.eN[j]) {
			return g.to[j]
		}
		pick -= uint64(g.eN[j])
	}
	return g.to[hi-1]
}
