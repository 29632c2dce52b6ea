package markov

import (
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

// oldGenerator is a frozen copy of the pre-optimisation Generator (linear
// weighted scans, per-draw total re-summation, nested row structures). The
// optimised kernels must stay draw-for-draw identical to it: both consume
// one RNG value per weighted choice and select the element a left-to-right
// scan would, so any divergence is a regression in the binary-search/
// Fenwick/dense-table rewrite. newOldGenerator feeds the frozen
// implementation the value-keyed rows it traversed, rebuilt from today's
// dense model.
type oldGenerator struct {
	m         *Model
	rows      []Row
	rng       *stats.RNG
	state     int64
	started   bool
	remaining [][]uint32

	values   []int64
	valueRem []uint32
	remTotal uint64
}

// valueRows returns m's non-empty rows keyed by value, sorted by From:
// the nested shape the generators before the dense layout traversed.
func valueRows(m *Model) []Row {
	var rows []Row
	for k := range m.Vals {
		if m.RowOff[k] != m.RowOff[k+1] {
			rows = append(rows, m.RowAt(k))
		}
	}
	return rows
}

// rowOf binary-searches value-keyed rows for from, or -1.
func rowOf(rows []Row, from int64) int {
	i := sort.Search(len(rows), func(i int) bool { return rows[i].From >= from })
	if i < len(rows) && rows[i].From == from {
		return i
	}
	return -1
}

func newOldGenerator(m *Model, rng *stats.RNG) *oldGenerator {
	g := &oldGenerator{m: m, rng: rng}
	if !m.Constant {
		g.rows = valueRows(m)
		g.remaining = make([][]uint32, len(g.rows))
		for i, r := range g.rows {
			rem := make([]uint32, len(r.Edges))
			for j, e := range r.Edges {
				rem[j] = e.N
			}
			g.remaining[i] = rem
		}
		counts := make(map[int64]uint32)
		for _, r := range g.rows {
			for _, e := range r.Edges {
				counts[e.To] += e.N
			}
		}
		counts[g.m.Initial]++
		g.values = make([]int64, 0, len(counts))
		for v := range counts {
			g.values = append(g.values, v)
		}
		sort.Slice(g.values, func(i, j int) bool { return g.values[i] < g.values[j] })
		g.valueRem = make([]uint32, len(g.values))
		for i, v := range g.values {
			g.valueRem[i] = counts[v]
			g.remTotal += uint64(counts[v])
		}
	}
	return g
}

func (g *oldGenerator) consumeValue(v int64) int64 {
	if g.remTotal == 0 {
		return v
	}
	i := sort.Search(len(g.values), func(i int) bool { return g.values[i] >= v })
	if i < len(g.values) && g.values[i] == v && g.valueRem[i] > 0 {
		g.valueRem[i]--
		g.remTotal--
		return v
	}
	pick := g.rng.Uint64n(g.remTotal)
	for j := range g.values {
		if pick < uint64(g.valueRem[j]) {
			g.valueRem[j]--
			g.remTotal--
			return g.values[j]
		}
		pick -= uint64(g.valueRem[j])
	}
	return v
}

func (g *oldGenerator) Next() int64 {
	if g.m.Constant {
		return g.m.Value
	}
	if !g.started {
		g.started = true
		g.state = g.consumeValue(g.m.Initial)
		return g.state
	}
	g.state = g.consumeValue(g.step(g.state))
	return g.state
}

func (g *oldGenerator) step(cur int64) int64 {
	ri := rowOf(g.rows, cur)
	if ri < 0 {
		ri = rowOf(g.rows, g.m.Initial)
		if ri < 0 {
			return g.m.Initial
		}
	}
	row := g.rows[ri]
	rem := g.remaining[ri]
	var total uint64
	for _, n := range rem {
		total += uint64(n)
	}
	if total > 0 {
		pick := g.rng.Uint64n(total)
		for j, n := range rem {
			if pick < uint64(n) {
				rem[j]--
				return row.Edges[j].To
			}
			pick -= uint64(n)
		}
	}
	total = 0
	for _, e := range row.Edges {
		total += uint64(e.N)
	}
	pick := g.rng.Uint64n(total)
	for _, e := range row.Edges {
		if pick < uint64(e.N) {
			return e.To
		}
		pick -= uint64(e.N)
	}
	return row.Edges[len(row.Edges)-1].To
}

// randomSeq builds a training sequence with a tunable alphabet so both
// the small (linear-scan) and large (Fenwick/prefix-sum) kernel paths
// get exercised.
func randomSeq(rng *stats.RNG, n, alphabet int) []int64 {
	seq := make([]int64, n)
	for i := range seq {
		seq[i] = int64(rng.Intn(alphabet)) * 3
	}
	return seq
}

func TestGeneratorMatchesReferenceImplementation(t *testing.T) {
	cases := []struct{ n, alphabet int }{
		{2, 2},    // tiny chain
		{50, 3},   // small rows, heavy strict-convergence reuse
		{400, 5},  // small rows, long generation
		{400, 40}, // rows and value sets beyond fenwickMin
		{2000, 64},
		{3000, 200}, // large sparse rows
	}
	for _, c := range cases {
		for seed := uint64(0); seed < 4; seed++ {
			rng := stats.NewRNG(seed*77 + uint64(c.n))
			seq := randomSeq(rng, c.n, c.alphabet)
			m := Fit(seq)
			// Generate well past the training length so the exhausted-row
			// fallback path is covered too.
			gen := NewGenerator(&m, stats.NewRNG(seed))
			ref := newOldGenerator(&m, stats.NewRNG(seed))
			for i := 0; i < 2*c.n; i++ {
				got, want := gen.Next(), ref.Next()
				if got != want {
					t.Fatalf("n=%d alphabet=%d seed=%d: draw %d = %d, reference %d",
						c.n, c.alphabet, seed, i, got, want)
				}
			}
		}
	}
}

func TestGeneratorMatchesReferenceProperty(t *testing.T) {
	check := func(raw []int16, seed uint64) bool {
		if len(raw) == 0 {
			return true
		}
		seq := make([]int64, len(raw))
		for i, v := range raw {
			seq[i] = int64(v % 32)
		}
		m := Fit(seq)
		gen := NewGenerator(&m, stats.NewRNG(seed))
		ref := newOldGenerator(&m, stats.NewRNG(seed))
		for i := 0; i < 3*len(seq); i++ {
			if gen.Next() != ref.Next() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// searchGenerator is a frozen copy of the search-based Generator that
// preceded the dense layout: states and targets are values, every draw
// binary-searches the sorted sources for the current row and the sorted
// value multiset for the drawn value's remaining count, and the value
// multiset holds only targets and the initial value. The dense
// Generator must stay draw-for-draw identical to it.
type searchGenerator struct {
	rng      *stats.RNG
	state    int64
	started  bool
	constant bool
	value    int64
	initial  int64
	initRow  int

	from      []int64
	mOff      []uint32
	to        []int64
	eN        []uint32
	fallTotal []uint64
	values    []int64

	rem      []uint32
	rowTotal []uint64
	fenIdx   []uint32
	fenData  []uint64

	valueRem []uint32
	valueFen []uint64
	remTotal uint64
}

func newSearchGenerator(m *Model, rng *stats.RNG) *searchGenerator {
	g := &searchGenerator{rng: rng}
	if m.Constant {
		g.constant, g.value = true, m.Value
		return g
	}
	g.initial = m.Initial
	rows := valueRows(m)
	g.mOff = []uint32{0}
	counts := map[int64]uint32{m.Initial: 1}
	for _, r := range rows {
		g.from = append(g.from, r.From)
		var sum uint64
		for _, e := range r.Edges {
			g.to = append(g.to, e.To)
			g.eN = append(g.eN, e.N)
			sum += uint64(e.N)
			counts[e.To] += e.N
		}
		g.mOff = append(g.mOff, uint32(len(g.to)))
		g.fallTotal = append(g.fallTotal, sum)
	}
	for v := range counts {
		g.values = append(g.values, v)
	}
	sort.Slice(g.values, func(i, j int) bool { return g.values[i] < g.values[j] })
	for _, v := range g.values {
		g.valueRem = append(g.valueRem, counts[v])
		g.remTotal += uint64(counts[v])
	}
	g.rem = append([]uint32(nil), g.eN...)
	g.rowTotal = append([]uint64(nil), g.fallTotal...)
	n := len(g.from)
	big := false
	for i := 0; i < n; i++ {
		big = big || g.mOff[i+1]-g.mOff[i] >= fenwickMin
	}
	if big {
		g.fenIdx = make([]uint32, n)
		for i := 0; i < n; i++ {
			lo, hi := g.mOff[i], g.mOff[i+1]
			e := int(hi - lo)
			if e < fenwickMin {
				g.fenIdx[i] = noFen
				continue
			}
			g.fenIdx[i] = uint32(len(g.fenData))
			tree := make([]uint64, e+1)
			stats.FenBuild(tree, g.eN[lo:hi])
			g.fenData = append(g.fenData, tree...)
			var s uint64
			for j := lo; j < hi; j++ {
				s += uint64(g.eN[j])
				g.fenData = append(g.fenData, s)
			}
		}
	}
	if len(g.values) >= fenwickMin {
		g.valueFen = make([]uint64, len(g.values)+1)
		stats.FenBuild(g.valueFen, g.valueRem)
	}
	g.initRow = rowSearch(g.from, g.initial)
	return g
}

func rowSearch(states []int64, from int64) int {
	i := sort.Search(len(states), func(i int) bool { return states[i] >= from })
	if i < len(states) && states[i] == from {
		return i
	}
	return -1
}

func (g *searchGenerator) takeValue(i int) {
	g.valueRem[i]--
	g.remTotal--
	if g.valueFen != nil {
		stats.FenDec(g.valueFen, i)
	}
}

func (g *searchGenerator) consumeValue(v int64) int64 {
	if g.remTotal == 0 {
		return v
	}
	if i := rowSearch(g.values, v); i >= 0 && g.valueRem[i] > 0 {
		g.takeValue(i)
		return v
	}
	pick := g.rng.Uint64n(g.remTotal)
	if g.valueFen != nil {
		j := stats.FenFind(g.valueFen, pick)
		g.takeValue(j)
		return g.values[j]
	}
	for j := range g.values {
		if pick < uint64(g.valueRem[j]) {
			g.takeValue(j)
			return g.values[j]
		}
		pick -= uint64(g.valueRem[j])
	}
	return v
}

func (g *searchGenerator) Next() int64 {
	if g.constant {
		return g.value
	}
	if !g.started {
		g.started = true
		g.state = g.consumeValue(g.initial)
		return g.state
	}
	g.state = g.consumeValue(g.step(g.state))
	return g.state
}

func (g *searchGenerator) step(cur int64) int64 {
	ri := rowSearch(g.from, cur)
	if ri < 0 {
		ri = g.initRow
		if ri < 0 {
			return g.initial
		}
	}
	lo, hi := g.mOff[ri], g.mOff[ri+1]
	e := int(hi - lo)
	if total := g.rowTotal[ri]; total > 0 {
		pick := g.rng.Uint64n(total)
		g.rowTotal[ri] = total - 1
		if g.fenIdx != nil {
			if base := g.fenIdx[ri]; base != noFen {
				tree := g.fenData[base : int(base)+e+1]
				j := min(stats.FenFind(tree, pick), e-1)
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
	total := g.fallTotal[ri]
	if total == 0 {
		return g.to[lo]
	}
	pick := g.rng.Uint64n(total)
	if g.fenIdx != nil {
		if base := g.fenIdx[ri]; base != noFen {
			cum := g.fenData[int(base)+e+1 : int(base)+2*e+1]
			j := sort.Search(len(cum), func(i int) bool { return cum[i] > pick })
			return g.to[lo+uint32(min(j, e-1))]
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

// randomRows builds value-keyed rows over an alphabet of the given
// size: each value is a source with probability pSource, its row draws
// up to maxEdges targets with counts in [minN, minN+4]. Sources that
// never appear as targets (source-only values) and targets that have
// no row (terminal states) both arise; so do rows and value sets on
// either side of fenwickMin when alphabet and maxEdges straddle it.
func randomRows(rng *stats.RNG, alphabet, maxEdges int, pSource float64, minN uint32) []Row {
	var rows []Row
	for v := 0; v < alphabet; v++ {
		if !rng.Bool(pSource) {
			continue
		}
		var edges []Edge
		for t := 0; t < alphabet && len(edges) < maxEdges; t++ {
			if rng.Intn(alphabet) < maxEdges {
				edges = append(edges, Edge{To: int64(t) * 5, N: minN + uint32(rng.Intn(5))})
			}
		}
		if len(edges) > 0 {
			rows = append(rows, Row{From: int64(v)*5 - 1 + int64(rng.Intn(2)), Edges: edges})
		}
	}
	return rows
}

// matchSearch reports the first draw at which the dense Generator and
// the frozen search-based one disagree over n draws, or -1.
func matchSearch(m *Model, seed uint64, n int) int {
	gen := NewGenerator(m, stats.NewRNG(seed))
	ref := newSearchGenerator(m, stats.NewRNG(seed))
	for i := 0; i < n; i++ {
		if gen.Next() != ref.Next() {
			return i
		}
	}
	return -1
}

// TestGeneratorMatchesSearchGeneratorProperty checks the dense
// Generator draw for draw against the search-based one it replaced,
// on FromRows models with source-only values and terminal states, with
// rows and value sets on both sides of fenwickMin, zero-count rows
// included, generating well past the training length.
func TestGeneratorMatchesSearchGeneratorProperty(t *testing.T) {
	check := func(seed uint64, alphabet, maxEdges uint8, zero bool) bool {
		rng := stats.NewRNG(seed)
		a := 2 + int(alphabet)%(3*fenwickMin)
		e := 1 + int(maxEdges)%(2*fenwickMin)
		minN := uint32(1)
		if zero {
			minN = 0
		}
		rows := randomRows(rng, a, e, 0.7, minN)
		initial := int64(rng.Intn(a)) * 5
		if rng.Bool(0.3) && len(rows) > 0 {
			initial = rows[rng.Intn(len(rows))].From // possibly source-only
		}
		m := FromRows(initial, rows)
		if i := matchSearch(&m, seed, 3*m.Transitions()+8); i >= 0 {
			t.Logf("alphabet=%d maxEdges=%d zero=%v: first divergence at draw %d", a, e, zero, i)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestGeneratorMatchesSearchGeneratorFit covers fitted models whose
// value sets and rows straddle fenwickMin.
func TestGeneratorMatchesSearchGeneratorFit(t *testing.T) {
	for _, c := range []struct{ n, alphabet int }{{50, 3}, {400, fenwickMin - 1}, {400, fenwickMin}, {3000, 200}} {
		for seed := uint64(0); seed < 4; seed++ {
			m := Fit(randomSeq(stats.NewRNG(seed*31+uint64(c.n)), c.n, c.alphabet))
			if i := matchSearch(&m, seed, 2*c.n); i >= 0 {
				t.Fatalf("n=%d alphabet=%d seed=%d: first divergence at draw %d", c.n, c.alphabet, seed, i)
			}
		}
	}
}
