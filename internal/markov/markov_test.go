package markov

import (
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

func generate(m *Model, n int, seed uint64) []int64 {
	g := NewGenerator(m, stats.NewRNG(seed))
	out := make([]int64, n)
	for i := range out {
		out[i] = g.Next()
	}
	return out
}

func TestFitEmpty(t *testing.T) {
	m := Fit(nil)
	if !m.Constant || m.Value != 0 {
		t.Errorf("Fit(nil) = %+v, want constant 0", m)
	}
}

func TestFitConstant(t *testing.T) {
	m := Fit([]int64{64, 64, 64, 64})
	if !m.Constant || m.Value != 64 {
		t.Errorf("constant sequence gave %+v", m)
	}
	if m.States() != 0 {
		t.Errorf("constant model has %d states", m.States())
	}
}

func TestFitSingle(t *testing.T) {
	m := Fit([]int64{-7})
	if !m.Constant || m.Value != -7 {
		t.Errorf("single-value sequence gave %+v", m)
	}
}

func TestFitChain(t *testing.T) {
	m := Fit([]int64{1, 2, 1, 2, 1})
	if m.Constant {
		t.Fatal("alternating sequence fit as constant")
	}
	if m.Initial != 1 {
		t.Errorf("Initial = %d", m.Initial)
	}
	if m.States() != 2 {
		t.Errorf("States = %d, want 2", m.States())
	}
	if m.Transitions() != 4 {
		t.Errorf("Transitions = %d, want 4", m.Transitions())
	}
}

func TestFitRowsSorted(t *testing.T) {
	m := Fit([]int64{5, -3, 9, 5, -3, 2, 5})
	for i := 1; i < len(m.Vals); i++ {
		if m.Vals[i] <= m.Vals[i-1] {
			t.Fatal("values not sorted")
		}
	}
	for k := range m.Vals {
		lo, hi := m.RowOff[k], m.RowOff[k+1]
		for j := lo; j < hi; j++ {
			if int(m.To[j]) >= len(m.Vals) {
				t.Fatalf("edge %d targets index %d of %d values", j, m.To[j], len(m.Vals))
			}
			if j > lo && m.To[j] <= m.To[j-1] {
				t.Fatal("edges not sorted by To")
			}
		}
	}
	if len(m.RowOff) != len(m.Vals)+1 || int(m.RowOff[len(m.Vals)]) != len(m.To) {
		t.Fatalf("RowOff malformed: %v over %d edges", m.RowOff, len(m.To))
	}
}

func TestFitTerminalValueHasEmptyRow(t *testing.T) {
	// 7 ends the sequence and occurs nowhere else: a terminal state
	// with an empty row. Every other value has one.
	m := Fit([]int64{5, -3, 9, 5, -3, 2, 7})
	if k := slices.Index(m.Vals, 7); m.RowOff[k] != m.RowOff[k+1] {
		t.Fatal("terminal value 7 has outgoing edges")
	}
	if m.States() != len(m.Vals)-1 {
		t.Fatalf("States = %d, want %d", m.States(), len(m.Vals)-1)
	}
}

func TestDeterministicSequenceReproducedExactly(t *testing.T) {
	// A cyclic pattern has one successor per state, so generation must
	// reproduce it perfectly regardless of the seed (Table I's point).
	seq := []int64{10, 20, 30, 10, 20, 30, 10, 20, 30, 10}
	m := Fit(seq)
	for seed := uint64(0); seed < 5; seed++ {
		got := generate(&m, len(seq), seed)
		for i := range seq {
			if got[i] != seq[i] {
				t.Fatalf("seed %d: got[%d] = %d, want %d", seed, i, got[i], seq[i])
			}
		}
	}
}

func TestConstantGeneration(t *testing.T) {
	m := Fit([]int64{42, 42})
	got := generate(&m, 5, 1)
	for _, v := range got {
		if v != 42 {
			t.Fatalf("constant generator produced %d", v)
		}
	}
}

func TestFirstValueIsInitial(t *testing.T) {
	m := Fit([]int64{7, 8, 7, 9})
	if got := generate(&m, 1, 3)[0]; got != 7 {
		t.Errorf("first generated value = %d, want initial 7", got)
	}
}

func TestStrictConvergencePreservesMultiset(t *testing.T) {
	// With strict convergence, generating exactly len(seq) values must
	// reproduce the exact multiset of values whenever the training walk
	// cannot strand (single branching state).
	seq := []int64{1, 1, 1, 2, 1, 1, 2, 1, 1, 1, 2, 1}
	m := Fit(seq)
	want := multiset(seq)
	for seed := uint64(0); seed < 20; seed++ {
		got := multiset(generate(&m, len(seq), seed))
		if !equalCounts(got, want) {
			t.Fatalf("seed %d: multiset %v, want %v", seed, got, want)
		}
	}
}

func TestGeneratorOnlyProducesTrainedValues(t *testing.T) {
	seq := []int64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5}
	m := Fit(seq)
	valid := multiset(seq)
	got := generate(&m, 50, 11)
	for _, v := range got {
		if _, ok := valid[v]; !ok {
			t.Fatalf("generated untrained value %d", v)
		}
	}
}

func TestTerminalStateRestarts(t *testing.T) {
	// 9 appears only as the final value: it has no outgoing edges, so
	// generation past it must restart from the initial state's row
	// rather than panic.
	seq := []int64{1, 2, 1, 2, 9}
	m := Fit(seq)
	got := generate(&m, 20, 5)
	if len(got) != 20 {
		t.Fatal("generator stalled after terminal state")
	}
}

func TestGeneratorDeterministicPerSeed(t *testing.T) {
	seq := []int64{1, 2, 3, 1, 3, 2, 1, 2, 2, 3}
	m := Fit(seq)
	a := generate(&m, 100, 99)
	b := generate(&m, 100, 99)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different sequences")
		}
	}
}

func TestModelString(t *testing.T) {
	c := Fit([]int64{1})
	if c.String() == "" {
		t.Error("empty String for constant")
	}
	m := Fit([]int64{1, 2, 1})
	if m.String() == "" {
		t.Error("empty String for chain")
	}
}

func TestExhaustedRowFallsBack(t *testing.T) {
	// Force generation far past the training length so remaining counts
	// exhaust; generation must continue drawing from the original
	// distribution.
	seq := []int64{1, 2, 1, 2, 1}
	m := Fit(seq)
	got := generate(&m, 1000, 17)
	if len(got) != 1000 {
		t.Fatal("generation stopped early")
	}
	ones, twos := 0, 0
	for _, v := range got {
		switch v {
		case 1:
			ones++
		case 2:
			twos++
		default:
			t.Fatalf("unexpected value %d", v)
		}
	}
	if ones == 0 || twos == 0 {
		t.Errorf("degenerate long generation: %d ones, %d twos", ones, twos)
	}
}

func TestFitGenerateProperty(t *testing.T) {
	// For any training sequence, generating len(seq) values yields only
	// trained values, starts at the initial value, and never panics.
	check := func(raw []int8, seed uint64) bool {
		if len(raw) == 0 {
			return true
		}
		seq := make([]int64, len(raw))
		for i, v := range raw {
			seq[i] = int64(v % 4)
		}
		m := Fit(seq)
		got := generate(&m, len(seq), seed)
		if got[0] != seq[0] {
			return false
		}
		valid := multiset(seq)
		for _, v := range got {
			if _, ok := valid[v]; !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func multiset(xs []int64) map[int64]int {
	m := make(map[int64]int)
	for _, x := range xs {
		m[x]++
	}
	return m
}

func equalCounts(a, b map[int64]int) bool {
	if len(a) != len(b) {
		return false
	}
	keys := make([]int64, 0, len(a))
	for k := range a {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, k := range keys {
		if a[k] != b[k] {
			return false
		}
	}
	return true
}
