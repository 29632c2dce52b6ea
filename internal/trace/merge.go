package trace

// Puller is the pull half of Source: the one method Merge calls. Leaf
// generators that never see backpressure implement only this.
type Puller interface {
	Next() (Request, bool)
}

// Merger is a k-way timestamp merge over Pullers, built on LoserTree.
// It implements Source; Delay shifts every not-yet-emitted request.
type Merger struct {
	lt    *LoserTree
	srcs  []Puller
	heads []Request
	shift uint64
}

// Merge combines several sources into one, interleaving their requests
// in timestamp order. It is the priority-queue injection of Fig. 5 and
// the building block for SoC-style simulations where multiple (possibly
// synthetic) IP blocks inject into one memory system.
//
// Ties are deterministic: requests that share a timestamp are emitted in
// ascending source index — the position of the source in the variadic
// argument list, counting nil and already-exhausted sources. The order of
// a merged stream is therefore a pure function of the sources' contents
// and their positions, stable across refactors of the merge internals.
func Merge(sources ...Puller) *Merger {
	m := &Merger{srcs: sources, heads: make([]Request, len(sources))}
	times := make([]uint64, len(sources))
	done := make([]bool, len(sources))
	for i, s := range sources {
		ok := false
		if s != nil {
			m.heads[i], ok = s.Next()
		}
		times[i], done[i] = m.heads[i].Time, !ok
	}
	m.lt = NewLoserTree(times, done)
	return m
}

// Next returns the globally next request.
func (m *Merger) Next() (Request, bool) {
	req, _, ok := m.NextIndexed()
	return req, ok
}

// NextIndexed returns the globally next request together with the
// index of the source that produced it: its position in the Merge
// argument list, counting nil and empty sources. It returns -1 and
// false when every source is exhausted.
func (m *Merger) NextIndexed() (Request, int, bool) {
	w := m.lt.Winner()
	if w < 0 {
		return Request{}, -1, false
	}
	req := m.heads[w]
	req.Time += m.shift
	if next, ok := m.srcs[w].Next(); ok {
		m.heads[w] = next
		m.lt.Replace(next.Time)
	} else {
		m.lt.Remove()
	}
	return req, w, true
}

// Delay shifts every not-yet-emitted request, both the buffered heads
// and those the sources will produce later. The shift is kept here
// rather than pushed into the sources so no request is shifted twice.
func (m *Merger) Delay(cycles uint64) { m.shift += cycles }

// LoserTree is a tournament tree over k players keyed by (exhausted,
// time, player index): the winner is the live player with the smallest
// time, ties going to the lower index. Reading the winner is a single
// cached load, and replacing its key costs exactly ceil(log2 k)
// comparisons on flat slices, with no interface calls in the
// comparator. Merge and the synthesis hot loop both drive it.
type LoserTree struct {
	// times holds each live player's key; done marks exhausted players,
	// which lose to every live one. An exhausted player's time is pinned
	// to doneKey so the common path of beats is a single key comparison;
	// done breaks the rare exact tie against a live doneKey timestamp.
	times []uint64
	done  []bool
	// tree[n] is the loser of the match at internal node n (tree[0] is
	// unused); leafBase is the power-of-two leaf count, with players
	// k..leafBase-1 being permanent byes (index -1).
	tree     []int
	leafBase int
	// winner is the overall champion, or -1 when there are no players.
	winner int
}

// doneKey is the sentinel time of an exhausted player.
const doneKey = ^uint64(0)

// NewLoserTree runs the initial tournament over the players' first keys;
// done[i] marks player i as exhausted from the start. The tree takes
// ownership of both slices.
func NewLoserTree(times []uint64, done []bool) *LoserTree {
	t := &LoserTree{times: times, done: done}
	for i, d := range done {
		if d {
			t.times[i] = doneKey
		}
	}
	t.build()
	return t
}

// Winner returns the index of the live player with the smallest
// (time, index) key, or -1 when every player is exhausted.
func (t *LoserTree) Winner() int {
	w := t.winner
	if w < 0 || t.done[w] {
		return -1
	}
	return w
}

// Replace sets the winner's key to its next time and restores the
// tournament.
func (t *LoserTree) Replace(time uint64) {
	t.times[t.winner] = time
	t.replay(t.winner)
}

// Remove marks the winner exhausted and restores the tournament.
func (t *LoserTree) Remove() {
	w := t.winner
	t.done[w] = true
	t.times[w] = doneKey
	t.replay(w)
}

// beats reports whether player a wins (sorts before) player b. Byes (-1)
// and exhausted players lose to everything live; ties on time go to the
// lower index. Exhausted players carry the doneKey sentinel time, so
// only an exact tie — two exhausted players, or a live timestamp equal
// to doneKey — has to look past the key comparison.
func (t *LoserTree) beats(a, b int) bool {
	if a < 0 {
		return false
	}
	if b < 0 {
		return true
	}
	if ta, tb := t.times[a], t.times[b]; ta != tb {
		return ta < tb
	}
	if t.done[a] {
		return false
	}
	if t.done[b] {
		return true
	}
	return a < b
}

// build runs the initial tournament in O(k).
func (t *LoserTree) build() {
	k := len(t.times)
	if k == 0 {
		t.winner = -1
		return
	}
	lb := 1
	for lb < k {
		lb <<= 1
	}
	t.leafBase = lb
	t.tree = make([]int, lb)
	win := make([]int, 2*lb)
	for i := 0; i < lb; i++ {
		if i < k {
			win[lb+i] = i
		} else {
			win[lb+i] = -1
		}
	}
	for n := lb - 1; n >= 1; n-- {
		a, b := win[2*n], win[2*n+1]
		if t.beats(a, b) {
			win[n], t.tree[n] = a, b
		} else {
			win[n], t.tree[n] = b, a
		}
	}
	t.winner = win[1]
}

// replay re-runs the matches on the path from leaf l to the root after
// l's key changed, updating the champion.
func (t *LoserTree) replay(l int) {
	w := l
	for n := (t.leafBase + l) >> 1; n >= 1; n >>= 1 {
		if t.beats(t.tree[n], w) {
			w, t.tree[n] = t.tree[n], w
		}
	}
	t.winner = w
}
