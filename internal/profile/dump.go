package profile

import (
	"fmt"
	"io"
	"sort"
)

// Dump writes a human-readable summary of the profile: overall
// composition, then the largest leaves with their per-feature models.
// It backs the `mocktails inspect` command; vendors can use it to review
// exactly what information a profile discloses before distributing it.
func Dump(w io.Writer, v View, maxLeaves int) {
	s := StatsOf(v)
	name, config := v.Header()
	fmt.Fprintf(w, "profile %q (hierarchy: %s)\n", name, config)
	fmt.Fprintf(w, "  %d leaves, %d requests\n", s.Leaves, v.Requests())
	fmt.Fprintf(w, "  feature models: %d constants, %d Markov chains (%d states total)\n",
		s.Constants, s.Chains, s.States)

	idx := make([]int, s.Leaves)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		if ca, cb := v.LeafCount(idx[a]), v.LeafCount(idx[b]); ca != cb {
			return ca > cb
		}
		return idx[a] < idx[b]
	})
	if maxLeaves <= 0 || maxLeaves > len(idx) {
		maxLeaves = len(idx)
	}
	fmt.Fprintf(w, "  largest %d leaves:\n", maxLeaves)
	var scratch Leaf
	for _, i := range idx[:maxLeaves] {
		l := v.LeafView(i, &scratch)
		fmt.Fprintf(w, "    leaf %d: start t=%d addr=0x%x range=[0x%x,0x%x) count=%d\n",
			i, l.StartTime, l.StartAddr, l.Lo, l.Hi, l.Count)
		fmt.Fprintf(w, "      dt=%s stride=%s op=%s size=%s\n",
			l.DeltaTime.String(), l.Stride.String(), l.Op.String(), l.Size.String())
	}
}
