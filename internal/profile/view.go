package profile

// View is read access to a profile, implemented by both the heap
// representation (*Profile) and the zero-copy flat one (*Flat). It is
// the one interface every consumer reads a profile through — synthesis,
// the gzip and flat encoders, Dump and StatsOf — so a profile is read
// where it lives, as decoded heap objects or an mmap-ed flat buffer,
// and a flat profile is never copied back onto the heap. Every consumer
// produces byte-identical output for either.
type View interface {
	// Header returns the workload name and the partitioning
	// configuration string.
	Header() (name, config string)
	// NumLeaves returns the number of leaves.
	NumLeaves() int
	// Requests returns the total number of requests the profile
	// synthesises (the sum of the leaf counts).
	Requests() int
	// LeafCount returns leaf i's request count without materialising
	// the leaf.
	LeafCount(i int) uint32
	// LeafView returns leaf i. The heap implementation returns a
	// pointer into its own storage and ignores scratch; the flat one
	// fills scratch with slice views into the shared buffer and returns
	// it. The returned leaf's model tables must be treated as
	// immutable, and the leaf struct itself is only valid until scratch
	// is reused.
	LeafView(i int, scratch *Leaf) *Leaf
}

// Header implements View.
func (p *Profile) Header() (name, config string) { return p.Name, p.Config }

// NumLeaves implements View.
func (p *Profile) NumLeaves() int { return len(p.Leaves) }

// LeafCount implements View.
func (p *Profile) LeafCount(i int) uint32 { return p.Leaves[i].Count }

// LeafView implements View, returning the leaf in place.
func (p *Profile) LeafView(i int, _ *Leaf) *Leaf { return &p.Leaves[i] }

// LeafArena returns the total markov.Arena elements the four feature
// generators of l consume; synthesis sums it across leaves to size one
// arena for a whole stream.
func LeafArena(l *Leaf) (n32, n64 int) {
	a, b := l.DeltaTime.ArenaSize()
	c, d := l.Stride.ArenaSize()
	n32, n64 = a+c, b+d
	a, b = l.Op.ArenaSize()
	c, d = l.Size.ArenaSize()
	return n32 + a + c, n64 + b + d
}
