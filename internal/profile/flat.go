package profile

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"
	"unsafe"

	"repro/internal/markov"
)

// The flat profile format: one contiguous buffer of packed sections
// addressed by offsets, designed to be mmap-ed and consumed by slicing
// rather than decoding. Where the gzip codec (codec.go) optimises for
// transport size, the flat layout optimises for open time — a fixed
// header plus structural bounds checks — and for generator setup, which
// binds directly to the on-disk transition tables with no per-row
// allocation. See docs/FORMAT.md for the byte-level layout.
//
// All integers are little-endian; every section offset is a multiple of
// 8, so on little-endian hosts the numeric sections alias the buffer
// directly (big-endian or misaligned buffers fall back to an
// element-wise decode). Sections carry CRC-32C checksums, verified on
// open unless the caller opts out for buffers it has already vetted.

const (
	flatMagic   = 0x5250464d // "MFPR"
	flatVersion = 2

	flatHeaderBytes = 56
	flatSections    = 9
	flatSecEntry    = 24 // {off u64, size u64, crc32c u32, pad u32}
	flatDataStart   = flatHeaderBytes + flatSections*flatSecEntry

	leafRecBytes  = 40
	modelRecBytes = 40

	flatModelConstant = 0
	flatModelMarkov   = 1

	// Section indexes.
	secStrings = 0 // name then config, raw bytes
	secLeafTab = 1 // leafRecBytes per leaf
	secModels  = 2 // modelRecBytes per model, 4 per leaf (dt, stride, op, size)
	secRowOff  = 3 // uint32 edge offsets, model-relative, nVals+1 per model
	secRowSum  = 4 // uint64 per-value row training totals, parallel to secValVal
	secEdgeTo  = 5 // uint32 transition targets, model-relative value indices
	secEdgeN   = 6 // uint32 transition counts
	secValVal  = 7 // int64 sorted distinct values, one row each
	secValN    = 8 // uint32 value multiplicities
)

var flatCRC = crc32.MakeTable(crc32.Castagnoli)

// ErrFlatFormat reports a structurally invalid or corrupt flat profile.
var ErrFlatFormat = errors.New("profile: invalid flat profile")

func flatErr(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrFlatFormat, fmt.Sprintf(format, args...))
}

// FlatOption configures OpenFlat / OpenFlatFile.
type FlatOption func(*flatOpts)

type flatOpts struct {
	noVerify bool
}

// FlatNoVerify skips the per-section checksum pass on open, leaving
// only the header checksum and the structural bounds validation — the
// O(header + edges) fast path for buffers the caller already trusts
// (serve disk-tier files whose bytes hash to their content address).
// Structural validation alone guarantees synthesis cannot index out of
// bounds; checksums additionally catch bit rot.
func FlatNoVerify() FlatOption { return func(o *flatOpts) { o.noVerify = true } }

// Flat is a profile opened from a flat buffer. Its sections are slice
// views over the underlying buffer (zero-copy on little-endian hosts);
// it implements View, so synthesis, the encoders and Dump read it in
// place. A Flat over an mmap-ed file must be released with Close; the
// views must not be used after.
type Flat struct {
	data []byte

	name     string
	config   string
	requests uint64
	nLeaves  int

	leafTab  []byte
	modelTab []byte
	rowOff   []uint32
	rowSum   []uint64
	edgeTo   []uint32
	edgeN    []uint32
	valVal   []int64
	valN     []uint32

	closer func() error
}

// hostLittle reports whether the host is little-endian, deciding
// whether numeric sections can alias the buffer directly.
var hostLittle = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

func aligned8(b []byte) bool {
	return len(b) == 0 || uintptr(unsafe.Pointer(&b[0]))%8 == 0
}

// The sliceX helpers view a byte section as a typed slice: a direct
// unsafe alias when the host is little-endian and the section is
// 8-byte-aligned (always true for mmap-ed files; Go heap buffers are
// checked), an element-wise decode into a fresh slice otherwise.

func sliceU32(b []byte) []uint32 {
	if len(b) == 0 {
		return nil
	}
	if hostLittle && aligned8(b) {
		return unsafe.Slice((*uint32)(unsafe.Pointer(&b[0])), len(b)/4)
	}
	out := make([]uint32, len(b)/4)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(b[4*i:])
	}
	return out
}

func sliceU64(b []byte) []uint64 {
	if len(b) == 0 {
		return nil
	}
	if hostLittle && aligned8(b) {
		return unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), len(b)/8)
	}
	out := make([]uint64, len(b)/8)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(b[8*i:])
	}
	return out
}

func sliceI64(b []byte) []int64 {
	if len(b) == 0 {
		return nil
	}
	if hostLittle && aligned8(b) {
		return unsafe.Slice((*int64)(unsafe.Pointer(&b[0])), len(b)/8)
	}
	out := make([]int64, len(b)/8)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out
}

// secElem is the element width of each section, for size validation.
var secElem = [flatSections]uint64{1, leafRecBytes, modelRecBytes, 4, 8, 4, 4, 8, 4}

// OpenFlat opens a flat profile over buf without copying the numeric
// sections. Validation is structural — every offset, span and row
// table is bounds-checked so a later synthesis can never index outside
// the buffer — plus a checksum pass over all sections unless
// FlatNoVerify is given. buf must not be mutated while the Flat is in
// use.
func OpenFlat(buf []byte, opts ...FlatOption) (*Flat, error) {
	var o flatOpts
	for _, opt := range opts {
		opt(&o)
	}
	if len(buf) < flatDataStart {
		return nil, flatErr("short header: %d bytes", len(buf))
	}
	le := binary.LittleEndian
	if le.Uint32(buf[0:]) != flatMagic {
		return nil, flatErr("bad magic")
	}
	if v := le.Uint32(buf[4:]); v != flatVersion {
		return nil, flatErr("unsupported version %d", v)
	}
	if sz := le.Uint64(buf[8:]); sz != uint64(len(buf)) {
		return nil, flatErr("header size %d != buffer size %d", sz, len(buf))
	}
	nLeaves := le.Uint32(buf[16:])
	if sc := le.Uint32(buf[20:]); sc != flatSections {
		return nil, flatErr("section count %d", sc)
	}
	requests := le.Uint64(buf[24:])
	// buf[32:40] is reserved: written as zero, ignored on read.
	nameLen := le.Uint32(buf[40:])
	configLen := le.Uint32(buf[44:])
	wantHdrCRC := le.Uint32(buf[48:])

	// Header CRC covers header + section table with the CRC field zeroed.
	crc := crc32.Update(0, flatCRC, buf[:48])
	crc = crc32.Update(crc, flatCRC, []byte{0, 0, 0, 0})
	crc = crc32.Update(crc, flatCRC, buf[52:flatDataStart])
	if crc != wantHdrCRC {
		return nil, flatErr("header checksum mismatch")
	}

	var secs [flatSections][]byte
	for i := 0; i < flatSections; i++ {
		e := buf[flatHeaderBytes+i*flatSecEntry:]
		off, size := le.Uint64(e[0:]), le.Uint64(e[8:])
		if off%8 != 0 {
			return nil, flatErr("section %d misaligned at %d", i, off)
		}
		if off < flatDataStart || off > uint64(len(buf)) || size > uint64(len(buf))-off {
			return nil, flatErr("section %d span [%d,+%d) outside buffer", i, off, size)
		}
		if size%secElem[i] != 0 {
			return nil, flatErr("section %d size %d not a multiple of %d", i, size, secElem[i])
		}
		secs[i] = buf[off : off+size : off+size]
		if !o.noVerify {
			if got, want := crc32.Checksum(secs[i], flatCRC), le.Uint32(e[16:]); got != want {
				return nil, flatErr("section %d checksum mismatch", i)
			}
		}
	}

	if uint64(nameLen)+uint64(configLen) != uint64(len(secs[secStrings])) {
		return nil, flatErr("string lengths exceed section")
	}
	f := &Flat{
		data:     buf,
		name:     string(secs[secStrings][:nameLen]),
		config:   string(secs[secStrings][nameLen:]),
		requests: requests,
		nLeaves:  int(nLeaves),
		leafTab:  secs[secLeafTab],
		modelTab: secs[secModels],
		rowOff:   sliceU32(secs[secRowOff]),
		rowSum:   sliceU64(secs[secRowSum]),
		edgeTo:   sliceU32(secs[secEdgeTo]),
		edgeN:    sliceU32(secs[secEdgeN]),
		valVal:   sliceI64(secs[secValVal]),
		valN:     sliceU32(secs[secValN]),
	}
	if uint64(len(f.leafTab)) != uint64(nLeaves)*leafRecBytes {
		return nil, flatErr("leaf table holds %d bytes for %d leaves", len(f.leafTab), nLeaves)
	}
	if uint64(len(f.modelTab)) != uint64(nLeaves)*4*modelRecBytes {
		return nil, flatErr("model table holds %d bytes for %d leaves", len(f.modelTab), nLeaves)
	}
	if len(f.edgeN) != len(f.edgeTo) || len(f.valN) != len(f.valVal) || len(f.rowSum) != len(f.valVal) {
		return nil, flatErr("parallel sections disagree on element counts")
	}
	if err := f.validateModels(); err != nil {
		return nil, err
	}
	var total uint64
	for i := 0; i < f.nLeaves; i++ {
		total += uint64(f.LeafCount(i))
	}
	if total != requests {
		return nil, flatErr("header requests %d != leaf sum %d", requests, total)
	}
	return f, nil
}

// validateModels bounds-checks every model record and its tables in
// one pass over the edges: after it passes, any generator built over
// the views can only index inside its own spans — every row offset
// lies in the model's edge span, every edge targets one of the model's
// values, and the initial value is one of them — so synthesis from a
// structurally valid file never panics, whatever the numeric content.
func (f *Flat) validateModels() error {
	le := binary.LittleEndian
	for mi := 0; mi < f.nLeaves*4; mi++ {
		rec := f.modelTab[mi*modelRecBytes : (mi+1)*modelRecBytes]
		kind := le.Uint32(rec[0:])
		switch kind {
		case flatModelConstant:
			continue
		case flatModelMarkov:
		default:
			return flatErr("model %d: bad kind %d", mi, kind)
		}
		nVals := uint64(le.Uint32(rec[4:]))
		valStart := uint64(le.Uint32(rec[8:]))
		offStart := uint64(le.Uint32(rec[12:]))
		edgeStart := uint64(le.Uint32(rec[16:]))
		nEdges := uint64(le.Uint32(rec[20:]))
		if valStart+nVals > uint64(len(f.valVal)) ||
			offStart+nVals+1 > uint64(len(f.rowOff)) ||
			edgeStart+nEdges > uint64(len(f.edgeTo)) {
			return flatErr("model %d: spans outside sections", mi)
		}
		off := f.rowOff[offStart : offStart+nVals+1]
		if off[0] != 0 || uint64(off[nVals]) != nEdges {
			return flatErr("model %d: row offsets span [%d,%d), want [0,%d)", mi, off[0], off[nVals], nEdges)
		}
		for k := uint64(0); k < nVals; k++ {
			if off[k] > off[k+1] {
				return flatErr("model %d: row offsets not monotone at %d", mi, k)
			}
		}
		for j, t := range f.edgeTo[edgeStart : edgeStart+nEdges] {
			if uint64(t) >= nVals {
				return flatErr("model %d: edge %d targets value %d of %d", mi, j, t, nVals)
			}
		}
		// The same search Model.InitialIndex runs when a generator
		// binds to the model.
		initial := int64(le.Uint64(rec[32:]))
		if _, ok := slices.BinarySearch(f.valVal[valStart:valStart+nVals], initial); !ok {
			return flatErr("model %d: initial value %d not among its values", mi, initial)
		}
	}
	return nil
}

// Header implements View.
func (f *Flat) Header() (name, config string) { return f.name, f.config }

// Size returns the encoded size in bytes.
func (f *Flat) Size() int { return len(f.data) }

// Bytes returns the underlying encoded buffer. Callers must treat it
// as read-only; for an mmap-ed Flat it is only valid until Close.
func (f *Flat) Bytes() []byte { return f.data }

// NumLeaves implements View.
func (f *Flat) NumLeaves() int { return f.nLeaves }

// Requests implements View.
func (f *Flat) Requests() int { return int(f.requests) }

// LeafCount implements View.
func (f *Flat) LeafCount(i int) uint32 {
	return binary.LittleEndian.Uint32(f.leafTab[i*leafRecBytes+32:])
}

// LeafView implements View: scratch's bookkeeping fields are filled
// from the leaf record and its four models become slice views over the
// flat buffer — no allocation, no decode.
func (f *Flat) LeafView(i int, scratch *Leaf) *Leaf {
	le := binary.LittleEndian
	rec := f.leafTab[i*leafRecBytes : (i+1)*leafRecBytes]
	scratch.StartTime = le.Uint64(rec[0:])
	scratch.StartAddr = le.Uint64(rec[8:])
	scratch.Lo = le.Uint64(rec[16:])
	scratch.Hi = le.Uint64(rec[24:])
	scratch.Count = le.Uint32(rec[32:])
	f.model(4*i+0, &scratch.DeltaTime)
	f.model(4*i+1, &scratch.Stride)
	f.model(4*i+2, &scratch.Op)
	f.model(4*i+3, &scratch.Size)
	return scratch
}

// model fills m with a view of model record mi.
func (f *Flat) model(mi int, m *markov.Model) {
	le := binary.LittleEndian
	rec := f.modelTab[mi*modelRecBytes : (mi+1)*modelRecBytes]
	value := int64(le.Uint64(rec[24:]))
	initial := int64(le.Uint64(rec[32:]))
	if le.Uint32(rec[0:]) == flatModelConstant {
		*m = markov.Model{Constant: true, Value: value, Initial: initial}
		return
	}
	nVals := le.Uint32(rec[4:])
	valStart := le.Uint32(rec[8:])
	offStart := le.Uint32(rec[12:])
	edgeStart := le.Uint32(rec[16:])
	nEdges := le.Uint32(rec[20:])
	*m = markov.Model{
		Initial: initial,
		Vals:    f.valVal[valStart : valStart+nVals : valStart+nVals],
		RowOff:  f.rowOff[offStart : offStart+nVals+1 : offStart+nVals+1],
		To:      f.edgeTo[edgeStart : edgeStart+nEdges : edgeStart+nEdges],
		N:       f.edgeN[edgeStart : edgeStart+nEdges : edgeStart+nEdges],
		RowSum:  f.rowSum[valStart : valStart+nVals : valStart+nVals],
		ValN:    f.valN[valStart : valStart+nVals : valStart+nVals],
	}
}

// Close releases the resources behind the buffer (the mapping, for an
// mmap-ed file). It is a no-op for in-memory buffers and safe to call
// once; no view derived from the Flat may be used afterwards.
func (f *Flat) Close() error {
	c := f.closer
	f.closer = nil
	if c != nil {
		return c()
	}
	return nil
}

// flatCounts tallies the global table sizes of a profile.
type flatCounts struct {
	edges, vals, offs int
}

func countFlat(v View) (flatCounts, error) {
	var c flatCounts
	var scratch Leaf
	for i := 0; i < v.NumLeaves(); i++ {
		l := v.LeafView(i, &scratch)
		for _, m := range [...]*markov.Model{&l.DeltaTime, &l.Stride, &l.Op, &l.Size} {
			if m.Constant {
				continue
			}
			if len(m.RowOff) != len(m.Vals)+1 || len(m.N) != len(m.To) ||
				len(m.RowSum) != len(m.Vals) || len(m.ValN) != len(m.Vals) || len(m.Vals) == 0 {
				return c, fmt.Errorf("profile: leaf %d has an unfinished model (call Finish)", i)
			}
			c.offs += len(m.Vals) + 1
			c.edges += len(m.To)
			c.vals += len(m.Vals)
		}
	}
	if uint64(c.edges) > math.MaxUint32 ||
		uint64(c.vals) > math.MaxUint32 || uint64(c.offs) > math.MaxUint32 ||
		uint64(v.NumLeaves()) > math.MaxUint32/4 {
		return c, errors.New("profile: too large for flat encoding")
	}
	return c, nil
}

func align8(n uint64) uint64 { return (n + 7) &^ 7 }

// MarshalFlat encodes the profile in the flat format. The encoding is
// a deterministic function of the profile's contents, padding included,
// so equal profiles encode to equal bytes, whichever View they are
// read through.
func MarshalFlat(v View) ([]byte, error) {
	c, err := countFlat(v)
	if err != nil {
		return nil, err
	}

	name, config := v.Header()
	nLeaves := v.NumLeaves()
	sizes := [flatSections]uint64{
		secStrings: uint64(len(name) + len(config)),
		secLeafTab: uint64(nLeaves) * leafRecBytes,
		secModels:  uint64(nLeaves) * 4 * modelRecBytes,
		secRowOff:  uint64(c.offs) * 4,
		secRowSum:  uint64(c.vals) * 8,
		secEdgeTo:  uint64(c.edges) * 4,
		secEdgeN:   uint64(c.edges) * 4,
		secValVal:  uint64(c.vals) * 8,
		secValN:    uint64(c.vals) * 4,
	}
	var offs [flatSections]uint64
	pos := uint64(flatDataStart)
	for i := 0; i < flatSections; i++ {
		offs[i] = pos
		pos = align8(pos + sizes[i])
	}
	total := pos
	buf := make([]byte, total)
	le := binary.LittleEndian

	le.PutUint32(buf[0:], flatMagic)
	le.PutUint32(buf[4:], flatVersion)
	le.PutUint64(buf[8:], total)
	le.PutUint32(buf[16:], uint32(nLeaves))
	le.PutUint32(buf[20:], flatSections)
	le.PutUint64(buf[24:], uint64(v.Requests()))
	le.PutUint32(buf[40:], uint32(len(name)))
	le.PutUint32(buf[44:], uint32(len(config)))

	copy(buf[offs[secStrings]:], name)
	copy(buf[offs[secStrings]+uint64(len(name)):], config)

	leafTab := buf[offs[secLeafTab]:]
	modelTab := buf[offs[secModels]:]
	rowOff := buf[offs[secRowOff]:]
	rowSum := buf[offs[secRowSum]:]
	edgeTo := buf[offs[secEdgeTo]:]
	edgeN := buf[offs[secEdgeN]:]
	valVal := buf[offs[secValVal]:]
	valN := buf[offs[secValN]:]

	var offAt, edgeAt, valAt uint32
	mi := 0
	putModel := func(m *markov.Model) {
		rec := modelTab[mi*modelRecBytes:]
		mi++
		if m.Constant {
			le.PutUint32(rec[0:], flatModelConstant)
			le.PutUint64(rec[24:], uint64(m.Value))
			le.PutUint64(rec[32:], uint64(m.Initial))
			return
		}
		le.PutUint32(rec[0:], flatModelMarkov)
		le.PutUint32(rec[4:], uint32(len(m.Vals)))
		le.PutUint32(rec[8:], valAt)
		le.PutUint32(rec[12:], offAt)
		le.PutUint32(rec[16:], edgeAt)
		le.PutUint32(rec[20:], uint32(len(m.To)))
		le.PutUint64(rec[24:], 0)
		le.PutUint64(rec[32:], uint64(m.Initial))
		for r, o := range m.RowOff {
			le.PutUint32(rowOff[(int(offAt)+r)*4:], o)
		}
		for j := range m.To {
			le.PutUint32(edgeTo[(int(edgeAt)+j)*4:], m.To[j])
			le.PutUint32(edgeN[(int(edgeAt)+j)*4:], m.N[j])
		}
		for k := range m.Vals {
			le.PutUint64(valVal[(int(valAt)+k)*8:], uint64(m.Vals[k]))
			le.PutUint32(valN[(int(valAt)+k)*4:], m.ValN[k])
			le.PutUint64(rowSum[(int(valAt)+k)*8:], m.RowSum[k])
		}
		offAt += uint32(len(m.RowOff))
		edgeAt += uint32(len(m.To))
		valAt += uint32(len(m.Vals))
	}
	var scratch Leaf
	for i := 0; i < nLeaves; i++ {
		l := v.LeafView(i, &scratch)
		rec := leafTab[i*leafRecBytes:]
		le.PutUint64(rec[0:], l.StartTime)
		le.PutUint64(rec[8:], l.StartAddr)
		le.PutUint64(rec[16:], l.Lo)
		le.PutUint64(rec[24:], l.Hi)
		le.PutUint32(rec[32:], l.Count)
		putModel(&l.DeltaTime)
		putModel(&l.Stride)
		putModel(&l.Op)
		putModel(&l.Size)
	}

	for i := 0; i < flatSections; i++ {
		e := buf[flatHeaderBytes+i*flatSecEntry:]
		le.PutUint64(e[0:], offs[i])
		le.PutUint64(e[8:], sizes[i])
		le.PutUint32(e[16:], crc32.Checksum(buf[offs[i]:offs[i]+sizes[i]], flatCRC))
	}
	crc := crc32.Update(0, flatCRC, buf[:48])
	crc = crc32.Update(crc, flatCRC, []byte{0, 0, 0, 0})
	crc = crc32.Update(crc, flatCRC, buf[52:flatDataStart])
	le.PutUint32(buf[48:], crc)
	return buf, nil
}

// WriteFlat writes the flat encoding of v to w.
func WriteFlat(w io.Writer, v View) error {
	buf, err := MarshalFlat(v)
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

// SniffFlat reports whether the buffer starts with the flat profile
// magic — enough to route a file between the gzip and flat decoders.
func SniffFlat(prefix []byte) bool {
	return len(prefix) >= 4 && binary.LittleEndian.Uint32(prefix) == flatMagic
}
