package profile

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/markov"
)

// The profile format uses varint-encoded records wrapped in gzip. The
// paper serialises profiles with protobuf + gzip; varints give the same
// compactness properties with only the standard library, keeping the
// Fig. 17 size comparison faithful.

const (
	profileMagic   = 0x4d50524f // "MPRO"
	profileVersion = 1

	modelConstant = 0
	modelMarkov   = 1
)

// Write serialises the profile (uncompressed varint records). Records
// stream through a bufio.Writer rather than accumulating in one large
// buffer.
func Write(w io.Writer, v View) error {
	bw := bufio.NewWriter(w)
	var tmp [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) {
		n := binary.PutUvarint(tmp[:], v)
		bw.Write(tmp[:n])
	}
	putVarint := func(v int64) {
		n := binary.PutVarint(tmp[:], v)
		bw.Write(tmp[:n])
	}
	putString := func(s string) {
		putUvarint(uint64(len(s)))
		bw.WriteString(s)
	}
	putModel := func(m *markov.Model) {
		if m.Constant {
			bw.WriteByte(modelConstant)
			putVarint(m.Value)
			return
		}
		bw.WriteByte(modelMarkov)
		putVarint(m.Initial)
		putUvarint(uint64(m.States()))
		for k := range m.Vals {
			lo, hi := m.RowOff[k], m.RowOff[k+1]
			if lo == hi {
				continue
			}
			putVarint(m.Vals[k])
			putUvarint(uint64(hi - lo))
			for j := lo; j < hi; j++ {
				putVarint(m.Vals[m.To[j]])
				putUvarint(uint64(m.N[j]))
			}
		}
	}

	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:], profileMagic)
	binary.LittleEndian.PutUint32(hdr[4:], profileVersion)
	bw.Write(hdr[:])
	name, config := v.Header()
	putString(name)
	putString(config)
	n := v.NumLeaves()
	putUvarint(uint64(n))
	var scratch Leaf
	for i := 0; i < n; i++ {
		l := v.LeafView(i, &scratch)
		putUvarint(l.StartTime)
		putUvarint(l.StartAddr)
		putUvarint(l.Lo)
		putUvarint(l.Hi)
		putUvarint(uint64(l.Count))
		putModel(&l.DeltaTime)
		putModel(&l.Stride)
		putModel(&l.Op)
		putModel(&l.Size)
	}
	return bw.Flush()
}

// capHint bounds an untrusted length prefix before it is used as an
// allocation hint: a corrupt or hostile stream may claim any element
// count, so preallocate at most a modest capacity and let append grow
// as elements actually decode.
func capHint(n uint64) uint64 {
	if n > 1<<16 {
		return 1 << 16
	}
	return n
}

// Read deserialises a profile written by Write. A *bufio.Reader passed
// as r is read directly, so the bytes after the profile stay in it.
func Read(r io.Reader) (*Profile, error) {
	br := bufio.NewReader(r)
	var hdr [8]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("profile: reading header: %w", err)
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != profileMagic {
		return nil, errors.New("profile: bad magic")
	}
	if v := binary.LittleEndian.Uint32(hdr[4:]); v != profileVersion {
		return nil, fmt.Errorf("profile: unsupported version %d", v)
	}
	getUvarint := func() (uint64, error) { return binary.ReadUvarint(br) }
	getVarint := func() (int64, error) { return binary.ReadVarint(br) }
	getString := func() (string, error) {
		n, err := getUvarint()
		if err != nil {
			return "", err
		}
		if n > 1<<20 {
			return "", errors.New("profile: string too long")
		}
		b := make([]byte, n)
		if _, err := io.ReadFull(br, b); err != nil {
			return "", err
		}
		return string(b), nil
	}
	getModel := func() (markov.Model, error) {
		kind, err := br.ReadByte()
		if err != nil {
			return markov.Model{}, err
		}
		switch kind {
		case modelConstant:
			v, err := getVarint()
			if err != nil {
				return markov.Model{}, err
			}
			return markov.Model{Constant: true, Value: v, Initial: v}, nil
		case modelMarkov:
			initial, err := getVarint()
			if err != nil {
				return markov.Model{}, err
			}
			nRows, err := getUvarint()
			if err != nil {
				return markov.Model{}, err
			}
			// Rows arrive keyed by value, in the order Write emits them.
			// Anything else — rows or edges out of order or repeated, or
			// an empty row — has no canonical dense table, so it is
			// rejected rather than normalised. Rows slice their edges
			// out of one growing array; a row keeps pointing at the
			// copy it was read into.
			rows := make([]markov.Row, 0, capHint(nRows))
			var edges []markov.Edge
			for i := uint64(0); i < nRows; i++ {
				from, err := getVarint()
				if err != nil {
					return markov.Model{}, err
				}
				if i > 0 && from <= rows[i-1].From {
					return markov.Model{}, fmt.Errorf("profile: row %d source %d not above %d", i, from, rows[i-1].From)
				}
				nEdges, err := getUvarint()
				if err != nil {
					return markov.Model{}, err
				}
				if nEdges == 0 {
					return markov.Model{}, fmt.Errorf("profile: row %d has no edges", i)
				}
				for j := uint64(0); j < nEdges; j++ {
					to, err := getVarint()
					if err != nil {
						return markov.Model{}, err
					}
					n, err := getUvarint()
					if err != nil {
						return markov.Model{}, err
					}
					if j > 0 && to <= edges[len(edges)-1].To {
						return markov.Model{}, fmt.Errorf("profile: row %d edge %d target %d not above %d", i, j, to, edges[len(edges)-1].To)
					}
					edges = append(edges, markov.Edge{To: to, N: uint32(n)})
				}
				rows = append(rows, markov.Row{From: from, Edges: edges[len(edges)-int(nEdges):]})
			}
			return markov.FromRows(initial, rows), nil
		default:
			return markov.Model{}, fmt.Errorf("profile: bad model kind %d", kind)
		}
	}

	p := &Profile{}
	var err error
	if p.Name, err = getString(); err != nil {
		return nil, err
	}
	if p.Config, err = getString(); err != nil {
		return nil, err
	}
	nLeaves, err := getUvarint()
	if err != nil {
		return nil, err
	}
	p.Leaves = make([]Leaf, 0, capHint(nLeaves))
	for i := uint64(0); i < nLeaves; i++ {
		var l Leaf
		if l.StartTime, err = getUvarint(); err != nil {
			return nil, err
		}
		if l.StartAddr, err = getUvarint(); err != nil {
			return nil, err
		}
		if l.Lo, err = getUvarint(); err != nil {
			return nil, err
		}
		if l.Hi, err = getUvarint(); err != nil {
			return nil, err
		}
		c, err := getUvarint()
		if err != nil {
			return nil, err
		}
		l.Count = uint32(c)
		if l.DeltaTime, err = getModel(); err != nil {
			return nil, err
		}
		if l.Stride, err = getModel(); err != nil {
			return nil, err
		}
		if l.Op, err = getModel(); err != nil {
			return nil, err
		}
		if l.Size, err = getModel(); err != nil {
			return nil, err
		}
		p.Leaves = append(p.Leaves, l)
	}
	return p, nil
}

// WriteGzip writes the profile through gzip; this is the on-disk format.
func WriteGzip(w io.Writer, v View) error {
	zw := gzip.NewWriter(w)
	if err := Write(zw, v); err != nil {
		zw.Close()
		return err
	}
	return zw.Close()
}

// ReadGzip reads a profile written by WriteGzip. The decompressed stream
// must end right after the last leaf: a gzip reader compares its CRC-32
// and length trailer only when a read reaches EOF, so this is the check
// that rejects a corrupted body that still inflates to a valid profile.
// Read parses through br itself, so no byte can hide in a second buffer.
func ReadGzip(r io.Reader) (*Profile, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, err
	}
	br := bufio.NewReader(zr)
	p, err := Read(br)
	if err != nil {
		return nil, err
	}
	if _, err := br.ReadByte(); err == nil {
		return nil, errors.New("profile: trailing data after the last leaf")
	} else if err != io.EOF {
		return nil, fmt.Errorf("profile: after the last leaf: %w", err)
	}
	return p, nil
}

// EncodedSize returns the gzip-compressed size of the profile in bytes,
// used by the Fig. 17 metadata-overhead experiment.
func EncodedSize(v View) (int, error) {
	var buf bytes.Buffer
	if err := WriteGzip(&buf, v); err != nil {
		return 0, err
	}
	return buf.Len(), nil
}
