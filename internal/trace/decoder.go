package trace

import (
	"bufio"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// The incremental decoder is the read-side counterpart of the streaming
// encoders in stream.go: it pulls one record at a time out of any of the
// repository's trace encodings, so a multi-gigabyte capture can flow
// through partitioning and fitting without ever being materialised as a
// []Request. ReadAll is the one materialising path, a collect loop over
// the same decoder, so the incremental and materialised paths can never
// disagree about the formats.

// RequestMemBytes is the in-memory footprint of one Request (the struct
// size including alignment padding). It is the unit in which streaming
// ingestion accounts its frontier and in which mocktailsd's
// -max-trace-bytes cap is expressed: the memory the materialised path
// would have needed for the same records.
const RequestMemBytes = 24

// Reader pulls requests one at a time. Next fills *Request and returns
// nil, io.EOF when the stream is exhausted, or a decode error. It is
// the pull interface between the trace decoder and the streaming
// partitioner/fitters; Source (a synthesis-side interface with
// backpressure) is its push-side sibling.
type Reader interface {
	Next(*Request) error
}

// Decoder incrementally decodes a trace from any of the repository's
// encodings, sniffing the format from the leading bytes:
//
//   - "MOCK" magic            -> the binary record format (WriteBinary)
//   - gzip magic (1f 8b)      -> gzip-compressed binary (WriteGzip)
//   - anything else           -> CSV (WriteCSV)
//
// A Decoder reads ahead only bufio-buffer granularity, so decoding is
// O(1) in trace length. It is not safe for concurrent use.
type Decoder struct {
	next    func(*Request) error
	format  string
	records uint64
	// announced is the binary header's record count, when the format
	// carries one (bin/gz). CSV streams announce nothing.
	announced uint64
}

// NewDecoder sniffs the format of r and returns a Decoder positioned at
// the first record. The returned error covers format sniffing and
// header validation; per-record errors surface from Next.
func NewDecoder(r io.Reader) (*Decoder, error) {
	br := bufio.NewReaderSize(r, streamBufSize)
	prefix, _ := br.Peek(4) // short or empty at EOF; sniffing tolerates both
	switch {
	case len(prefix) >= 2 && prefix[0] == 0x1f && prefix[1] == 0x8b:
		zr, err := gzip.NewReader(br)
		if err != nil {
			return nil, fmt.Errorf("trace: opening gzip stream: %w", err)
		}
		d, err := newBinaryDecoder(bufio.NewReaderSize(zr, streamBufSize))
		if err != nil {
			return nil, err
		}
		d.format = "gz"
		return d, nil
	case len(prefix) >= 4 && binary.LittleEndian.Uint32(prefix) == traceMagic:
		return newBinaryDecoder(br)
	default:
		return newCSVDecoder(br), nil
	}
}

// Next decodes the next request into req. It returns io.EOF when the
// stream ends cleanly.
func (d *Decoder) Next(req *Request) error {
	if err := d.next(req); err != nil {
		return err
	}
	d.records++
	return nil
}

// Format names the sniffed encoding: "bin", "csv" or "gz".
func (d *Decoder) Format() string { return d.format }

// Records returns the number of records decoded so far.
func (d *Decoder) Records() uint64 { return d.records }

// ReadAll drains the decoder into a materialised trace. The binary
// header's record count, when present, seeds the allocation — capped at
// a modest hint so a corrupt or hostile header cannot demand an
// arbitrary allocation before any record is read.
func (d *Decoder) ReadAll() (Trace, error) {
	hint := d.announced
	if hint > 1<<16 {
		hint = 1 << 16
	}
	t := make(Trace, 0, hint)
	var r Request
	for {
		err := d.Next(&r)
		if err == io.EOF {
			return t, nil
		}
		if err != nil {
			return nil, err
		}
		t = append(t, r)
	}
}

// newBinaryDecoder validates the binary header and returns a decoder
// over its records. The stream must end right after the announced
// records, so surplus bytes — a second trace appended to the first, say
// — are an error rather than silently dropped. A gzip reader compares
// its CRC-32 and length trailer only when a read reaches EOF, so this
// is also the check that rejects a corrupted gzip body that still
// inflates to valid records.
func newBinaryDecoder(br *bufio.Reader) (*Decoder, error) {
	var hdr [16]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != traceMagic {
		return nil, errors.New("trace: bad magic")
	}
	if v := binary.LittleEndian.Uint32(hdr[4:]); v != traceVersion {
		return nil, fmt.Errorf("trace: unsupported version %d", v)
	}
	n := binary.LittleEndian.Uint64(hdr[8:])
	d := &Decoder{format: "bin", announced: n}
	i := uint64(0)
	var end error // what every call past the last record returns
	var rec [recordSize]byte
	d.next = func(req *Request) error {
		if i >= n {
			if end == nil {
				end = io.EOF
				if _, err := br.ReadByte(); err == nil {
					end = fmt.Errorf("trace: trailing data after record %d", n)
				} else if err != io.EOF {
					end = fmt.Errorf("trace: after record %d: %w", n, err)
				}
			}
			return end
		}
		if _, err := io.ReadFull(br, rec[:]); err != nil {
			return fmt.Errorf("trace: reading record %d: %w", i, err)
		}
		op := Op(rec[20])
		if op != Read && op != Write {
			return fmt.Errorf("trace: record %d: bad op %d", i, rec[20])
		}
		req.Time = binary.LittleEndian.Uint64(rec[0:])
		req.Addr = binary.LittleEndian.Uint64(rec[8:])
		req.Size = binary.LittleEndian.Uint32(rec[16:])
		req.Op = op
		i++
		return nil
	}
	return d, nil
}

// newCSVDecoder returns a decoder over WriteCSV-format lines. Blank
// lines are ignored and a header line is skipped wherever it appears.
func newCSVDecoder(br *bufio.Reader) *Decoder {
	sc := bufio.NewScanner(br)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	line := 0
	d := &Decoder{format: "csv"}
	d.next = func(req *Request) error {
		for sc.Scan() {
			line++
			s := strings.TrimSpace(sc.Text())
			if s == "" || s == "time,op,addr,size" {
				continue
			}
			fields := strings.Split(s, ",")
			if len(fields) != 4 {
				return fmt.Errorf("trace: line %d: want 4 fields, got %d", line, len(fields))
			}
			tm, err := strconv.ParseUint(strings.TrimSpace(fields[0]), 10, 64)
			if err != nil {
				return fmt.Errorf("trace: line %d: time: %w", line, err)
			}
			var op Op
			switch strings.TrimSpace(fields[1]) {
			case "R", "r":
				op = Read
			case "W", "w":
				op = Write
			default:
				return fmt.Errorf("trace: line %d: bad op %q", line, fields[1])
			}
			addr, err := strconv.ParseUint(strings.TrimSpace(fields[2]), 16, 64)
			if err != nil {
				return fmt.Errorf("trace: line %d: addr: %w", line, err)
			}
			size, err := strconv.ParseUint(strings.TrimSpace(fields[3]), 10, 32)
			if err != nil {
				return fmt.Errorf("trace: line %d: size: %w", line, err)
			}
			req.Time, req.Addr, req.Size, req.Op = tm, addr, uint32(size), op
			return nil
		}
		if err := sc.Err(); err != nil {
			return err
		}
		return io.EOF
	}
	return d
}

// SliceReader adapts a materialised trace to the Reader pull interface,
// for tests and for feeding already-loaded traces through the streaming
// construction path.
type SliceReader struct {
	t Trace
	i int
}

// NewSliceReader returns a Reader over t.
func NewSliceReader(t Trace) *SliceReader { return &SliceReader{t: t} }

// Next returns the next request of the slice.
func (s *SliceReader) Next(r *Request) error {
	if s.i >= len(s.t) {
		return io.EOF
	}
	*r = s.t[s.i]
	s.i++
	return nil
}
