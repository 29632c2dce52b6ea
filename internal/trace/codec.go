package trace

import (
	"bufio"
	"compress/gzip"
	"context"
	"io"

	"repro/internal/par"
)

// The binary trace format is a sequence of fixed-width little-endian
// records preceded by a small header. The paper stores traces as
// gzip-compressed protobuf; we substitute a stdlib-only equivalent with the
// same practical properties (binary, compressed, self-describing) so that
// Fig. 17's trace-vs-profile size comparison remains meaningful.

const (
	traceMagic   = 0x4d4f434b // "MOCK"
	traceVersion = 1
	recordSize   = 8 + 8 + 4 + 1
)

// WriteBinary writes the trace in the repository's binary record format
// and returns the number of bytes written to w.
func WriteBinary(w io.Writer, t Trace) (int64, error) {
	return WriteBinaryStream(context.Background(), w, uint64(len(t)), NewReplayer(t).Next)
}

// ReadBinary reads a trace written by WriteBinary. It is a collect loop
// over the incremental binary decoder, so the materialised and
// streaming paths share one implementation of the format.
func ReadBinary(r io.Reader) (Trace, error) {
	d, err := newBinaryDecoder(bufio.NewReaderSize(r, streamBufSize))
	if err != nil {
		return nil, err
	}
	return d.ReadAll()
}

// WriteGzip writes the binary format through a gzip compressor. This is the
// on-disk format used when comparing trace and profile sizes (Fig. 17).
//
// Encoding and compression are pipelined: a producer goroutine runs
// WriteBinary into a buffered pipe while the caller's goroutine
// compresses, so record encoding overlaps the (more expensive) deflate.
// gzip output depends only on the byte stream, so the result is identical
// to an unpipelined write.
func WriteGzip(w io.Writer, t Trace) error {
	zw := gzip.NewWriter(w)
	pr, pw := par.NewPipe(0, 0)
	go func() {
		_, err := WriteBinary(pw, t)
		pw.CloseWithError(err)
	}()
	if _, err := io.Copy(zw, pr); err != nil {
		pr.Close()
		zw.Close()
		return err
	}
	return zw.Close()
}

// ReadGzip reads a trace written by WriteGzip. Decompression runs on its
// own goroutine feeding a buffered pipe, so gunzip overlaps record
// parsing.
func ReadGzip(r io.Reader) (Trace, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, err
	}
	pr, pw := par.NewPipe(0, 0)
	go func() {
		_, cerr := io.Copy(pw, zr)
		if cerr == nil {
			cerr = zr.Close()
		} else {
			zr.Close()
		}
		pw.CloseWithError(cerr)
	}()
	t, err := ReadBinary(pr)
	pr.Close()
	return t, err
}

// WriteCSV writes the trace as "time,op,addr,size" lines with a header
// and returns the number of bytes written. Addresses are hexadecimal.
// The format is intended for interchange with external tools and for
// human inspection.
func WriteCSV(w io.Writer, t Trace) (int64, error) {
	return WriteCSVStream(context.Background(), w, NewReplayer(t).Next)
}

// ReadCSV reads a trace written by WriteCSV. Blank lines are ignored and a
// header line is skipped if present. Like ReadBinary it is a collect
// loop over the incremental decoder; an empty stream yields a nil trace.
func ReadCSV(r io.Reader) (Trace, error) {
	d := newCSVDecoder(bufio.NewReader(r))
	var t Trace
	var req Request
	for {
		err := d.Next(&req)
		if err == io.EOF {
			return t, nil
		}
		if err != nil {
			return nil, err
		}
		t = append(t, req)
	}
}
