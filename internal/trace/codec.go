package trace

import (
	"compress/gzip"
	"context"
	"io"
)

// The binary trace format is a sequence of fixed-width little-endian
// records preceded by a small header. The paper stores traces as
// gzip-compressed protobuf; we substitute a stdlib-only equivalent with the
// same practical properties (binary, compressed, self-describing) so that
// Fig. 17's trace-vs-profile size comparison remains meaningful.
//
// Every encoding is read back through NewDecoder, which sniffs the format.

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

// WriteGzip writes the binary format through a gzip compressor. This is the
// on-disk format used when comparing trace and profile sizes (Fig. 17).
func WriteGzip(w io.Writer, t Trace) error {
	zw := gzip.NewWriter(w)
	if _, err := WriteBinary(zw, t); err != nil {
		zw.Close()
		return err
	}
	return zw.Close()
}

// WriteCSV writes the trace as "time,op,addr,size" lines with a header
// and returns the number of bytes written. Addresses are hexadecimal.
// The format is intended for interchange with external tools and for
// human inspection.
func WriteCSV(w io.Writer, t Trace) (int64, error) {
	return WriteCSVStream(context.Background(), w, NewReplayer(t).Next)
}
