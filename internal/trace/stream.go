package trace

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"io"
)

// The streaming encoders write requests pulled one at a time from a
// callback instead of a materialised Trace, so a server can pipe a
// multi-gigabyte synthesis straight into a network connection without
// ever holding the trace in memory. They are the primitives behind
// WriteBinary/WriteCSV; both check their context periodically so a
// consumer that disconnects aborts the encode within one record batch.

// cancelCheckEvery is how many records the streaming encoders emit
// between context checks. It matches the synthesizer's per-leaf chunk
// length, so a canceled stream stops pulling from a Synthesizer within
// one refill chunk.
const cancelCheckEvery = 256

// egressCounter counts the bytes that reach the underlying writer, so the
// encoders can report egress even when an error or cancellation cuts
// the stream short.
type egressCounter struct {
	w io.Writer
	n int64
}

func (c *egressCounter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// streamBufSize is the bufio size of the streaming encoders: large
// enough to keep per-record overhead negligible, small enough that a
// flush-per-buffer HTTP stream delivers promptly.
const streamBufSize = 32 << 10

// ctxErr reports the context's cancellation error, tolerating nil.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// WriteBinaryStream encodes exactly n requests pulled from next into the
// binary record format. The header's record count is written up front,
// so next must yield at least n requests; running dry earlier is an
// error (the stream would lie about its length). It returns the bytes
// written to w — on cancellation or error, the bytes that made it out
// before the abort.
func WriteBinaryStream(ctx context.Context, w io.Writer, n uint64, next func() (Request, bool)) (int64, error) {
	cw := &egressCounter{w: w}
	bw := bufio.NewWriterSize(cw, streamBufSize)
	var hdr [16]byte
	binary.LittleEndian.PutUint32(hdr[0:], traceMagic)
	binary.LittleEndian.PutUint32(hdr[4:], traceVersion)
	binary.LittleEndian.PutUint64(hdr[8:], n)
	if _, err := bw.Write(hdr[:]); err != nil {
		return cw.n, err
	}
	var rec [recordSize]byte
	for i := uint64(0); i < n; i++ {
		if i%cancelCheckEvery == 0 {
			if err := ctxErr(ctx); err != nil {
				bw.Flush()
				return cw.n, err
			}
		}
		r, ok := next()
		if !ok {
			bw.Flush()
			return cw.n, fmt.Errorf("trace: stream ended after %d of %d records", i, n)
		}
		binary.LittleEndian.PutUint64(rec[0:], r.Time)
		binary.LittleEndian.PutUint64(rec[8:], r.Addr)
		binary.LittleEndian.PutUint32(rec[16:], r.Size)
		rec[20] = byte(r.Op)
		if _, err := bw.Write(rec[:]); err != nil {
			return cw.n, err
		}
	}
	err := bw.Flush()
	return cw.n, err
}

// WriteCSVStream encodes requests pulled from next as CSV until next is
// exhausted. CSV carries no length header, so the stream may end at any
// point. It returns the bytes written to w.
func WriteCSVStream(ctx context.Context, w io.Writer, next func() (Request, bool)) (int64, error) {
	cw := &egressCounter{w: w}
	bw := bufio.NewWriterSize(cw, streamBufSize)
	if _, err := fmt.Fprintln(bw, "time,op,addr,size"); err != nil {
		return cw.n, err
	}
	for i := uint64(0); ; i++ {
		if i%cancelCheckEvery == 0 {
			if err := ctxErr(ctx); err != nil {
				bw.Flush()
				return cw.n, err
			}
		}
		r, ok := next()
		if !ok {
			break
		}
		if _, err := fmt.Fprintf(bw, "%d,%s,%x,%d\n", r.Time, r.Op, r.Addr, r.Size); err != nil {
			return cw.n, err
		}
	}
	err := bw.Flush()
	return cw.n, err
}

// BinaryEncodedSize returns the exact byte length of the binary
// encoding of an n-record trace (header plus fixed-width records), so a
// server can announce Content-Length before streaming.
func BinaryEncodedSize(n uint64) int64 {
	return 16 + int64(n)*recordSize
}

// Limit adapts a Source to a pull function that stops after n requests
// (n == 0 means unlimited). It is the bridge between a Synthesizer and
// the streaming encoders.
func Limit(s Source, n uint64) func() (Request, bool) {
	var seen uint64
	return func() (Request, bool) {
		if n > 0 && seen >= n {
			return Request{}, false
		}
		r, ok := s.Next()
		if ok {
			seen++
		}
		return r, ok
	}
}
