package trace

import (
	"bytes"
	"context"
	"errors"
	"testing"
)

func streamTrace(n int) Trace {
	t := make(Trace, 0, n)
	now, addr := uint64(10), uint64(1<<20)
	for i := 0; i < n; i++ {
		now += uint64(3 + i%7)
		addr += uint64((i%5 - 2) * 64)
		op := Read
		if i%4 == 0 {
			op = Write
		}
		t = append(t, Request{Time: now, Addr: addr, Size: uint32(16 + i%3*16), Op: op})
	}
	return t
}

// The streaming encoders must emit exactly the bytes of the slice-based
// writers: the server's chunked responses are compared byte-for-byte
// against offline CLI output.
func TestStreamMatchesSliceWriters(t *testing.T) {
	tr := streamTrace(1000)

	var whole, streamed bytes.Buffer
	n, err := WriteBinary(&whole, tr)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(whole.Len()) {
		t.Fatalf("WriteBinary reported %d bytes, buffer holds %d", n, whole.Len())
	}
	sn, err := WriteBinaryStream(context.Background(), &streamed, uint64(len(tr)), Limit(NewReplayer(tr), 0))
	if err != nil {
		t.Fatal(err)
	}
	if sn != n || !bytes.Equal(whole.Bytes(), streamed.Bytes()) {
		t.Fatalf("binary stream differs: %d vs %d bytes", sn, n)
	}

	whole.Reset()
	streamed.Reset()
	cn, err := WriteCSV(&whole, tr)
	if err != nil {
		t.Fatal(err)
	}
	if cn != int64(whole.Len()) {
		t.Fatalf("WriteCSV reported %d bytes, buffer holds %d", cn, whole.Len())
	}
	csn, err := WriteCSVStream(context.Background(), &streamed, Limit(NewReplayer(tr), 0))
	if err != nil {
		t.Fatal(err)
	}
	if csn != cn || !bytes.Equal(whole.Bytes(), streamed.Bytes()) {
		t.Fatalf("csv stream differs: %d vs %d bytes", csn, cn)
	}
}

func TestStreamLimit(t *testing.T) {
	tr := streamTrace(500)
	var limited, prefix bytes.Buffer
	if _, err := WriteBinaryStream(context.Background(), &limited, 200, Limit(NewReplayer(tr), 200)); err != nil {
		t.Fatal(err)
	}
	if _, err := WriteBinary(&prefix, tr[:200]); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(limited.Bytes(), prefix.Bytes()) {
		t.Fatal("n-limited stream differs from the trace prefix encoding")
	}
	got, err := decode(&limited)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 200 {
		t.Fatalf("round trip decoded %d records, want 200", len(got))
	}
}

// A stream whose source runs dry before the promised count must fail:
// the binary header already declared the record count.
func TestStreamShortSource(t *testing.T) {
	tr := streamTrace(10)
	var buf bytes.Buffer
	if _, err := WriteBinaryStream(context.Background(), &buf, 50, Limit(NewReplayer(tr), 0)); err == nil {
		t.Fatal("short source did not error")
	}
}

// Cancellation aborts the write loop between record batches: the encode
// stops early, reports the context error and the bytes already emitted.
func TestStreamCancellation(t *testing.T) {
	tr := streamTrace(100000)
	ctx, cancel := context.WithCancel(context.Background())
	emitted := 0
	next := func() (Request, bool) {
		if emitted == 1000 {
			cancel()
		}
		r := tr[emitted]
		emitted++
		return r, true
	}
	var buf bytes.Buffer
	n, err := WriteBinaryStream(ctx, &buf, uint64(len(tr)), next)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if emitted >= 1000+2*cancelCheckEvery {
		t.Fatalf("encode pulled %d records after cancellation, want < %d", emitted-1000, 2*cancelCheckEvery)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("reported %d bytes, buffer holds %d", n, buf.Len())
	}

	var csv bytes.Buffer
	ctx2, cancel2 := context.WithCancel(context.Background())
	cancel2()
	if _, err := WriteCSVStream(ctx2, &csv, Limit(NewReplayer(tr), 0)); !errors.Is(err, context.Canceled) {
		t.Fatalf("csv err = %v, want context.Canceled", err)
	}
}
