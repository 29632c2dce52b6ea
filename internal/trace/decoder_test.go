package trace

import (
	"bytes"
	"io"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"
	"unsafe"
)

// decoderTrace is a small trace exercising both ops, 64-bit addresses
// and varied sizes.
func decoderTrace() Trace {
	t := make(Trace, 0, 1000)
	for i := 0; i < 1000; i++ {
		op := Read
		if i%3 == 0 {
			op = Write
		}
		t = append(t, Request{
			Time: uint64(i) * 7,
			Addr: 0x8000_0000_0000 + uint64(i)*64,
			Size: uint32(16 << (i % 4)),
			Op:   op,
		})
	}
	return t
}

// TestRequestMemBytes pins the accounting constant to the real struct
// size: if Request grows, frontier accounting and -max-trace-bytes
// would silently under-count without this.
func TestRequestMemBytes(t *testing.T) {
	if got := unsafe.Sizeof(Request{}); got != RequestMemBytes {
		t.Fatalf("RequestMemBytes = %d but unsafe.Sizeof(Request{}) = %d", RequestMemBytes, got)
	}
}

// TestDecoderFormats decodes each encoding incrementally and checks the
// result against the original trace, the sniffed format name, and
// the Records counter — including through a one-byte-at-a-time reader
// to exercise every short-read path.
func TestDecoderFormats(t *testing.T) {
	want := decoderTrace()

	var bin, gz, csv bytes.Buffer
	if _, err := WriteBinary(&bin, want); err != nil {
		t.Fatal(err)
	}
	if err := WriteGzip(&gz, want); err != nil {
		t.Fatal(err)
	}
	if _, err := WriteCSV(&csv, want); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		format string
		data   []byte
	}{
		{"bin", bin.Bytes()},
		{"gz", gz.Bytes()},
		{"csv", csv.Bytes()},
	}
	for _, c := range cases {
		for _, stress := range []bool{false, true} {
			var r io.Reader = bytes.NewReader(c.data)
			name := c.format
			if stress {
				r = iotest.OneByteReader(r)
				name += "/one-byte"
			}
			t.Run(name, func(t *testing.T) {
				d, err := NewDecoder(r)
				if err != nil {
					t.Fatal(err)
				}
				if d.Format() != c.format {
					t.Fatalf("sniffed format %q, want %q", d.Format(), c.format)
				}
				got, err := d.ReadAll()
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("decoded %d requests, mismatch vs original %d", len(got), len(want))
				}
				if d.Records() != uint64(len(want)) {
					t.Fatalf("Records() = %d, want %d", d.Records(), len(want))
				}
			})
		}
	}
}

// TestDecoderEmptyInput: an empty stream sniffs as CSV and terminates
// immediately.
func TestDecoderEmptyInput(t *testing.T) {
	d, err := NewDecoder(bytes.NewReader(nil))
	if err != nil {
		t.Fatal(err)
	}
	if d.Format() != "csv" {
		t.Fatalf("empty input sniffed as %q, want csv", d.Format())
	}
	var r Request
	if err := d.Next(&r); err != io.EOF {
		t.Fatalf("Next on empty input = %v, want io.EOF", err)
	}
}

// TestDecoderErrors pins the decoder's error behaviour on malformed
// input: truncation, surplus bytes, bad magic, bad version, bad op, bad
// CSV fields.
func TestDecoderErrors(t *testing.T) {
	var bin bytes.Buffer
	if _, err := WriteBinary(&bin, decoderTrace()[:3]); err != nil {
		t.Fatal(err)
	}
	full := bin.Bytes()

	t.Run("truncated-record", func(t *testing.T) {
		d, err := NewDecoder(bytes.NewReader(full[:len(full)-5]))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.ReadAll(); err == nil || !strings.Contains(err.Error(), "reading record 2") {
			t.Fatalf("want record-2 truncation error, got %v", err)
		}
	})
	t.Run("truncated-header", func(t *testing.T) {
		// A "MOCK"-prefixed stream shorter than the header must fail
		// at header read, not fall through to CSV.
		if _, err := NewDecoder(bytes.NewReader(full[:10])); err == nil || !strings.Contains(err.Error(), "reading header") {
			t.Fatalf("want header error, got %v", err)
		}
	})
	t.Run("bad-version", func(t *testing.T) {
		bad := append([]byte(nil), full...)
		bad[4] = 99
		if _, err := NewDecoder(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "unsupported version") {
			t.Fatalf("want version error, got %v", err)
		}
	})
	t.Run("bad-op", func(t *testing.T) {
		bad := append([]byte(nil), full...)
		bad[16+20] = 7 // first record's op byte
		d, err := NewDecoder(bytes.NewReader(bad))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.ReadAll(); err == nil || !strings.Contains(err.Error(), "bad op 7") {
			t.Fatalf("want bad-op error, got %v", err)
		}
	})
	t.Run("concatenated-bin", func(t *testing.T) {
		// A second trace appended to the first is surplus data after
		// the announced records, not records to drop.
		two := append(append([]byte(nil), full...), full...)
		d, err := NewDecoder(bytes.NewReader(two))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.ReadAll(); err == nil || !strings.Contains(err.Error(), "trailing data after record 3") {
			t.Fatalf("want trailing-data error, got %v", err)
		}
	})
	t.Run("csv-bad-line", func(t *testing.T) {
		d, err := NewDecoder(strings.NewReader("1,R,10,64\nnot,a,line\n"))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.ReadAll(); err == nil || !strings.Contains(err.Error(), "line 2") {
			t.Fatalf("want line-2 error, got %v", err)
		}
	})
	t.Run("corrupt-gzip", func(t *testing.T) {
		if _, err := NewDecoder(bytes.NewReader([]byte{0x1f, 0x8b, 0x00})); err == nil {
			t.Fatal("want gzip open error, got nil")
		}
	})
}

// TestSliceReader: the adapter yields exactly the slice, then io.EOF
// forever.
func TestSliceReader(t *testing.T) {
	want := decoderTrace()[:5]
	sr := NewSliceReader(want)
	var got Trace
	var r Request
	for {
		err := sr.Next(&r)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, r)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("SliceReader changed the trace")
	}
	if err := sr.Next(&r); err != io.EOF {
		t.Fatalf("Next after exhaustion = %v, want io.EOF", err)
	}
}
