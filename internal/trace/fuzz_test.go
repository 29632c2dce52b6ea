package trace

import (
	"bytes"
	"compress/gzip"
	"io"
	"reflect"
	"strings"
	"testing"
)

// FuzzReadBinary feeds arbitrary bytes to the binary decoder: it must
// reject or accept them without panicking or over-allocating, and
// anything it accepts must survive a write/read round trip unchanged
// (the decoder and encoder agree on the format).
func FuzzReadBinary(f *testing.F) {
	var buf bytes.Buffer
	if _, err := WriteBinary(&buf, Trace{
		{Time: 1, Addr: 0x1000, Size: 64, Op: Read},
		{Time: 2, Addr: 0x1040, Size: 128, Op: Write},
	}); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte{})
	f.Add(buf.Bytes()[:17]) // header + truncated record
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := decodeBinary(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if _, err := WriteBinary(&out, tr); err != nil {
			t.Fatalf("re-encoding accepted trace: %v", err)
		}
		tr2, err := decodeBinary(&out)
		if err != nil {
			t.Fatalf("re-decoding re-encoded trace: %v", err)
		}
		if !reflect.DeepEqual(tr, tr2) {
			t.Fatalf("round trip changed trace: %d vs %d requests", len(tr), len(tr2))
		}
	})
}

// FuzzReadCSV feeds arbitrary text to the CSV decoder with the same
// contract: no panic, and accepted traces round-trip.
func FuzzReadCSV(f *testing.F) {
	f.Add("time,op,addr,size\n1,R,1000,64\n2,W,1040,128\n")
	f.Add("")
	f.Add("1,R,zz,64\n")
	f.Add("999999999999999999999999,R,0,64\n")
	f.Fuzz(func(t *testing.T, data string) {
		tr, err := decodeCSV(strings.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if _, err := WriteCSV(&out, tr); err != nil {
			t.Fatalf("re-encoding accepted trace: %v", err)
		}
		tr2, err := decodeCSV(&out)
		if err != nil {
			t.Fatalf("re-decoding re-encoded trace: %v", err)
		}
		if len(tr) != len(tr2) {
			t.Fatalf("round trip changed length: %d vs %d", len(tr), len(tr2))
		}
		if !reflect.DeepEqual(tr, tr2) {
			t.Fatal("round trip changed trace")
		}
	})
}

// FuzzStreamDecode feeds arbitrary bytes to the sniffing decoder. It
// must not panic; anything it accepts must re-encode in the sniffed
// format and decode back to the same trace; and an accepted gzip input
// must be a whole gzip stream whose checksum verifies.
func FuzzStreamDecode(f *testing.F) {
	var bin, gz bytes.Buffer
	seed := Trace{
		{Time: 1, Addr: 0x1000, Size: 64, Op: Read},
		{Time: 2, Addr: 0x1040, Size: 128, Op: Write},
	}
	if _, err := WriteBinary(&bin, seed); err != nil {
		f.Fatal(err)
	}
	if err := WriteGzip(&gz, seed); err != nil {
		f.Fatal(err)
	}
	f.Add(bin.Bytes())
	f.Add(gz.Bytes())
	f.Add([]byte("time,op,addr,size\n1,R,1000,64\n"))
	f.Add([]byte{})
	f.Add([]byte{0x1f, 0x8b, 0x00})
	f.Add(bin.Bytes()[:17])
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := NewDecoder(bytes.NewReader(data))
		if err != nil {
			return
		}
		tr, err := d.ReadAll()
		if err != nil {
			return
		}
		var out bytes.Buffer
		switch d.Format() {
		case "bin":
			_, err = WriteBinary(&out, tr)
		case "gz":
			if zr, zerr := gzip.NewReader(bytes.NewReader(data)); zerr != nil {
				t.Fatalf("accepted gzip input does not open: %v", zerr)
			} else if _, zerr := io.Copy(io.Discard, zr); zerr != nil {
				t.Fatalf("accepted gzip input does not verify: %v", zerr)
			}
			err = WriteGzip(&out, tr)
		default:
			_, err = WriteCSV(&out, tr)
		}
		if err != nil {
			t.Fatalf("re-encoding accepted %s trace: %v", d.Format(), err)
		}
		d2, err := NewDecoder(&out)
		if err != nil {
			t.Fatalf("re-decoding re-encoded %s trace: %v", d.Format(), err)
		}
		tr2, err := d2.ReadAll()
		if err != nil {
			t.Fatalf("re-decoding re-encoded %s trace: %v", d.Format(), err)
		}
		if d2.Format() != d.Format() || len(tr) != len(tr2) || (len(tr) > 0 && !reflect.DeepEqual(tr, tr2)) {
			t.Fatalf("%s round trip changed the trace: %d vs %d requests (re-sniffed as %s)", d.Format(), len(tr), len(tr2), d2.Format())
		}
	})
}

// FuzzBinaryRoundTrip builds a structurally valid trace from fuzzed
// values and asserts both codecs reproduce it exactly.
func FuzzBinaryRoundTrip(f *testing.F) {
	f.Add(uint64(1), uint64(0x1000), uint32(64), byte(0), uint8(3))
	f.Fuzz(func(t *testing.T, tm, addr uint64, size uint32, op byte, n uint8) {
		tr := make(Trace, 0, n)
		for i := uint8(0); i < n; i++ {
			tr = append(tr, Request{
				Time: tm + uint64(i),
				Addr: addr ^ uint64(i)<<12,
				Size: size + uint32(i),
				Op:   Op(op % 2),
			})
		}
		var bin bytes.Buffer
		if _, err := WriteBinary(&bin, tr); err != nil {
			t.Fatal(err)
		}
		got, err := decode(&bin)
		if err != nil {
			t.Fatalf("decoding valid trace: %v", err)
		}
		if len(got) != len(tr) || (len(tr) > 0 && !reflect.DeepEqual(got, tr)) {
			t.Fatalf("binary round trip changed trace (%d vs %d requests)", len(tr), len(got))
		}

		var gz bytes.Buffer
		if err := WriteGzip(&gz, tr); err != nil {
			t.Fatal(err)
		}
		got, err = decode(&gz)
		if err != nil {
			t.Fatalf("decoding valid gzip trace: %v", err)
		}
		if len(got) != len(tr) || (len(tr) > 0 && !reflect.DeepEqual(got, tr)) {
			t.Fatal("gzip round trip changed trace")
		}
	})
}
