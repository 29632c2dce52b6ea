package trace

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"io"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// decode reads a trace through the sniffing decoder.
func decode(r io.Reader) (Trace, error) {
	d, err := NewDecoder(r)
	if err != nil {
		return nil, err
	}
	return d.ReadAll()
}

// decodeBinary reads r as the binary format without sniffing, so empty
// input is a header error rather than an empty CSV trace.
func decodeBinary(r io.Reader) (Trace, error) {
	d, err := newBinaryDecoder(bufio.NewReader(r))
	if err != nil {
		return nil, err
	}
	return d.ReadAll()
}

// decodeCSV reads r as CSV without sniffing.
func decodeCSV(r io.Reader) (Trace, error) {
	return newCSVDecoder(bufio.NewReader(r)).ReadAll()
}

func randomTrace(rng *rand.Rand, n int) Trace {
	t := make(Trace, n)
	tm := uint64(0)
	for i := range t {
		tm += uint64(rng.Intn(1000))
		op := Read
		if rng.Intn(2) == 1 {
			op = Write
		}
		t[i] = Request{
			Time: tm,
			Addr: rng.Uint64() >> 8,
			Size: uint32(1 + rng.Intn(256)),
			Op:   op,
		}
	}
	return t
}

func TestBinaryRoundTrip(t *testing.T) {
	tr := randomTrace(rand.New(rand.NewSource(1)), 500)
	var buf bytes.Buffer
	if _, err := WriteBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, tr) {
		t.Error("binary round trip mismatch")
	}
}

func TestBinaryRoundTripEmpty(t *testing.T) {
	var buf bytes.Buffer
	if _, err := WriteBinary(&buf, nil); err != nil {
		t.Fatal(err)
	}
	got, err := decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("got %d requests from empty trace", len(got))
	}
}

func TestGzipRoundTrip(t *testing.T) {
	tr := randomTrace(rand.New(rand.NewSource(2)), 300)
	var buf bytes.Buffer
	if err := WriteGzip(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, tr) {
		t.Error("gzip round trip mismatch")
	}
}

func TestGzipCompresses(t *testing.T) {
	// A regular trace should compress well below the raw record size.
	tr := make(Trace, 10000)
	for i := range tr {
		tr[i] = Request{Time: uint64(i) * 10, Addr: uint64(i) * 64, Size: 64, Op: Read}
	}
	var raw, gz bytes.Buffer
	if _, err := WriteBinary(&raw, tr); err != nil {
		t.Fatal(err)
	}
	if err := WriteGzip(&gz, tr); err != nil {
		t.Fatal(err)
	}
	if gz.Len() >= raw.Len() {
		t.Errorf("gzip (%d) not smaller than raw (%d)", gz.Len(), raw.Len())
	}
}

func TestCSVRoundTrip(t *testing.T) {
	tr := randomTrace(rand.New(rand.NewSource(3)), 200)
	var buf bytes.Buffer
	if _, err := WriteCSV(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, tr) {
		t.Error("csv round trip mismatch")
	}
}

func TestCSVAcceptsLowercaseOps(t *testing.T) {
	got, err := decode(strings.NewReader("1,r,10,4\n2,w,20,8\n"))
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Op != Read || got[1].Op != Write {
		t.Errorf("ops = %v %v", got[0].Op, got[1].Op)
	}
	// Header lines and blank lines are skipped wherever they appear.
	got2, err := decode(strings.NewReader("time,op,addr,size\n\n1,r,10,4\n\ntime,op,addr,size\n2,w,20,8\n"))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got2, got) {
		t.Errorf("header and blank lines changed the trace: %v vs %v", got2, got)
	}
}

func TestCSVRejectsBadInput(t *testing.T) {
	cases := []string{
		"1,R,10",          // too few fields
		"x,R,10,4",        // bad time
		"1,Q,10,4",        // bad op
		"1,R,zz,4",        // bad addr
		"1,R,10,notasize", // bad size
	}
	for _, c := range cases {
		if _, err := decode(strings.NewReader(c)); err == nil {
			t.Errorf("decoding %q succeeded, want error", c)
		}
	}
}

// The binary-format rejection cases run on the binary decoder itself:
// to the sniffing decoder, input without the magic is CSV.
func TestReadBinaryRejectsCorruptHeader(t *testing.T) {
	if _, err := decodeBinary(bytes.NewReader([]byte("notamagicheader!"))); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := decodeBinary(bytes.NewReader(nil)); err == nil {
		t.Error("empty input accepted")
	}
}

func TestReadBinaryRejectsTruncatedBody(t *testing.T) {
	tr := randomTrace(rand.New(rand.NewSource(4)), 10)
	var buf bytes.Buffer
	if _, err := WriteBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	if _, err := decode(bytes.NewReader(b[:len(b)-5])); err == nil {
		t.Error("truncated trace accepted")
	}
}

func TestReadBinaryRejectsBadOp(t *testing.T) {
	tr := Trace{{Time: 1, Addr: 2, Size: 3, Op: Read}}
	var buf bytes.Buffer
	if _, err := WriteBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	b[len(b)-1] = 7 // corrupt the op byte
	if _, err := decode(bytes.NewReader(b)); err == nil {
		t.Error("bad op accepted")
	}
}

func TestBinaryRoundTripProperty(t *testing.T) {
	check := func(times []uint16, addrSeed uint32) bool {
		rng := rand.New(rand.NewSource(int64(addrSeed)))
		tr := make(Trace, len(times))
		for i, tm := range times {
			op := Read
			if rng.Intn(2) == 1 {
				op = Write
			}
			tr[i] = Request{Time: uint64(tm), Addr: rng.Uint64(), Size: uint32(rng.Intn(1024) + 1), Op: op}
		}
		var buf bytes.Buffer
		if _, err := WriteBinary(&buf, tr); err != nil {
			return false
		}
		got, err := decode(&buf)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(got, tr) || (len(got) == 0 && len(tr) == 0)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestGzipDeterministicBytes: repeated writes of the same trace produce
// identical bytes, including a large trace that crosses many buffer
// flushes, and the large stream round-trips.
func TestGzipDeterministicBytes(t *testing.T) {
	tr := randomTrace(rand.New(rand.NewSource(9)), 200000)
	var a, b bytes.Buffer
	if err := WriteGzip(&a, tr); err != nil {
		t.Fatal(err)
	}
	if err := WriteGzip(&b, tr); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("WriteGzip is not byte-deterministic")
	}
	got, err := decode(&a)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, tr) {
		t.Fatal("large gzip round trip corrupted the trace")
	}
}

// TestGzipReadPropagatesCorruption: a truncated gzip stream must surface
// an error through the decoder, not hang or return short data.
func TestGzipReadPropagatesCorruption(t *testing.T) {
	tr := randomTrace(rand.New(rand.NewSource(3)), 5000)
	var buf bytes.Buffer
	if err := WriteGzip(&buf, tr); err != nil {
		t.Fatal(err)
	}
	cut := buf.Bytes()[:buf.Len()/2]
	if _, err := decode(bytes.NewReader(cut)); err == nil {
		t.Fatal("truncated gzip stream read without error")
	}
}

// TestGzipBitFlipsDetected sweeps single-bit flips over the deflate body
// of a gzip trace (every 97th byte). A flip must either fail the decode
// or leave the decoded trace exactly the original: the CRC-32 in the
// gzip trailer has to be checked even though the record count in the
// header already says where the records end.
func TestGzipBitFlipsDetected(t *testing.T) {
	tr := randomTrace(rand.New(rand.NewSource(5)), 5000)
	var buf bytes.Buffer
	if err := WriteGzip(&buf, tr); err != nil {
		t.Fatal(err)
	}
	gz := buf.Bytes()
	const header, trailer = 10, 8
	flips, rejected := 0, 0
	for i := header; i < len(gz)-trailer; i += 97 {
		bad := bytes.Clone(gz)
		bad[i] ^= 1 << (i % 8)
		flips++
		got, err := decode(bytes.NewReader(bad))
		if err != nil {
			rejected++
			continue
		}
		if !reflect.DeepEqual(got, tr) {
			t.Fatalf("flip at byte %d decoded without error to a different trace", i)
		}
	}
	t.Logf("%d of %d flips rejected, the rest decoded to the original", rejected, flips)
}

// TestGzipTrailerChecked: a corrupted CRC-32 or length in the gzip
// trailer, and decompressed bytes past the last announced record, are
// decode errors.
func TestGzipTrailerChecked(t *testing.T) {
	tr := randomTrace(rand.New(rand.NewSource(6)), 100)
	var buf bytes.Buffer
	if err := WriteGzip(&buf, tr); err != nil {
		t.Fatal(err)
	}
	gz := buf.Bytes()
	for _, off := range []int{8, 4} { // first CRC byte, first ISIZE byte
		bad := bytes.Clone(gz)
		bad[len(bad)-off] ^= 0x01
		if _, err := decode(bytes.NewReader(bad)); err == nil {
			t.Errorf("trailer byte %d from the end flipped, decode accepted it", off)
		}
	}

	// A valid gzip stream whose records are followed by surplus bytes.
	var bin, extra bytes.Buffer
	if _, err := WriteBinary(&bin, tr); err != nil {
		t.Fatal(err)
	}
	zw := gzip.NewWriter(&extra)
	zw.Write(bin.Bytes())
	zw.Write([]byte("surplus"))
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := decode(bytes.NewReader(extra.Bytes())); err == nil || !strings.Contains(err.Error(), "trailing data") {
		t.Errorf("surplus decompressed bytes: err = %v, want trailing-data error", err)
	}
}
