package profile

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"reflect"
	"testing"

	"repro/internal/markov"
	"repro/internal/partition"
	"repro/internal/stats"
	"repro/internal/trace"
)

func req(t, a uint64, s uint32, op trace.Op) trace.Request {
	return trace.Request{Time: t, Addr: a, Size: s, Op: op}
}

func sampleTrace() trace.Trace {
	var tr trace.Trace
	rng := stats.NewRNG(5)
	tm := uint64(0)
	for i := 0; i < 500; i++ {
		tm += rng.Uint64n(100)
		op := trace.Read
		if rng.Bool(0.3) {
			op = trace.Write
		}
		tr = append(tr, req(tm, uint64((i%7)*4096)+rng.Uint64n(1024), 64, op))
	}
	return tr
}

func TestBuildCountsAndLeaves(t *testing.T) {
	tr := sampleTrace()
	p, err := Build("sample", tr, partition.TwoLevelTS(1000))
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "sample" {
		t.Errorf("Name = %q", p.Name)
	}
	if p.Requests() != len(tr) {
		t.Errorf("Requests() = %d, want %d", p.Requests(), len(tr))
	}
	if len(p.Leaves) == 0 {
		t.Fatal("no leaves")
	}
	for i, l := range p.Leaves {
		if l.Count == 0 {
			t.Errorf("leaf %d has zero count", i)
		}
		if l.Hi <= l.Lo {
			t.Errorf("leaf %d has empty bounds [%d,%d)", i, l.Lo, l.Hi)
		}
		if l.StartAddr < l.Lo || l.StartAddr >= l.Hi {
			t.Errorf("leaf %d start address outside bounds", i)
		}
	}
}

func TestBuildSingleRequestLeaf(t *testing.T) {
	tr := trace.Trace{req(10, 100, 64, trace.Write)}
	p, err := Build("one", tr, partition.TwoLevelTS(1000))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Leaves) != 1 || p.Leaves[0].Count != 1 {
		t.Fatalf("unexpected profile: %+v", p.Leaves)
	}
	l := p.Leaves[0]
	if !l.Op.Constant || l.Op.Value != int64(trace.Write) {
		t.Errorf("op model = %+v, want constant write", l.Op)
	}
	if !l.Size.Constant || l.Size.Value != 64 {
		t.Errorf("size model = %+v", l.Size)
	}
}

func TestConstantFeaturesDetected(t *testing.T) {
	// A pure linear read stream: stride, op and size are all constants.
	var tr trace.Trace
	for i := 0; i < 100; i++ {
		tr = append(tr, req(uint64(i*10), uint64(i*64), 64, trace.Read))
	}
	p, err := Build("linear", tr, partition.TwoLevelTS(1<<40))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Leaves) != 1 {
		t.Fatalf("got %d leaves", len(p.Leaves))
	}
	l := p.Leaves[0]
	if !l.Stride.Constant || l.Stride.Value != 64 {
		t.Errorf("stride model = %v", l.Stride.String())
	}
	if !l.DeltaTime.Constant || l.DeltaTime.Value != 10 {
		t.Errorf("dt model = %v", l.DeltaTime.String())
	}
	s := StatsOf(p)
	if s.Chains != 0 || s.Constants != 4 {
		t.Errorf("Stats = %+v, want all constants", s)
	}
}

func TestStatsCountsChains(t *testing.T) {
	tr := sampleTrace()
	p, _ := Build("sample", tr, partition.TwoLevelTS(1000))
	s := StatsOf(p)
	if s.Leaves != len(p.Leaves) {
		t.Errorf("Stats.Leaves = %d", s.Leaves)
	}
	if s.Constants+s.Chains != 4*s.Leaves {
		t.Errorf("constants+chains = %d, want %d", s.Constants+s.Chains, 4*s.Leaves)
	}
	if p.String() == "" {
		t.Error("empty String")
	}
}

func TestCodecRoundTrip(t *testing.T) {
	p, err := Build("roundtrip", sampleTrace(), partition.TwoLevelTS(1000))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, p); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, p) {
		t.Error("round trip mismatch")
	}
}

func TestGzipCodecRoundTrip(t *testing.T) {
	p, err := Build("gz", sampleTrace(), partition.TwoLevelTS(1000))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteGzip(&buf, p); err != nil {
		t.Fatal(err)
	}
	got, err := ReadGzip(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, p) {
		t.Error("gzip round trip mismatch")
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("garbagegarbage"))); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := Read(bytes.NewReader(nil)); err == nil {
		t.Error("empty input accepted")
	}
}

func TestReadRejectsTruncated(t *testing.T) {
	p, _ := Build("trunc", sampleTrace(), partition.TwoLevelTS(1000))
	var buf bytes.Buffer
	if err := Write(&buf, p); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	if _, err := Read(bytes.NewReader(b[:len(b)/2])); err == nil {
		t.Error("truncated profile accepted")
	}
}

func TestEncodedSizeNonTrivial(t *testing.T) {
	p, _ := Build("size", sampleTrace(), partition.TwoLevelTS(1000))
	n, err := EncodedSize(p)
	if err != nil {
		t.Fatal(err)
	}
	if n <= 0 {
		t.Errorf("EncodedSize = %d", n)
	}
}

func TestProfileSmallerThanTraceForRegularWorkload(t *testing.T) {
	// The paper's Fig. 17 claim in miniature: a regular workload's
	// profile is much smaller than its compressed trace.
	var tr trace.Trace
	for i := 0; i < 50000; i++ {
		tr = append(tr, req(uint64(i*7), uint64(i%1000)*64, 64, trace.Read))
	}
	p, err := Build("regular", tr, partition.TwoLevelRequestCount(10000, 0))
	if err != nil {
		t.Fatal(err)
	}
	pSize, err := EncodedSize(p)
	if err != nil {
		t.Fatal(err)
	}
	var tb bytes.Buffer
	if err := trace.WriteGzip(&tb, tr); err != nil {
		t.Fatal(err)
	}
	if pSize >= tb.Len() {
		t.Errorf("profile (%d bytes) not smaller than trace (%d bytes)", pSize, tb.Len())
	}
}

// rawProfile encodes a one-leaf varint profile whose delta-time model
// carries rows exactly as given, so tests can feed Read tables that
// Write never emits.
func rawProfile(initial int64, rows []markov.Row) []byte {
	b := binary.LittleEndian.AppendUint32(nil, profileMagic)
	b = binary.LittleEndian.AppendUint32(b, profileVersion)
	b = binary.AppendUvarint(b, 3)
	b = append(b, "raw"...)
	b = binary.AppendUvarint(b, 0) // config
	b = binary.AppendUvarint(b, 1) // leaves
	for _, v := range []uint64{0, 0x1000, 0x1000, 0x2000, 4} {
		b = binary.AppendUvarint(b, v)
	}
	b = append(b, modelMarkov)
	b = binary.AppendVarint(b, initial)
	b = binary.AppendUvarint(b, uint64(len(rows)))
	for _, r := range rows {
		b = binary.AppendVarint(b, r.From)
		b = binary.AppendUvarint(b, uint64(len(r.Edges)))
		for _, e := range r.Edges {
			b = binary.AppendVarint(b, e.To)
			b = binary.AppendUvarint(b, uint64(e.N))
		}
	}
	for range 3 { // stride, op, size
		b = append(b, modelConstant)
		b = binary.AppendVarint(b, 0)
	}
	return b
}

// TestReadRejectsNonCanonicalRows pins that the decoder accepts only
// the row order Write emits: sources strictly ascending, each row's
// targets strictly ascending, no empty row. The dense transition table
// has no representation for anything else.
func TestReadRejectsNonCanonicalRows(t *testing.T) {
	e := func(to int64) markov.Edge { return markov.Edge{To: to, N: 1} }
	canonical := rawProfile(1, []markov.Row{{From: 1, Edges: []markov.Edge{e(2)}}, {From: 2, Edges: []markov.Edge{e(1), e(3)}}})
	p, err := Read(bytes.NewReader(canonical))
	if err != nil {
		t.Fatalf("canonical rows rejected: %v", err)
	}
	var again bytes.Buffer
	if err := Write(&again, p); err != nil || !bytes.Equal(again.Bytes(), canonical) {
		t.Fatalf("canonical rows do not re-encode to the same bytes (err %v)", err)
	}
	for name, rows := range map[string][]markov.Row{
		"sources out of order": {{From: 2, Edges: []markov.Edge{e(1)}}, {From: 1, Edges: []markov.Edge{e(2)}}},
		"source repeated":      {{From: 1, Edges: []markov.Edge{e(2)}}, {From: 1, Edges: []markov.Edge{e(3)}}},
		"targets out of order": {{From: 1, Edges: []markov.Edge{e(3), e(2)}}},
		"target repeated":      {{From: 1, Edges: []markov.Edge{e(2), e(2)}}},
		"empty row":            {{From: 1, Edges: []markov.Edge{e(2)}}, {From: 2}},
	} {
		raw := rawProfile(1, rows)
		if _, err := Read(bytes.NewReader(raw)); err == nil {
			t.Errorf("%s: Read accepted", name)
		}
		var gz bytes.Buffer
		zw := gzip.NewWriter(&gz)
		zw.Write(raw)
		zw.Close()
		if _, err := ReadGzip(&gz); err == nil {
			t.Errorf("%s: ReadGzip accepted", name)
		}
	}
}

// TestGzipBitFlipsDetected sweeps single-bit flips over the deflate body
// of a gzip profile. A flip must either fail ReadGzip or leave the
// profile exactly the original: the CRC-32 in the gzip trailer has to be
// checked even though the leaf count already says where the profile ends.
func TestGzipBitFlipsDetected(t *testing.T) {
	p, err := Build("flips", sampleTrace(), partition.TwoLevelTS(1000))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteGzip(&buf, p); err != nil {
		t.Fatal(err)
	}
	gz := buf.Bytes()
	const header, trailer = 10, 8
	for i := header; i < len(gz)-trailer; i += 7 {
		bad := bytes.Clone(gz)
		bad[i] ^= 1 << (i % 8)
		got, err := ReadGzip(bytes.NewReader(bad))
		if err == nil && !reflect.DeepEqual(got, p) {
			t.Fatalf("flip at byte %d of %d read without error as a different profile", i, len(gz))
		}
	}
}

// TestGzipTrailerChecked: a corrupted CRC-32 or length in the gzip
// trailer, and decompressed bytes past the last leaf, are read errors.
func TestGzipTrailerChecked(t *testing.T) {
	p, err := Build("trailer", sampleTrace(), partition.TwoLevelTS(1000))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteGzip(&buf, p); err != nil {
		t.Fatal(err)
	}
	gz := buf.Bytes()
	for _, off := range []int{8, 4} { // first CRC byte, first ISIZE byte
		bad := bytes.Clone(gz)
		bad[len(bad)-off] ^= 0x01
		if _, err := ReadGzip(bytes.NewReader(bad)); err == nil {
			t.Errorf("trailer byte %d from the end flipped, ReadGzip accepted it", off)
		}
	}

	var raw, extra bytes.Buffer
	if err := Write(&raw, p); err != nil {
		t.Fatal(err)
	}
	zw := gzip.NewWriter(&extra)
	zw.Write(raw.Bytes())
	zw.Write([]byte("surplus"))
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadGzip(&extra); err == nil {
		t.Error("decompressed bytes after the last leaf accepted")
	}
}
