package profile

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/partition"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// flatTestProfile builds a moderately rich profile: multiple leaves,
// Markov and Constant models, and enough distinct values that some
// models cross the Fenwick cutoff.
func flatTestProfile(t *testing.T) *Profile {
	t.Helper()
	rng := stats.NewRNG(7)
	reqs := make(trace.Trace, 4000)
	tm := uint64(0)
	for i := range reqs {
		tm += uint64(rng.Intn(120))
		op := trace.Read
		if rng.Intn(3) == 0 {
			op = trace.Write
		}
		reqs[i] = trace.Request{
			Time: tm,
			Addr: 0x10_0000 + uint64(rng.Intn(1<<18)),
			Op:   op,
			Size: uint32(8 << rng.Intn(5)),
		}
	}
	p, err := Build("flat-test", reqs, partition.TwoLevelTS(150_000))
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return p
}

// TestFlatRoundTrip encodes flatTestProfile and every Table II proxy
// profile flat and reads the result back as a View: each leaf equals
// the heap leaf, and the varint and flat encoders give the same bytes
// for the flat view as for the heap profile it came from, so an address
// taken over either encoding survives a conversion.
func TestFlatRoundTrip(t *testing.T) {
	profiles := []*Profile{flatTestProfile(t)}
	for _, spec := range workloads.Catalog() {
		p, err := Build(spec.Name, spec.Gen(), partition.TwoLevelTS(500000))
		if err != nil {
			t.Fatalf("Build %s: %v", spec.Name, err)
		}
		profiles = append(profiles, p)
	}
	for _, p := range profiles {
		t.Run(p.Name, func(t *testing.T) { checkFlatRoundTrip(t, p) })
	}
}

func checkFlatRoundTrip(t *testing.T, p *Profile) {
	buf, err := MarshalFlat(p)
	if err != nil {
		t.Fatalf("MarshalFlat: %v", err)
	}
	if !SniffFlat(buf) {
		t.Fatal("SniffFlat rejects a flat buffer")
	}
	f, err := OpenFlat(buf)
	if err != nil {
		t.Fatalf("OpenFlat: %v", err)
	}
	if name, config := f.Header(); name != p.Name || config != p.Config {
		t.Errorf("strings: %q/%q, want %q/%q", name, config, p.Name, p.Config)
	}
	if f.NumLeaves() != len(p.Leaves) || f.Requests() != p.Requests() {
		t.Errorf("counts: %d leaves/%d reqs, want %d/%d",
			f.NumLeaves(), f.Requests(), len(p.Leaves), p.Requests())
	}
	if StatsOf(f) != StatsOf(p) {
		t.Errorf("StatsOf flat %+v, heap %+v", StatsOf(f), StatsOf(p))
	}
	// Offset 32 is reserved and written as zero.
	if got := binary.LittleEndian.Uint64(buf[32:]); got != 0 {
		t.Errorf("reserved header field = %d, want 0", got)
	}
	// Every leaf viewed through the flat buffer equals the heap leaf.
	var scratch Leaf
	for i := range p.Leaves {
		if f.LeafCount(i) != p.Leaves[i].Count {
			t.Fatalf("leaf %d count %d, want %d", i, f.LeafCount(i), p.Leaves[i].Count)
		}
		got := f.LeafView(i, &scratch)
		if !reflect.DeepEqual(*got, p.Leaves[i]) {
			t.Fatalf("leaf %d view differs from heap leaf", i)
		}
	}
	if buf2, err := MarshalFlat(f); err != nil || !bytes.Equal(buf2, buf) {
		t.Errorf("MarshalFlat of the flat view is not its own bytes (err %v)", err)
	}
	var canon, canon2 bytes.Buffer
	if err := Write(&canon, p); err != nil {
		t.Fatal(err)
	}
	if err := Write(&canon2, f); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(canon.Bytes(), canon2.Bytes()) {
		t.Error("Write of the flat view differs from Write of the heap profile")
	}
}

func TestFlatFileMmap(t *testing.T) {
	p := flatTestProfile(t)
	buf, err := MarshalFlat(p)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "p.mfp")
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := OpenFlatFile(path)
	if err != nil {
		t.Fatalf("OpenFlatFile: %v", err)
	}
	var canon, canon2 bytes.Buffer
	if err := Write(&canon, p); err != nil {
		t.Fatal(err)
	}
	if err := Write(&canon2, f); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(canon.Bytes(), canon2.Bytes()) {
		t.Error("mmap round trip changes canonical encoding")
	}
	// Unlink-while-mapped must keep the views readable (the disk tier
	// deletes cold files under open streams).
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	var scratch Leaf
	_ = f.LeafView(0, &scratch)
	if err := f.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func TestFlatCorruptionDetected(t *testing.T) {
	p := flatTestProfile(t)
	orig, err := MarshalFlat(p)
	if err != nil {
		t.Fatal(err)
	}
	// Any single-byte flip must be caught by a checksum (or a structural
	// check) — sample positions across the whole buffer.
	for _, pos := range []int{0, 5, 9, 17, 25, 49, flatHeaderBytes + 3, flatDataStart + 1,
		len(orig) / 2, len(orig) - 1} {
		buf := append([]byte(nil), orig...)
		buf[pos] ^= 0x40
		if _, err := OpenFlat(buf); err == nil {
			t.Errorf("corruption at byte %d not detected", pos)
		} else if !errors.Is(err, ErrFlatFormat) {
			t.Errorf("corruption at byte %d: error %v not an ErrFlatFormat", pos, err)
		}
	}
	// Truncations must error, not panic.
	for _, n := range []int{0, 3, flatHeaderBytes - 1, flatDataStart - 1, len(orig) - 9} {
		if _, err := OpenFlat(orig[:n]); err == nil {
			t.Errorf("truncation to %d bytes not detected", n)
		}
	}
	// NoVerify still rejects structural damage (a section span pushed
	// outside the buffer), just not pure bit rot.
	buf := append([]byte(nil), orig...)
	buf[flatHeaderBytes+2] = 0xff // section 0 offset high byte
	fixupHeaderCRC(buf)
	if _, err := OpenFlat(buf, FlatNoVerify()); err == nil {
		t.Error("NoVerify accepted an out-of-bounds section")
	}
}

// fixupHeaderCRC recomputes the header checksum after a test mutates
// the header or section table, so structural checks are reached.
func fixupHeaderCRC(buf []byte) {
	crc := crc32.Update(0, flatCRC, buf[:48])
	crc = crc32.Update(crc, flatCRC, []byte{0, 0, 0, 0})
	crc = crc32.Update(crc, flatCRC, buf[52:flatDataStart])
	binary.LittleEndian.PutUint32(buf[48:], crc)
}

// mutateMarkov returns a copy of the flat buffer whose first Markov
// model with edges is damaged by mutate, given the model record and the
// buffer; section and header checksums are recomputed afterwards, so
// only the structural pass can catch the damage.
func mutateMarkov(orig []byte, mutate func(buf, rec []byte)) []byte {
	buf := append([]byte(nil), orig...)
	le := binary.LittleEndian
	secOff := func(sec int) uint64 { return le.Uint64(buf[flatHeaderBytes+sec*flatSecEntry:]) }
	secSize := func(sec int) uint64 { return le.Uint64(buf[flatHeaderBytes+sec*flatSecEntry+8:]) }
	models := buf[secOff(secModels) : secOff(secModels)+secSize(secModels)]
	for mi := 0; mi < len(models)/modelRecBytes; mi++ {
		rec := models[mi*modelRecBytes : (mi+1)*modelRecBytes]
		if le.Uint32(rec[0:]) == flatModelMarkov && le.Uint32(rec[20:]) > 0 {
			mutate(buf, rec)
			break
		}
	}
	for sec := 0; sec < flatSections; sec++ {
		e := buf[flatHeaderBytes+sec*flatSecEntry:]
		le.PutUint32(e[16:], crc32.Checksum(buf[secOff(sec):secOff(sec)+secSize(sec)], flatCRC))
	}
	fixupHeaderCRC(buf)
	return buf
}

// badTarget points the model's first edge one past its value count.
func badTarget(buf, rec []byte) {
	le := binary.LittleEndian
	at := le.Uint64(buf[flatHeaderBytes+secEdgeTo*flatSecEntry:]) + 4*uint64(le.Uint32(rec[16:]))
	le.PutUint32(buf[at:], le.Uint32(rec[4:]))
}

// badInitial sets the model's initial value to one below its smallest
// value, so it is missing from the model's values.
func badInitial(buf, rec []byte) {
	le := binary.LittleEndian
	at := le.Uint64(buf[flatHeaderBytes+secValVal*flatSecEntry:]) + 8*uint64(le.Uint32(rec[8:]))
	le.PutUint64(rec[32:], le.Uint64(buf[at:])-1)
}

// TestFlatRejectsBadIndices pins the index checks of the structural
// pass: an edge target outside the model's values, or an initial value
// missing from them, is rejected with checksums intact and without
// them, since a generator would index past its tables.
func TestFlatRejectsBadIndices(t *testing.T) {
	orig, err := MarshalFlat(flatTestProfile(t))
	if err != nil {
		t.Fatal(err)
	}
	for name, mutate := range map[string]func(buf, rec []byte){"target": badTarget, "initial": badInitial} {
		buf := mutateMarkov(orig, mutate)
		if bytes.Equal(buf, orig) {
			t.Fatalf("%s: mutation changed nothing", name)
		}
		for _, opts := range [][]FlatOption{nil, {FlatNoVerify()}} {
			if _, err := OpenFlat(buf, opts...); !errors.Is(err, ErrFlatFormat) {
				t.Errorf("%s (%d options): OpenFlat error %v, want ErrFlatFormat", name, len(opts), err)
			}
		}
	}
}
