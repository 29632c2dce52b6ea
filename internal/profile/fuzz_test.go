package profile

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/markov"
	"repro/internal/partition"
	"repro/internal/stats"
	"repro/internal/trace"
)

// FuzzRead feeds arbitrary bytes to the profile decoder: it must accept
// or reject them without panicking or letting a hostile length prefix
// drive an allocation, and any profile it accepts must re-encode and
// re-decode to the same value.
func FuzzRead(f *testing.F) {
	tr := trace.Trace{
		{Time: 1, Addr: 0x1000, Size: 64, Op: trace.Read},
		{Time: 5, Addr: 0x1040, Size: 64, Op: trace.Write},
		{Time: 9, Addr: 0x1080, Size: 128, Op: trace.Read},
		{Time: 20, Addr: 0x1000, Size: 64, Op: trace.Read},
	}
	p, err := Build("seed", tr, partition.TwoLevelTS(100))
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, p); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte{})
	f.Add(buf.Bytes()[:9]) // header + truncated body
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := Write(&out, p); err != nil {
			t.Fatalf("re-encoding accepted profile: %v", err)
		}
		p2, err := Read(&out)
		if err != nil {
			t.Fatalf("re-decoding re-encoded profile: %v", err)
		}
		if !reflect.DeepEqual(p, p2) {
			t.Fatal("round trip changed profile")
		}
	})
}

// FuzzRoundTrip builds a profile from a fuzz-shaped (but well-formed)
// trace and asserts the codec reproduces it exactly, byte for byte.
func FuzzRoundTrip(f *testing.F) {
	f.Add(uint64(1), uint16(50), uint64(100_000))
	f.Add(uint64(7), uint16(300), uint64(1_000))
	f.Fuzz(func(t *testing.T, seed uint64, n uint16, interval uint64) {
		if interval == 0 {
			interval = 1
		}
		rng := stats.NewRNG(seed)
		tr := make(trace.Trace, 0, n)
		now, addr := uint64(0), uint64(1<<16)
		for i := 0; i < int(n); i++ {
			now += uint64(rng.Range(0, 500))
			addr += uint64(rng.Range(-8, 16) * 32)
			op := trace.Read
			if rng.Bool(0.4) {
				op = trace.Write
			}
			tr = append(tr, trace.Request{
				Time: now, Addr: addr,
				Size: uint32(8 << rng.Intn(5)), Op: op,
			})
		}
		p, err := Build("fuzz", tr, partition.TwoLevelTS(interval))
		if err != nil {
			t.Fatal(err)
		}
		var a bytes.Buffer
		if err := Write(&a, p); err != nil {
			t.Fatal(err)
		}
		p2, err := Read(bytes.NewReader(a.Bytes()))
		if err != nil {
			t.Fatalf("decoding valid profile: %v", err)
		}
		if !reflect.DeepEqual(p, p2) {
			t.Fatal("round trip changed profile")
		}
		var b bytes.Buffer
		if err := Write(&b, p2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatal("re-encoding is not byte-identical")
		}
	})
}

// FuzzFlatOpen feeds arbitrary bytes to the flat-profile opener: header,
// offset or checksum corruption must produce an error, never a panic,
// and never an allocation driven by an unvalidated length field (the
// flat decoder only ever slices the input buffer). Any buffer the
// verifying open accepts must also pass the structural-only open, view
// every leaf, and re-encode with Write.
func FuzzFlatOpen(f *testing.F) {
	tr := trace.Trace{
		{Time: 1, Addr: 0x1000, Size: 64, Op: trace.Read},
		{Time: 5, Addr: 0x1040, Size: 64, Op: trace.Write},
		{Time: 9, Addr: 0x1080, Size: 128, Op: trace.Read},
		{Time: 20, Addr: 0x1000, Size: 64, Op: trace.Read},
	}
	p, err := Build("seed", tr, partition.TwoLevelTS(100))
	if err != nil {
		f.Fatal(err)
	}
	buf, err := MarshalFlat(p)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(buf)
	f.Add([]byte{})
	f.Add(buf[:flatDataStart])
	mut := append([]byte(nil), buf...)
	mut[len(mut)-2] ^= 0xff
	f.Add(mut)
	f.Add(mutateMarkov(buf, badTarget))
	f.Fuzz(func(t *testing.T, data []byte) {
		fp, err := OpenFlat(data)
		if err != nil {
			// Structural-only opens may accept bit rot but must never
			// panic either.
			if fp2, err2 := OpenFlat(data, FlatNoVerify()); err2 == nil {
				exerciseFlat(fp2)
			}
			return
		}
		exerciseFlat(fp)
		var out bytes.Buffer
		if err := Write(&out, fp); err != nil {
			t.Fatalf("re-encoding accepted flat profile: %v", err)
		}
	})
}

// exerciseFlat touches every leaf view of an accepted buffer and drives
// a generator over each Markov model for twice its transitions (capped,
// since hostile counts may be huge); with the race/bounds checkers this
// proves structural validation made every span and index in-bounds, so
// synthesis from any accepted buffer never panics.
func exerciseFlat(fp *Flat) {
	var scratch Leaf
	for i := 0; i < fp.NumLeaves(); i++ {
		l := fp.LeafView(i, &scratch)
		_ = l.DeltaTime.States()
		_ = l.Size.Transitions()
		for _, m := range []*markov.Model{&l.DeltaTime, &l.Stride, &l.Op, &l.Size} {
			g := markov.NewGenerator(m, stats.NewRNG(uint64(i)))
			for n := min(2*m.Transitions()+1, 1<<12); n > 0; n-- {
				g.Next()
			}
		}
	}
}
