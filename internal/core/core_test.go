package core

import (
	"testing"

	"repro/internal/partition"
	"repro/internal/stats"
	"repro/internal/trace"
)

func workload(seed uint64, n int) trace.Trace {
	rng := stats.NewRNG(seed)
	var tr trace.Trace
	tm := uint64(0)
	for i := 0; i < n; i++ {
		tm += rng.Uint64n(50)
		op := trace.Read
		if rng.Bool(0.5) {
			op = trace.Write
		}
		tr = append(tr, trace.Request{Time: tm, Addr: uint64((i % 3) * 65536), Size: 64, Op: op})
	}
	return tr
}

func TestDefaultConfig(t *testing.T) {
	cfg := DefaultConfig()
	if len(cfg.Layers) != 2 {
		t.Fatalf("DefaultConfig layers = %d", len(cfg.Layers))
	}
	if cfg.Layers[0].Kind != partition.TemporalCycleCount || cfg.Layers[0].Param != 500000 {
		t.Errorf("layer 0 = %+v, want 500k-cycle temporal", cfg.Layers[0])
	}
	if cfg.Layers[1].Kind != partition.SpatialDynamic {
		t.Errorf("layer 1 = %+v, want dynamic spatial", cfg.Layers[1])
	}
}

func TestCPUPortConfig(t *testing.T) {
	cfg := CPUPortConfig()
	if cfg.Layers[0].Kind != partition.TemporalRequestCount || cfg.Layers[0].Param != 100000 {
		t.Errorf("layer 0 = %+v, want 100k-request temporal", cfg.Layers[0])
	}
}

func TestBuildRejectsUnsorted(t *testing.T) {
	tr := trace.Trace{
		{Time: 10, Addr: 0, Size: 4, Op: trace.Read},
		{Time: 5, Addr: 0, Size: 4, Op: trace.Read},
	}
	if _, err := Build("bad", tr, DefaultConfig()); err == nil {
		t.Error("unsorted trace accepted")
	}
}

func TestBuildAndSynthesize(t *testing.T) {
	tr := workload(1, 1000)
	p, err := Build("w", tr, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if p.Requests() != len(tr) {
		t.Errorf("profile holds %d requests, want %d", p.Requests(), len(tr))
	}
	got := trace.Collect(SynthesizeFrom(p, 5), 0)
	if len(got) != len(tr) {
		t.Errorf("synthesised %d requests, want %d", len(got), len(tr))
	}
}

func TestSynthesizeTraceSorted(t *testing.T) {
	tr := workload(2, 1000)
	p, err := Build("w", tr, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	got := SynthesizeTrace(p, 5)
	if !got.Sorted() {
		t.Error("SynthesizeTrace output unsorted")
	}
}

func TestClone(t *testing.T) {
	tr := workload(3, 800)
	syn, p, err := Clone("w", tr, DefaultConfig(), 9)
	if err != nil {
		t.Fatal(err)
	}
	if p == nil || len(syn) != len(tr) {
		t.Fatalf("Clone: %d requests, profile %v", len(syn), p)
	}
	wr, ww := tr.Counts()
	gr, gw := syn.Counts()
	if wr != gr || ww != gw {
		t.Errorf("Clone op counts %d/%d, want %d/%d", gr, gw, wr, ww)
	}
}

func TestCloneErrorPropagates(t *testing.T) {
	tr := trace.Trace{
		{Time: 10, Addr: 0, Size: 4, Op: trace.Read},
		{Time: 5, Addr: 0, Size: 4, Op: trace.Read},
	}
	if _, _, err := Clone("bad", tr, DefaultConfig(), 1); err == nil {
		t.Error("Clone accepted unsorted trace")
	}
}
