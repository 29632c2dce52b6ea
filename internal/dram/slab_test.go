package dram

import (
	"testing"

	"repro/internal/stats"
	"repro/internal/trace"
)

// TestInjectAllocFree checks that, once queues, histograms and the
// request slab have grown to their working size, injecting a request
// allocates nothing.
func TestInjectAllocFree(t *testing.T) {
	cfg := Default()
	s := NewSystem(cfg, 20)
	dev := &DeviceStats{}
	var now uint64
	i := 0
	inject := func() {
		// A periodic mix of reads and writes over 64 stripes of mixed
		// sizes, some spanning two rows.
		op := trace.Read
		if i%3 == 0 {
			op = trace.Write
		}
		addr := uint64(i%64)*cfg.RowBufferBytes + uint64(i%5)*200
		now += uint64(1 + i%7)
		if d := s.InjectTagged(req(now, addr, uint32(32+i%4*384), op), dev); d > 0 {
			now += d
		}
		i++
	}
	for i < 20000 {
		inject()
	}
	if allocs := testing.AllocsPerRun(5000, inject); allocs != 0 {
		t.Errorf("InjectTagged allocates %v times per request in steady state, want 0", allocs)
	}
}

// TestSlabBounded checks that the request slab never holds more slots
// than the queues hold bursts, and that every slot is recycled once the
// system drains.
func TestSlabBounded(t *testing.T) {
	cfg := Default()
	bound := cfg.Channels * (cfg.ReadQueueDepth + cfg.WriteQueueDepth)
	s := NewSystem(cfg, 0)
	rng := stats.NewRNG(5)
	var now uint64
	for i := 0; i < 100000; i++ {
		// Single-burst requests arriving far faster than the channels
		// drain them keep every queue near full, each burst its own
		// request.
		op := trace.Read
		if rng.Bool(0.4) {
			op = trace.Write
		}
		addr := uint64(rng.Intn(1<<22)) * cfg.BurstBytes
		if d := s.Inject(req(now, addr, 32, op)); d > 0 {
			now += d
		}
		now += uint64(rng.Intn(3))
		if len(s.reqs) > bound {
			t.Fatalf("request %d: slab holds %d slots, more than the %d bursts the queues hold", i, len(s.reqs), bound)
		}
	}
	if len(s.reqs) < bound/2 {
		t.Errorf("slab peaked at %d slots; the workload should keep queues near their %d bursts", len(s.reqs), bound)
	}
	s.Drain()
	if len(s.free) != len(s.reqs) {
		t.Errorf("after Drain %d of %d slots are free", len(s.free), len(s.reqs))
	}
	if res := s.Result(); res.Requests != 100000 {
		t.Errorf("Requests = %d, want 100000", res.Requests)
	}
}
