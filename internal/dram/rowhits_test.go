package dram

import (
	"testing"

	"repro/internal/stats"
	"repro/internal/trace"
)

// checkRowHits compares every bank's open-row counters, and each
// channel's totals, against a full rescan of both queues.
func checkRowHits(t *testing.T, s *System, i int) {
	t.Helper()
	for ci, c := range s.channels {
		want := make([][2]int32, len(c.banks))
		var total [2]int
		for qi, q := range [2][]burst{c.readQ, c.writeQ} {
			for _, b := range q {
				if bk := &c.banks[b.bank]; bk.open && b.row == bk.row {
					want[b.bank][qi]++
					total[qi]++
				}
			}
		}
		for bi := range c.banks {
			if c.banks[bi].hits != want[bi] {
				t.Fatalf("request %d: channel %d bank %d counts %v open-row bursts, rescan finds %v", i, ci, bi, c.banks[bi].hits, want[bi])
			}
		}
		if c.rowHits != total {
			t.Fatalf("request %d: channel %d totals %v open-row bursts, rescan finds %v", i, ci, c.rowHits, total)
		}
	}
}

// TestRowHitCountersMatchRescan drives random traffic over a few rows
// per bank, so row hits, conflicts, write drains and full queues all
// occur, and checks the incremental open-row counters after every
// injection.
func TestRowHitCountersMatchRescan(t *testing.T) {
	oneEntry := Default()
	oneEntry.ReadQueueDepth, oneEntry.WriteQueueDepth = 1, 1
	cfgs := []struct {
		name string
		cfg  Config
	}{
		{"default", Default()},
		{"refresh", Default().WithRefresh()},
		{"chargecache", Default().WithChargeCache(16)},
		{"1-entry-queues", oneEntry},
	}
	for _, c := range cfgs {
		t.Run(c.name, func(t *testing.T) {
			s := NewSystem(c.cfg, 20)
			rng := stats.NewRNG(3)
			stripes := uint64(c.cfg.Channels * c.cfg.banks() * 4) // 4 rows per bank
			var now uint64
			for i := 0; i < 20000; i++ {
				op := trace.Read
				if rng.Bool(0.35) {
					op = trace.Write
				}
				addr := uint64(rng.Intn(int(stripes)))*c.cfg.RowBufferBytes + uint64(rng.Intn(int(c.cfg.RowBufferBytes)))
				size := uint32(32 << rng.Intn(4))
				if d := s.Inject(req(now, addr, size, op)); d > 0 {
					now += d
				}
				now += uint64(rng.Intn(40))
				checkRowHits(t, s, i)
			}
			s.Drain()
			checkRowHits(t, s, -1)
		})
	}
}
