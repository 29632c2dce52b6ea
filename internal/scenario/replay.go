package scenario

import (
	"repro/internal/dram"
	"repro/internal/trace"
)

// DeviceReport is one device's share of a replayed scenario: its
// traffic counts and the contention it experienced inside the shared
// memory system (row hits against the interleaved row-buffer state,
// queue depths its bursts observed on arrival, mean request latency).
type DeviceReport struct {
	Name         string  `json:"name"`
	Profile      string  `json:"profile"`
	Requests     uint64  `json:"requests"`
	ReadBursts   uint64  `json:"read_bursts"`
	WriteBursts  uint64  `json:"write_bursts"`
	ReadRowHits  uint64  `json:"read_row_hits"`
	WriteRowHits uint64  `json:"write_row_hits"`
	AvgQueueLen  float64 `json:"avg_queue_len"`
	AvgLatency   float64 `json:"avg_latency_cycles"`
}

// Report is the JSON contention report of a replayed scenario:
// aggregate memory-system statistics plus the per-device breakdown (the
// paper's §VI mixing study).
type Report struct {
	Requests         uint64         `json:"requests"`
	ReadBursts       uint64         `json:"read_bursts"`
	WriteBursts      uint64         `json:"write_bursts"`
	ReadRowHits      uint64         `json:"read_row_hits"`
	WriteRowHits     uint64         `json:"write_row_hits"`
	AvgReadQueueLen  float64        `json:"avg_read_queue_len"`
	AvgWriteQueueLen float64        `json:"avg_write_queue_len"`
	AvgLatency       float64        `json:"avg_latency_cycles"`
	Devices          []DeviceReport `json:"devices"`
}

// replayChunk is the number of requests Replay's producer hands its
// consumer at once: large enough that the two channel operations per
// chunk vanish against the merge and DRAM work on 1024 requests.
const replayChunk = 1024

// replayBuffers is how many chunks circulate between the producer and
// the consumer: one being filled, one being injected, and two of slack
// so a stall on either side (a GC pause, a descheduled thread) does not
// immediately stall the other.
const replayBuffers = 4

// devReq is one merged request and the index of the device that
// produced it.
type devReq struct {
	r   trace.Request
	dev int32
}

// Replay drives the composed stream through a fresh crossbar + DRAM
// system with the spec's interconnect latency, delaying the stream's
// later requests by the backpressure, and returns the aggregate and per-device contention
// report. The per-device numbers are attributed at the moment each
// event happens inside the shared system, so a device's row hits
// reflect the row-buffer state all devices produce together.
//
// Backpressure shifts every not-yet-emitted request uniformly (see
// trace.Source), so the merge order never depends on what the memory
// system answers. Replay therefore merges on a producer goroutine, in
// chunks, while the calling goroutine injects: it adds the running sum
// of the delays so far to each request's time, which is exactly the
// time Stream.Delay would have given it. The report is identical to a
// serial NextDev/InjectTagged/Delay loop. The producer has exited
// when Replay returns or panics, so the caller may Close the stream
// right after.
func Replay(s *Stream, spec *Spec, cfg dram.Config) Report {
	devs := make([]dram.DeviceStats, len(spec.Devices))
	sys := dram.NewSystem(cfg, spec.XbarLatency)

	backing := make([]devReq, replayBuffers*replayChunk)
	free := make(chan []devReq, replayBuffers)
	for i := 0; i < replayBuffers; i++ {
		free <- backing[i*replayChunk : i*replayChunk : (i+1)*replayChunk]
	}
	full := make(chan []devReq, replayBuffers)
	done := make(chan struct{})
	var panicked any
	go func() {
		defer close(full)
		defer func() { panicked = recover() }()
		for {
			var buf []devReq
			select {
			case buf = <-free:
			case <-done:
				return
			}
			buf = buf[:0]
			for len(buf) < replayChunk {
				r, di, ok := s.NextDev()
				if !ok {
					break
				}
				buf = append(buf, devReq{r, int32(di)})
			}
			if len(buf) == 0 {
				return
			}
			select {
			case full <- buf:
			case <-done:
				return
			}
		}
	}()
	defer func() {
		// Stop the producer on every path and wait for it to exit.
		close(done)
		for range full {
		}
	}()

	var shift uint64
	for buf := range full {
		for i := range buf {
			r := buf[i].r
			r.Time += shift
			shift += sys.InjectTagged(r, &devs[buf[i].dev])
		}
		free <- buf
	}
	if panicked != nil {
		// A panic in synthesis surfaces on the caller's goroutine, as
		// it would in a serial loop.
		panic(panicked)
	}
	return report(spec, sys, devs)
}

// report drains the memory system and builds the contention report from
// its result and the per-device statistics.
func report(spec *Spec, sys *dram.System, devs []dram.DeviceStats) Report {
	sys.Drain()
	res := sys.Result()

	rep := Report{
		Requests:         res.Requests,
		ReadBursts:       res.ReadBursts(),
		WriteBursts:      res.WriteBursts(),
		ReadRowHits:      res.ReadRowHits(),
		WriteRowHits:     res.WriteRowHits(),
		AvgReadQueueLen:  res.AvgReadQueueLen(),
		AvgWriteQueueLen: res.AvgWriteQueueLen(),
		AvgLatency:       res.AvgLatency,
	}
	for i := range spec.Devices {
		d := &devs[i]
		rep.Devices = append(rep.Devices, DeviceReport{
			Name:         spec.DeviceName(i),
			Profile:      spec.Devices[i].Profile,
			Requests:     d.Requests,
			ReadBursts:   d.ReadBursts,
			WriteBursts:  d.WriteBursts,
			ReadRowHits:  d.ReadRowHits,
			WriteRowHits: d.WriteRowHits,
			AvgQueueLen:  d.AvgQueueLen(),
			AvgLatency:   d.AvgLatency(),
		})
	}
	return rep
}
