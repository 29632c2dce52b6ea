package scenario

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/dram"
	"repro/internal/profile"
	"repro/internal/trace"
)

// serialReplay is the reference Replay must equal: one goroutine that
// pulls each request, injects it and feeds its delay back through
// Stream.Delay.
func serialReplay(s *Stream, spec *Spec, cfg dram.Config) Report {
	devs := make([]dram.DeviceStats, len(spec.Devices))
	sys := dram.NewSystem(cfg, spec.XbarLatency)
	for {
		r, di, ok := s.NextDev()
		if !ok {
			break
		}
		if d := sys.InjectTagged(r, &devs[di]); d > 0 {
			s.Delay(d)
		}
	}
	return report(spec, sys, devs)
}

// waitGoroutines waits for the goroutine count to fall back to base: an
// exited goroutine can still be counted for a moment after the channel
// close that signals its exit.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Replay, %d before", runtime.NumGoroutine(), base)
		}
		runtime.Gosched()
	}
}

func TestReplayMatchesSerialLoop(t *testing.T) {
	long := testProfile(t, 4, 3000)
	r := &mapResolver{views: map[string]profile.View{
		hexID('a'): testProfile(t, 1, 300),
		hexID('b'): testProfile(t, 2, 300),
		hexID('c'): testProfile(t, 3, 300),
		hexID('d'): long,
		hexID('e'): &profile.Profile{Name: "empty"},
	}}
	three, _ := threeDeviceSpec(t)
	if long.Requests() < 2*replayChunk {
		t.Fatalf("long profile has %d requests, want at least %d", long.Requests(), 2*replayChunk)
	}
	cases := []struct {
		name  string
		spec  *Spec
		total uint64
	}{
		// Every knob, 750 requests: also shorter than one chunk.
		{"3-device", three, 750},
		// Device 1's cap ends it partway through the second chunk. Both
		// devices are compressed in time until the queues fill, so
		// backpressure shifts most requests.
		{"count ends mid-chunk", &Spec{XbarLatency: 10, Devices: []Device{
			{Profile: hexID('d'), Seed: 1, Dilation: 0.01},
			{Profile: hexID('d'), Seed: 2, Count: 1500, Dilation: 0.005, Window: &Window{Base: 1 << 30, Size: 1 << 20}},
		}}, uint64(long.Requests()) + 1500},
		// Device 1 emits nothing: a nil merge source between two live ones.
		{"empty device", &Spec{Devices: []Device{
			{Profile: hexID('a'), Seed: 1},
			{Profile: hexID('e'), Seed: 2},
			{Profile: hexID('b'), Seed: 3},
		}}, 600},
		{"shorter than one chunk", &Spec{Devices: []Device{{Profile: hexID('a'), Seed: 5, Count: 100}}}, 100},
		{"exact chunk multiple", &Spec{Devices: []Device{
			{Profile: hexID('d'), Seed: 1, Count: replayChunk},
			{Profile: hexID('d'), Seed: 7, Count: replayChunk, Window: &Window{Base: 1 << 30, Size: 1 << 20}},
		}}, 2 * replayChunk},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			want := func() Report {
				s := mustCompose(t, c.spec, r.resolve)
				defer s.Close()
				return serialReplay(s, c.spec, dram.Default())
			}()
			if want.Requests != c.total {
				t.Fatalf("serial loop replayed %d requests, want %d", want.Requests, c.total)
			}
			base := runtime.NumGoroutine()
			s := mustCompose(t, c.spec, r.resolve)
			got := Replay(s, c.spec, dram.Default())
			s.Close()
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("Replay diverges from the serial loop:\n got %+v\nwant %+v", got, want)
			}
			waitGoroutines(t, base)
		})
	}
}

func TestReplayConsumerPanicStopsProducer(t *testing.T) {
	// A spec with fewer devices than the stream makes the consumer
	// index past its device stats; the producer must still exit.
	spec, r := threeDeviceSpec(t)
	base := runtime.NumGoroutine()
	s := mustCompose(t, spec, r.resolve)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Replay with a short device list did not panic")
			}
		}()
		Replay(s, &Spec{Devices: spec.Devices[:1]}, dram.Default())
	}()
	s.Close()
	waitGoroutines(t, base)
}

// panicPuller emits n requests, one per cycle, then panics.
type panicPuller struct{ i, n int }

func (p *panicPuller) Next() (trace.Request, bool) {
	if p.i == p.n {
		panic("source failed")
	}
	p.i++
	return trace.Request{Time: uint64(p.i), Size: 64}, true
}

func TestReplayProducerPanicSurfaces(t *testing.T) {
	base := runtime.NumGoroutine()
	s := &Stream{m: trace.Merge(&panicPuller{n: 3 * replayChunk / 2})}
	defer func() {
		if p := recover(); p != "source failed" {
			t.Errorf("recovered %v, want the source's panic", p)
		}
		waitGoroutines(t, base)
	}()
	Replay(s, &Spec{Devices: []Device{{Profile: hexID('a')}}}, dram.Default())
}
