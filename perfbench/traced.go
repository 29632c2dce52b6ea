package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/dram"
	"repro/internal/profile"
	"repro/internal/scenario"
	"repro/internal/serve"
	"repro/internal/synth"
	"repro/internal/trace"
)

// The traced run calls, in-process and in the handlers' order, the same
// public layer functions mocktailsd's handlers call, and times each
// call from outside. Nothing inside the program is instrumented.

// attributionTolerance is the largest |bench.unattributed_share| a
// workload may show before its layer split is flagged as not summing to
// the whole.
const attributionTolerance = 0.10

// perLayer lists every metric the traced run reports, as BENCHMARK.json
// lists them.
var perLayer = []string{
	"serve.store.acquire_warm_us", "serve.store.promote_us", "serve.store.ram_hit_ratio",
	"serve.store.put_ms", "serve.profile_id_ms", "serve.http_overhead_ms",
	"synth.init_us.OpenCL1", "synth.init_us.Manhattan",
	"synth.generate_heap_ns_per_req", "synth.generate_flat_ns_per_req", "synth.alloc_bytes_per_op",
	"trace.wire_encode_ns_per_req", "trace.decode_ns_per_rec",
	"profile.build_stream_ms", "profile.flat_encode_ms", "profile.build_alloc_bytes",
	"partition.leaves.Crypto1", "partition.leaves.CPU-G", "partition.leaves.FBC-Tiled1",
	"partition.leaves.Multi-layer", "partition.leaves.T-Rex1", "partition.leaves.Manhattan",
	"partition.leaves.OpenCL1", "partition.leaves.HEVC1",
	"scenario.compose_ms", "scenario.merge_ns_per_req", "dram.inject_ns_per_req", "dram.requests",
	"bench.unattributed_share",
}

// endToEnd lists the metrics of an untraced run, as BENCHMARK.json
// lists them.
var endToEnd = []string{"throughput_rps", "latency_p50_ms", "latency_p95_ms", "server_peak_rss_mb", "setup_s"}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

// since returns the nanoseconds elapsed since t0.
func since(t0 time.Time) float64 { return float64(time.Since(t0).Nanoseconds()) }

// medianOf runs round rounds times and returns the median of its
// results. Each round starts from a collected heap, so one layer's
// garbage is not charged to the next.
func medianOf(rounds int, round func() float64) float64 {
	xs := make([]float64, rounds)
	for r := range xs {
		runtime.GC()
		xs[r] = round()
	}
	return median(xs)
}

// allocated returns the process's cumulative heap allocation.
func allocated() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// sliceNext replays a pre-drained request slice as a pull function.
func sliceNext(t trace.Trace) func() (trace.Request, bool) {
	i := 0
	return func() (trace.Request, bool) {
		if i == len(t) {
			return trace.Request{}, false
		}
		i++
		return t[i-1], true
	}
}

// inject replays a pre-merged scenario through a fresh xbar + DRAM
// system in scenario.Replay's order. Replay feeds each injection's
// backpressure to the merger, whose Delay shifts every later request
// uniformly; adding the running delay to the pre-merged times is the
// same schedule, so the result equals Replay's.
func inject(reqs trace.Trace, dev []int, ndev int, xbar uint64) dram.Result {
	devs := make([]dram.DeviceStats, ndev)
	sys := dram.NewSystem(dram.Default(), xbar)
	var shift uint64
	for j, r := range reqs {
		r.Time += shift
		shift += sys.InjectTagged(r, &devs[dev[j]])
	}
	sys.Drain()
	return sys.Result()
}

// merged drains a composed stream into its requests and device tags.
func merged(st *scenario.Stream) (trace.Trace, []int) {
	reqs := make(trace.Trace, 0, st.Total())
	dev := make([]int, 0, st.Total())
	for {
		r, d, ok := st.NextDev()
		if !ok {
			return reqs, dev
		}
		reqs = append(reqs, r)
		dev = append(dev, d)
	}
}

// traced measures every per-layer metric. wl names the workload whose
// request sequence is replayed for the attribution check; e2eP50Ms is
// that workload's end-to-end p50 and ramHit its daemon-side RAM hit
// ratio, both from the untraced measured phase.
func traced(c *corpus, wl workload, wlName string, seed uint64, dir string, e2eP50Ms, ramHit float64) (metrics, []string, error) {
	m := metrics{}
	m.set("serve.store.ram_hit_ratio", "ratio", ramHit)
	for _, e := range c.entries {
		m.set("partition.leaves."+e.Name, "count", float64(len(e.Prof.Leaves)))
	}
	for _, f := range []func(*corpus, uint64, string, metrics) error{
		storeLayers, synthLayers, ingestLayers, scenarioLayers,
	} {
		if err := f(c, seed, dir, m); err != nil {
			return nil, nil, err
		}
	}
	whole, parts, err := attribution(wl, dir)
	if err != nil {
		return nil, nil, err
	}
	var sumWhole, sumParts float64
	for k := range whole {
		sumWhole += whole[k]
		sumParts += parts[k]
	}
	share := 1 - sumParts/sumWhole
	inProcP50 := median(whole) / 1e6
	m.set("bench.unattributed_share", "ratio", share)
	m.set("serve.http_overhead_ms", "ms", e2eP50Ms-inProcP50)
	notes := []string{fmt.Sprintf("%s: in-process p50 %.3f ms over %d requests, layers cover %.1f%% of it",
		wlName, inProcP50, len(whole), 100*sumParts/sumWhole)}
	if math.Abs(share) > attributionTolerance {
		notes = append(notes, fmt.Sprintf("FLAG %s: %.1f%% of in-process wall time is unattributed (tolerance %.0f%%)",
			wlName, 100*share, 100*attributionTolerance))
	}
	return m, notes, nil
}

// storeLayers times the store on a disk-backed, unbounded store holding
// the whole set.
func storeLayers(c *corpus, _ uint64, dir string, m metrics) error {
	st, err := serve.NewTieredStore(serve.StoreConfig{Shards: 1, DiskDir: filepath.Join(dir, "store")})
	if err != nil {
		return err
	}
	defer os.RemoveAll(filepath.Join(dir, "store"))
	for _, e := range c.entries {
		if _, _, err := st.Put(e.Prof); err != nil {
			return err
		}
	}
	acquire := func(id string) (float64, error) {
		t0 := time.Now()
		pin, ok := st.Acquire(id)
		ns := since(t0)
		if !ok {
			return 0, fmt.Errorf("traced store lost %s", id)
		}
		pin.Release()
		return ns, nil
	}
	var warm, cold []float64
	for r := 0; r < 50; r++ {
		for _, e := range c.entries {
			ns, err := acquire(e.ID)
			if err != nil {
				return err
			}
			warm = append(warm, ns)
		}
	}
	for r := 0; r < 10; r++ {
		for _, e := range c.entries {
			if !st.Demote(e.ID) {
				return fmt.Errorf("traced store could not demote %s", e.Name)
			}
			ns, err := acquire(e.ID)
			if err != nil {
				return err
			}
			cold = append(cold, ns)
		}
	}
	m.set("serve.store.acquire_warm_us", "us", median(warm)/1e3)
	m.set("serve.store.promote_us", "us", median(cold)/1e3)

	// Put needs a fresh content address each time; the name is part of
	// the address, so a renamed shallow copy is a new profile.
	round := 0
	var putErr error
	m.set("serve.store.put_ms", "ms", medianOf(3, func() float64 {
		round++
		var ns float64
		for _, e := range c.entries {
			p := *e.Prof
			p.Name = fmt.Sprintf("%s-put-%d", e.Name, round)
			t0 := time.Now()
			_, added, err := st.Put(&p)
			ns += since(t0)
			if err == nil && !added {
				err = fmt.Errorf("traced put of %s deduped", p.Name)
			}
			putErr = firstError(putErr, err)
		}
		return ns / float64(len(c.entries)) / 1e6
	}))
	m.set("serve.profile_id_ms", "ms", medianOf(3, func() float64 {
		var ns float64
		for _, e := range c.entries {
			t0 := time.Now()
			_, _, err := serve.ProfileID(e.Prof)
			ns += since(t0)
			putErr = firstError(putErr, err)
		}
		return ns / float64(len(c.entries)) / 1e6
	}))
	return putErr
}

func firstError(prev, err error) error {
	if prev != nil {
		return prev
	}
	return err
}

// synthLayers times synthesis init, leaf generation over heap and flat
// views, wire encoding, and one synth request's allocation.
func synthLayers(c *corpus, seed uint64, _ string, m metrics) error {
	for _, name := range []string{"OpenCL1", "Manhattan"} {
		p := c.byName[name].Prof
		var ns []float64
		for k := uint64(0); k < 20; k++ {
			t0 := time.Now()
			src := synth.NewFrom(p, seed+k)
			ns = append(ns, since(t0))
			src.Close()
		}
		m.set("synth.init_us."+name, "us", median(ns)/1e3)
	}

	views := map[string][]profile.View{}
	for _, e := range c.entries {
		buf, err := profile.MarshalFlat(e.Prof)
		if err != nil {
			return err
		}
		f, err := profile.OpenFlat(buf)
		if err != nil {
			return err
		}
		views["heap"] = append(views["heap"], e.Prof)
		views["flat"] = append(views["flat"], f)
	}
	drained := make([]trace.Trace, len(c.entries))
	var total float64
	for _, e := range c.entries {
		total += float64(e.Records)
	}
	for _, kind := range []string{"heap", "flat"} {
		m.set("synth.generate_"+kind+"_ns_per_req", "ns/req", medianOf(3, func() float64 {
			var ns float64
			for i, v := range views[kind] {
				src := synth.NewFrom(v, seed)
				t0 := time.Now()
				drained[i] = drain(src, v.Requests())
				ns += since(t0)
				src.Close()
			}
			return ns / total
		}))
	}
	var encErr error
	m.set("trace.wire_encode_ns_per_req", "ns/req", medianOf(3, func() float64 {
		var ns float64
		for _, t := range drained {
			t0 := time.Now()
			_, err := trace.WriteBinaryStream(context.Background(), io.Discard, uint64(len(t)), sliceNext(t))
			ns += since(t0)
			encErr = firstError(encErr, err)
		}
		return ns / total
	}))

	// One synth request as the handler runs it, over the first block of
	// the synth-mix sequence (its exact popularity mix).
	runtime.GC()
	var alloc float64
	for i := 0; i < mixBlock; i++ {
		rank, s := synthPick(seed, i)
		p := c.entries[rank].Prof
		a0 := allocated()
		src := synth.NewFrom(p, s)
		n := uint64(p.Requests())
		_, err := trace.WriteBinaryStream(context.Background(), io.Discard, n, trace.Limit(src, n))
		src.Close()
		alloc += float64(allocated() - a0)
		encErr = firstError(encErr, err)
	}
	m.set("synth.alloc_bytes_per_op", "bytes", alloc/mixBlock)
	return encErr
}

// ingestLayers times trace decoding, the streaming fit, flat encoding
// and one fit's allocation, and checks each fit against the oracle.
func ingestLayers(c *corpus, _ uint64, _ string, m metrics) error {
	var records float64
	for _, e := range c.entries {
		records += float64(e.Records)
	}
	var buildErr error
	m.set("trace.decode_ns_per_rec", "ns/rec", medianOf(3, func() float64 {
		var ns float64
		for _, e := range c.entries {
			t0 := time.Now()
			d, err := trace.NewDecoder(bytes.NewReader(e.Gz))
			if err == nil {
				var r trace.Request
				for err == nil {
					err = d.Next(&r)
				}
			}
			ns += since(t0)
			if err != io.EOF {
				buildErr = firstError(buildErr, err)
			}
		}
		return ns / records
	}))
	var allocs float64
	m.set("profile.build_stream_ms", "ms", medianOf(2, func() float64 {
		var ns float64
		allocs = 0
		for _, e := range c.entries {
			a0 := allocated()
			t0 := time.Now()
			p, err := buildProfile(e.Name, e.Gz)
			ns += since(t0)
			allocs += float64(allocated() - a0)
			if err == nil {
				var id string
				if id, _, err = serve.ProfileID(p); err == nil && id != e.ID {
					err = fmt.Errorf("traced fit of %s is %s, oracle %s", e.Name, id, e.ID)
				}
			}
			buildErr = firstError(buildErr, err)
		}
		return ns / float64(len(c.entries)) / 1e6
	}))
	m.set("profile.build_alloc_bytes", "bytes", allocs/float64(len(c.entries)))
	m.set("profile.flat_encode_ms", "ms", medianOf(3, func() float64 {
		var ns float64
		for _, e := range c.entries {
			t0 := time.Now()
			_, err := profile.MarshalFlat(e.Prof)
			ns += since(t0)
			buildErr = firstError(buildErr, err)
		}
		return ns / float64(len(c.entries)) / 1e6
	}))
	return buildErr
}

// scenarioLayers times compose, the merge, and the xbar + DRAM
// injection of the 3-device scenario, and checks that the split replay
// reproduces scenario.Replay.
func scenarioLayers(c *corpus, seed uint64, _ string, m metrics) error {
	base := baseSpec(c)
	var compose, merge, inj []float64
	var res dram.Result
	for k := 0; k < 3; k++ {
		spec := scenarioSpec(base, seed, k)
		runtime.GC()
		t0 := time.Now()
		st, err := scenario.Compose(spec, c.heapResolver)
		compose = append(compose, since(t0))
		if err != nil {
			return err
		}
		t0 = time.Now()
		reqs, dev := merged(st)
		merge = append(merge, since(t0)/float64(len(reqs)))
		st.Close()
		t0 = time.Now()
		res = inject(reqs, dev, len(spec.Devices), spec.XbarLatency)
		inj = append(inj, since(t0)/float64(len(reqs)))
		if k == 0 {
			st, err := scenario.Compose(spec, c.heapResolver)
			if err != nil {
				return err
			}
			rep := scenario.Replay(st, spec, dram.Default())
			st.Close()
			if rep.Requests != res.Requests || rep.ReadRowHits != res.ReadRowHits() ||
				rep.WriteRowHits != res.WriteRowHits() || rep.AvgLatency != res.AvgLatency {
				return fmt.Errorf("split replay diverges from scenario.Replay: %+v vs %v", rep, res)
			}
		}
	}
	if want := scenarioRequests(c); res.Requests != want {
		return fmt.Errorf("dram replayed %d requests, want %d", res.Requests, want)
	}
	m.set("scenario.compose_ms", "ms", median(compose)/1e6)
	m.set("scenario.merge_ns_per_req", "ns/req", median(merge))
	m.set("dram.inject_ns_per_req", "ns/req", median(inj))
	m.set("dram.requests", "count", float64(res.Requests))
	return nil
}

// attributed is the least number of requests the attribution check
// replays, so one slow request does not decide the share.
const attributed = 16

// attribution replays the workload's first measured requests, as many
// as its warm-up and at least attributed, twice in-process, each pass
// on its own store
// configured and seeded like the daemon's: once whole, as the handler
// runs them, and once split into layers timed alone. It returns the
// per-request whole and summed-layer nanoseconds.
func attribution(wl workload, dir string) (whole, parts []float64, err error) {
	stores := make([]*serve.Store, 2)
	for k := range stores {
		sub := filepath.Join(dir, fmt.Sprint("attr", k))
		defer os.RemoveAll(sub)
		if stores[k], err = serve.NewTieredStore(wl.storeConfig(sub)); err != nil {
			return nil, nil, err
		}
		for _, e := range wl.seedSet() {
			if _, _, err := stores[k].Put(e.Prof); err != nil {
				return nil, nil, err
			}
		}
	}
	first := wl.warmup()
	for i := first; i < first+max(first, attributed); i++ {
		runtime.GC()
		w, err := wl.inProcess(stores[0], i, false)
		if err != nil {
			return nil, nil, err
		}
		p, err := wl.inProcess(stores[1], i, true)
		if err != nil {
			return nil, nil, err
		}
		whole, parts = append(whole, w), append(parts, p)
	}
	return whole, parts, nil
}

// inProcess is handleSynth: acquire (or promote), init, generate,
// wire-encode. Split, generation drains to a slice before encoding.
func (w *synthMix) inProcess(st *serve.Store, i int, split bool) (float64, error) {
	rank, s := synthPick(w.seed, i)
	id := w.c.entries[rank].ID
	ctx := context.Background()
	t0 := time.Now()
	pin, ok := st.Acquire(id)
	if !ok {
		return 0, fmt.Errorf("traced store lost %s", id)
	}
	defer pin.Release()
	n := pin.Meta().Requests
	if !split {
		src := synth.NewFrom(pin.View(), s, synth.Workers(1), synth.Context(ctx))
		_, err := trace.WriteBinaryStream(ctx, io.Discard, n, trace.Limit(src, n))
		src.Close()
		return since(t0), err
	}
	ns := since(t0)
	t0 = time.Now()
	src := synth.NewFrom(pin.View(), s, synth.Workers(1), synth.Context(ctx))
	ns += since(t0)
	defer src.Close()
	t0 = time.Now()
	t := drain(src, int(n))
	ns += since(t0)
	t0 = time.Now()
	_, err := trace.WriteBinaryStream(ctx, io.Discard, n, sliceNext(t))
	return ns + since(t0), err
}

// inProcess is handleUpload for a trace body: the streaming fit, then
// Put (content address, flat encode, disk write, admit). The two
// layers are already disjoint, so split times them one after the other.
func (w *ingest) inProcess(st *serve.Store, i int, split bool) (float64, error) {
	rank, name := ingestPick(w.seed, i)
	t0 := time.Now()
	p, err := buildProfile(name, w.c.entries[rank].Gz)
	if err != nil {
		return 0, err
	}
	build := since(t0)
	t1 := time.Now()
	_, added, err := st.Put(p)
	if err == nil && !added {
		err = fmt.Errorf("traced ingest of %s deduped", name)
	}
	if split {
		return build + since(t1), err
	}
	return since(t0), err
}

// inProcess is handleScenario with "output":"stats": pin the members,
// compose, replay, encode the report. Split, the replay is timed as the
// merge (drained to slices) plus the injection.
func (w *scenarioReplay) inProcess(st *serve.Store, i int, split bool) (float64, error) {
	spec := scenarioSpec(w.base, w.seed, i)
	t0 := time.Now()
	pins := map[string]*serve.Pin{}
	for _, d := range spec.Devices {
		if _, ok := pins[d.Profile]; !ok {
			pin, ok := st.Acquire(d.Profile)
			if !ok {
				return 0, fmt.Errorf("traced store lost %s", d.Profile)
			}
			defer pin.Release()
			pins[d.Profile] = pin
		}
	}
	resolve := func(id string) (profile.View, func(), error) { return pins[id].View(), func() {}, nil }
	ns := since(t0)
	t0 = time.Now()
	s, err := scenario.Compose(spec, resolve, scenario.Workers(1))
	if err != nil {
		return 0, err
	}
	defer s.Close()
	if !split {
		rep := scenario.Replay(s, spec, dram.Default())
		_, err := statsJSON(rep)
		return ns + since(t0), err
	}
	ns += since(t0)
	t0 = time.Now()
	reqs, dev := merged(s)
	ns += since(t0)
	t0 = time.Now()
	res := inject(reqs, dev, len(spec.Devices), spec.XbarLatency)
	ns += since(t0)
	// The report's JSON shape does not depend on its values, so encoding
	// a report of the same size times the handler's encode.
	rep := scenario.Report{Requests: res.Requests, Devices: make([]scenario.DeviceReport, len(spec.Devices))}
	t0 = time.Now()
	_, err = statsJSON(rep)
	return ns + since(t0), err
}
