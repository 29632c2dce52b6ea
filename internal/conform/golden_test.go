package conform

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/korder"
	"repro/internal/partition"
	"repro/internal/profile"
	"repro/internal/scenario"
	"repro/internal/stats"
	"repro/internal/stm"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// The golden corpus freezes the exact bytes the pipeline produces for a
// set of small deterministic traces: the trace encoding, the profile
// built from it, and the trace synthesized back. Any byte drift in the
// partitioner, the McC fitting, the codecs, or the synthesis hot path —
// however it is refactored — fails TestGoldenCorpus. After an
// *intentional* output change, refresh the manifest with:
//
//	go test ./internal/conform -run TestGoldenCorpus -update
//
// Hashes cover the uncompressed binary encodings (trace.WriteBinary,
// profile.Write), which are fully deterministic; gzip framing is
// excluded so stdlib compressor changes cannot cause false alarms.

var update = flag.Bool("update", false, "rewrite the golden corpus manifest")

const manifestPath = "testdata/golden/manifest.json"

// goldenCase describes one corpus entry. The trace, config and seed are
// reconstructed from these fields; only digests are stored on disk.
type goldenCase struct {
	Name     string `json:"name"`
	Config   string `json:"config"`
	Seed     uint64 `json:"seed"`
	Requests int    `json:"requests"`
	Leaves   int    `json:"leaves"`
	TraceSHA string `json:"trace_sha256"`
	ProfSHA  string `json:"profile_sha256"`
	SynthSHA string `json:"synth_sha256"`
}

// goldenStream freezes one request stream produced by a merge-based
// path the trace/profile/synth triple does not reach: the STM and
// history-k baselines, scenario composition and trace.Merge itself.
type goldenStream struct {
	Name     string `json:"name"`
	Requests int    `json:"requests"`
	SHA      string `json:"sha256"`
}

type manifest struct {
	Cases   []goldenCase   `json:"cases"`
	Streams []goldenStream `json:"streams"`
	DRAM    []goldenStream `json:"dram"`
	Table2  []goldenStream `json:"table2"`
}

// goldenConfigs names the partition configurations the corpus uses.
func goldenConfigs() map[string]partition.Config {
	return map[string]partition.Config{
		"2lts-500k":   partition.TwoLevelTS(500_000),
		"2lts-100k":   partition.TwoLevelTS(100_000),
		"req-256-dyn": partition.TwoLevelRequestCount(256, 0),
		"req-512-4k":  partition.TwoLevelRequestCount(512, 4096),
		// A spatial first layer cannot stream: it drives the
		// materialising fallback of the streaming partitioner.
		"spatial-4k": {Layers: []partition.Layer{{Kind: partition.SpatialFixed, Param: 4096}}},
	}
}

// goldenTraces builds the corpus traces. Every entry is deterministic:
// same Go code, same bytes.
func goldenTraces() map[string]trace.Trace {
	constant := make(trace.Trace, 0, 100)
	for i := 0; i < 100; i++ {
		constant = append(constant, trace.Request{
			Time: 1000 + uint64(i)*10, Addr: 1 << 20, Size: 64, Op: trace.Read,
		})
	}
	hevc := workloads.HEVC(16, 10)
	if len(hevc) > 5000 {
		hevc = hevc[:5000]
	}
	crypto := workloads.Crypto(1)
	if len(crypto) > 4000 {
		crypto = crypto[:4000]
	}
	return map[string]trace.Trace{
		"uniform-tiny":    testTrace(1, 600),
		"two-phase":       testTrace(9, 1500),
		"constant-stream": constant,
		"single-request":  {{Time: 5, Addr: 0x1000, Size: 64, Op: trace.Write}},
		"hevc1-head":      hevc,
		"crypto1-head":    crypto,
	}
}

// goldenPlan fixes which (trace, config, seed) triples form the corpus.
func goldenPlan() []goldenCase {
	return []goldenCase{
		{Name: "uniform-tiny", Config: "2lts-100k", Seed: 42},
		{Name: "two-phase", Config: "req-256-dyn", Seed: 42},
		{Name: "two-phase", Config: "req-512-4k", Seed: 7},
		{Name: "constant-stream", Config: "2lts-500k", Seed: 42},
		{Name: "single-request", Config: "2lts-500k", Seed: 42},
		{Name: "hevc1-head", Config: "2lts-500k", Seed: 42},
		{Name: "crypto1-head", Config: "2lts-100k", Seed: 11},
		{Name: "two-phase", Config: "spatial-4k", Seed: 42},
	}
}

// goldenStreams computes the stream digests. Each entry is a pure
// function of the corpus traces and fixed seeds.
func goldenStreams(t *testing.T, traces map[string]trace.Trace, configs map[string]partition.Config) []goldenStream {
	t.Helper()
	var out []goldenStream
	add := func(name string, reqs trace.Trace, tags []byte) {
		out = append(out, goldenStream{
			Name:     name,
			Requests: len(reqs),
			SHA: digest(t, func(w io.Writer) error {
				if _, err := trace.WriteBinary(w, reqs); err != nil {
					return err
				}
				_, err := w.Write(tags)
				return err
			}),
		})
	}
	twoPhase := traces["two-phase"]

	sp, err := stm.Build("two-phase", twoPhase, configs["req-256-dyn"])
	if err != nil {
		t.Fatal(err)
	}
	add("stm/two-phase/req-256-dyn", trace.Collect(stm.Synthesize(sp, 42), 0), nil)

	kp, err := korder.Build("two-phase", twoPhase, configs["req-256-dyn"], 2)
	if err != nil {
		t.Fatal(err)
	}
	add("korder2/two-phase/req-256-dyn", trace.Collect(korder.Synthesize(kp, 42), 0), nil)

	// The 3-device compose; each request is tagged with its device.
	_, st := composeThreeDevices(t, traces, configs)
	var reqs trace.Trace
	var tags []byte
	for {
		r, dev, ok := st.NextDev()
		if !ok {
			break
		}
		reqs = append(reqs, r)
		tags = append(tags, byte(dev))
	}
	st.Close()
	add("compose/3-device", reqs, tags)

	// trace.Merge over replayers that collide on every timestamp, with
	// nil and empty arguments in between, and backpressure applied
	// mid-stream. Addr names the source.
	tied := func(src uint64) trace.Trace {
		var tr trace.Trace
		for i := uint64(0); i < 40; i++ {
			tr = append(tr, trace.Request{Time: 100 + i/src*src*10, Addr: src, Size: 64})
		}
		return tr
	}
	m := trace.Merge(trace.NewReplayer(tied(1)), nil, trace.NewReplayer(tied(2)),
		trace.NewReplayer(nil), trace.NewReplayer(tied(3)), trace.NewReplayer(tied(1)))
	var merged trace.Trace
	for {
		r, ok := m.Next()
		if !ok {
			break
		}
		merged = append(merged, r)
		if len(merged)%7 == 0 {
			m.Delay(5)
		}
	}
	add("merge/ties-nil-delay", merged, nil)
	return out
}

// composeThreeDevices composes the corpus' device-tagged scenario.
// Three devices; the first two share a profile and a seed, so every one
// of their requests ties on time and the device-index tie-break decides
// the order.
func composeThreeDevices(t *testing.T, traces map[string]trace.Trace, configs map[string]partition.Config) (*scenario.Spec, *scenario.Stream) {
	t.Helper()
	uni, err := core.Build("uniform-tiny", traces["uniform-tiny"], configs["2lts-100k"])
	if err != nil {
		t.Fatal(err)
	}
	hevc, err := core.Build("hevc1-head", traces["hevc1-head"], configs["2lts-500k"])
	if err != nil {
		t.Fatal(err)
	}
	id := func(c string) string { return strings.Repeat(c, 64) }
	views := map[string]profile.View{id("a"): uni, id("b"): hevc}
	spec := &scenario.Spec{Devices: []scenario.Device{
		{Profile: id("a"), Window: &scenario.Window{Base: 0, Size: 1 << 24}, Seed: 3},
		{Profile: id("a"), Window: &scenario.Window{Base: 1 << 24, Size: 1 << 24}, Seed: 3},
		{Profile: id("b"), Window: &scenario.Window{Base: 1 << 25, Size: 1 << 24}, Dilation: 0.5, Seed: 4, Count: 3000},
	}}
	st, err := scenario.Compose(spec, func(pid string) (profile.View, func(), error) {
		return views[pid], func() {}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return spec, st
}

// goldenDRAM computes the memory-system digests: the full dram.Result
// of two corpus traces under the default, refresh and ChargeCache
// configurations, and the indented JSON contention report of replaying
// the composed 3-device scenario.
func goldenDRAM(t *testing.T, traces map[string]trace.Trace, configs map[string]partition.Config) []goldenStream {
	t.Helper()
	var out []goldenStream
	cfgs := []struct {
		name string
		cfg  dram.Config
	}{
		{"default", dram.Default()},
		{"refresh", dram.Default().WithRefresh()},
		{"chargecache16", dram.Default().WithChargeCache(16)},
	}
	for _, name := range []string{"hevc1-head", "two-phase"} {
		for _, c := range cfgs {
			res := dram.Run(trace.NewReplayer(traces[name]), c.cfg, 20)
			out = append(out, goldenStream{
				Name:     "dram/" + name + "/" + c.name,
				Requests: int(res.Requests),
				SHA:      digest(t, func(w io.Writer) error { return dumpDRAM(w, res) }),
			})
		}
	}

	spec, st := composeThreeDevices(t, traces, configs)
	rep := scenario.Replay(st, spec, dram.Default())
	st.Close()
	out = append(out, goldenStream{
		Name:     "replay/3-device",
		Requests: int(rep.Requests),
		SHA: digest(t, func(w io.Writer) error {
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			return enc.Encode(rep)
		}),
	})
	return out
}

// TestGoldenReplayMatchesSerialLoop checks scenario.Replay, which
// merges and injects on two goroutines, against one serial loop that
// pulls each request of the golden 3-device scenario, injects it and
// feeds its delay back through Stream.Delay.
func TestGoldenReplayMatchesSerialLoop(t *testing.T) {
	traces, configs := goldenTraces(), goldenConfigs()
	spec, st := composeThreeDevices(t, traces, configs)
	got := scenario.Replay(st, spec, dram.Default())
	st.Close()

	spec, st = composeThreeDevices(t, traces, configs)
	defer st.Close()
	devs := make([]dram.DeviceStats, len(spec.Devices))
	sys := dram.NewSystem(dram.Default(), spec.XbarLatency)
	for {
		r, di, ok := st.NextDev()
		if !ok {
			break
		}
		if d := sys.InjectTagged(r, &devs[di]); d > 0 {
			st.Delay(d)
		}
	}
	sys.Drain()
	res := sys.Result()
	want := scenario.Report{
		Requests: res.Requests, ReadBursts: res.ReadBursts(), WriteBursts: res.WriteBursts(),
		ReadRowHits: res.ReadRowHits(), WriteRowHits: res.WriteRowHits(),
		AvgReadQueueLen: res.AvgReadQueueLen(), AvgWriteQueueLen: res.AvgWriteQueueLen(),
		AvgLatency: res.AvgLatency, Devices: got.Devices,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Replay aggregate diverges from the serial loop:\n got %+v\nwant %+v", got, want)
	}
	for i, d := range devs {
		g := got.Devices[i]
		if g.Requests != d.Requests || g.ReadBursts != d.ReadBursts || g.WriteBursts != d.WriteBursts ||
			g.ReadRowHits != d.ReadRowHits || g.WriteRowHits != d.WriteRowHits ||
			g.AvgQueueLen != d.AvgQueueLen() || g.AvgLatency != d.AvgLatency() {
			t.Errorf("device %d diverges from the serial loop: got %+v, want %+v", i, g, d)
		}
	}
}

// goldenTable2 computes the profile digest of every full-length Table
// II proxy under the §IV and §V configurations. Each trace is fit the
// way a trace upload is: its gzip encoding streams through the sniffing
// decoder into core.BuildStream, so the windows of thousands of
// requests the corpus heads above never reach are pinned too.
func goldenTable2(t *testing.T) []goldenStream {
	t.Helper()
	cfgs := []struct {
		name string
		cfg  partition.Config
	}{
		{"default", core.DefaultConfig()},
		{"cpuport", core.CPUPortConfig()},
	}
	var out []goldenStream
	for _, spec := range workloads.Catalog() {
		tr := spec.Gen()
		var gz bytes.Buffer
		if err := trace.WriteGzip(&gz, tr); err != nil {
			t.Fatal(err)
		}
		for _, c := range cfgs {
			d, err := trace.NewDecoder(bytes.NewReader(gz.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			p, err := core.BuildStream(spec.Name, d, c.cfg)
			if err != nil {
				t.Fatalf("%s/%s: %v", spec.Name, c.name, err)
			}
			out = append(out, goldenStream{
				Name:     spec.Name + "/" + c.name,
				Requests: len(tr),
				SHA:      digest(t, func(w io.Writer) error { return profile.Write(w, p) }),
			})
		}
	}
	return out
}

// dumpDRAM writes a canonical text form of every statistic a
// dram.Result carries, floats as their IEEE-754 bits.
func dumpDRAM(w io.Writer, res dram.Result) error {
	hist := func(name string, h *stats.Histogram) {
		fmt.Fprintf(w, "%s total=%d max=%d mean=%x\n", name, h.Total(), h.Max(), math.Float64bits(h.Mean()))
		for _, v := range h.Values() {
			fmt.Fprintf(w, "  %d:%d\n", v, h.Count(v))
		}
	}
	for i := range res.Channels {
		c := &res.Channels[i]
		fmt.Fprintf(w, "channel %d rb=%d wb=%d rrh=%d wrh=%d\n", i, c.ReadBursts, c.WriteBursts, c.ReadRowHits, c.WriteRowHits)
		hist("read_qlen", c.ReadQLenSeen)
		hist("write_qlen", c.WriteQLenSeen)
		hist("reads_per_turnaround", c.ReadsPerTurnaround)
		fmt.Fprintf(w, "bank_reads=%v bank_writes=%v\n", c.PerBankReadBursts, c.PerBankWriteBursts)
		fmt.Fprintf(w, "cc_hits=%d cc_lookups=%d refreshes=%d busy_until=%d\n",
			c.ChargeCache.Hits, c.ChargeCache.Lookups, c.Refreshes, c.BusyUntil)
	}
	_, err := fmt.Fprintf(w, "requests=%d avg_latency=%x avg_rq=%x avg_wq=%x\n", res.Requests,
		math.Float64bits(res.AvgLatency), math.Float64bits(res.AvgReadQueueLen()), math.Float64bits(res.AvgWriteQueueLen()))
	return err
}

// digest hashes whatever write emits.
func digest(t *testing.T, write func(io.Writer) error) string {
	t.Helper()
	h := sha256.New()
	if err := write(h); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// caseKey uniquely names a plan entry in the manifest.
func caseKey(c goldenCase) string { return c.Name + "/" + c.Config }

func TestGoldenCorpus(t *testing.T) {
	traces := goldenTraces()
	configs := goldenConfigs()

	var got manifest
	for _, plan := range goldenPlan() {
		tr, ok := traces[plan.Name]
		if !ok {
			t.Fatalf("plan references unknown trace %q", plan.Name)
		}
		cfg, ok := configs[plan.Config]
		if !ok {
			t.Fatalf("plan references unknown config %q", plan.Config)
		}
		p, err := core.Build(plan.Name, tr, cfg)
		if err != nil {
			t.Fatalf("%s: %v", caseKey(plan), err)
		}
		syn := core.SynthesizeTrace(p, plan.Seed)

		// The corpus is also an invariant gate: every frozen case must
		// pass full conformance, not merely reproduce its bytes.
		if r := Check(tr, p, syn, cfg, plan.Seed, DefaultThresholds()); !r.Ok() {
			t.Errorf("%s: conformance violations: %v", caseKey(plan), r.Violations)
		}

		c := plan
		c.Requests = len(tr)
		c.Leaves = len(p.Leaves)
		c.TraceSHA = digest(t, func(w io.Writer) error { _, err := trace.WriteBinary(w, tr); return err })
		c.ProfSHA = digest(t, func(w io.Writer) error { return profile.Write(w, p) })
		c.SynthSHA = digest(t, func(w io.Writer) error { _, err := trace.WriteBinary(w, syn); return err })
		got.Cases = append(got.Cases, c)
	}
	got.Streams = goldenStreams(t, traces, configs)
	got.DRAM = goldenDRAM(t, traces, configs)
	got.Table2 = goldenTable2(t)

	if *update {
		if err := os.MkdirAll(filepath.Dir(manifestPath), 0o755); err != nil {
			t.Fatal(err)
		}
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(manifestPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden manifest rewritten with %d cases", len(got.Cases))
		return
	}

	data, err := os.ReadFile(manifestPath)
	if err != nil {
		t.Fatalf("reading golden manifest (run with -update to create it): %v", err)
	}
	var want manifest
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	wantByKey := make(map[string]goldenCase, len(want.Cases))
	for _, c := range want.Cases {
		wantByKey[caseKey(c)] = c
	}
	if len(want.Cases) != len(got.Cases) {
		t.Errorf("manifest holds %d cases, plan has %d (run -update after changing the plan)",
			len(want.Cases), len(got.Cases))
	}
	for _, g := range got.Cases {
		w, ok := wantByKey[caseKey(g)]
		if !ok {
			t.Errorf("%s: missing from manifest (run -update)", caseKey(g))
			continue
		}
		if g != w {
			t.Errorf("%s: pipeline output drifted from golden corpus:\n  want %+v\n  got  %+v\n"+
				"if the change is intentional, refresh with: go test ./internal/conform -run TestGoldenCorpus -update",
				caseKey(g), w, g)
		}
	}
	if len(want.Streams) != len(got.Streams) {
		t.Errorf("manifest holds %d streams, plan has %d (run -update after changing the plan)",
			len(want.Streams), len(got.Streams))
	}
	streams := make(map[string]goldenStream, len(want.Streams))
	for _, s := range want.Streams {
		streams[s.Name] = s
	}
	for _, g := range got.Streams {
		if w, ok := streams[g.Name]; !ok {
			t.Errorf("stream %s: missing from manifest (run -update)", g.Name)
		} else if g != w {
			t.Errorf("stream %s: output drifted from golden corpus:\n  want %+v\n  got  %+v", g.Name, w, g)
		}
	}
	if len(want.DRAM) != len(got.DRAM) {
		t.Errorf("manifest holds %d dram entries, plan has %d (run -update after changing the plan)",
			len(want.DRAM), len(got.DRAM))
	}
	sims := make(map[string]goldenStream, len(want.DRAM))
	for _, s := range want.DRAM {
		sims[s.Name] = s
	}
	for _, g := range got.DRAM {
		if w, ok := sims[g.Name]; !ok {
			t.Errorf("dram %s: missing from manifest (run -update)", g.Name)
		} else if g != w {
			t.Errorf("dram %s: simulation output drifted from golden corpus:\n  want %+v\n  got  %+v", g.Name, w, g)
		}
	}
	if len(want.Table2) != len(got.Table2) {
		t.Errorf("manifest holds %d table2 entries, plan has %d (run -update after changing the plan)",
			len(want.Table2), len(got.Table2))
	}
	fits := make(map[string]goldenStream, len(want.Table2))
	for _, s := range want.Table2 {
		fits[s.Name] = s
	}
	for _, g := range got.Table2 {
		if w, ok := fits[g.Name]; !ok {
			t.Errorf("table2 %s: missing from manifest (run -update)", g.Name)
		} else if g != w {
			t.Errorf("table2 %s: profile drifted from golden corpus:\n  want %+v\n  got  %+v", g.Name, w, g)
		}
	}
}
