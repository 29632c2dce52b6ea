package conform

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/korder"
	"repro/internal/partition"
	"repro/internal/profile"
	"repro/internal/scenario"
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

	// Three devices; the first two share a profile and a seed, so every
	// one of their requests ties on time and the device-index tie-break
	// decides the order. Each request is tagged with its device.
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
}
