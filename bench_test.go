// Package repro's benchmark harness: one benchmark per table and figure
// of the paper (each iteration regenerates the exhibit end to end —
// workload generation, model fitting, synthesis, simulation), plus
// micro-benchmarks for the pipeline stages.
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// or one exhibit with e.g. -bench=BenchmarkFig09.
package repro

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/experiments"
	"repro/internal/hrd"
	"repro/internal/partition"
	"repro/internal/profile"
	"repro/internal/scenario"
	"repro/internal/serve"
	"repro/internal/stm"
	"repro/internal/synth"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// benchExperiment runs one experiment per iteration on a fresh
// environment, so every iteration does the full work of regenerating the
// exhibit.
func benchExperiment(b *testing.B, id string) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		env := experiments.NewEnv()
		if tab := env.Run(id); tab == nil || len(tab.Rows) == 0 {
			b.Fatalf("experiment %s produced no rows", id)
		}
	}
}

func BenchmarkFig02(b *testing.B)  { benchExperiment(b, "fig2") }
func BenchmarkFig03(b *testing.B)  { benchExperiment(b, "fig3") }
func BenchmarkTable1(b *testing.B) { benchExperiment(b, "table1") }
func BenchmarkTable2(b *testing.B) { benchExperiment(b, "table2") }
func BenchmarkTable3(b *testing.B) { benchExperiment(b, "table3") }
func BenchmarkFig06(b *testing.B)  { benchExperiment(b, "fig6") }
func BenchmarkFig07(b *testing.B)  { benchExperiment(b, "fig7") }
func BenchmarkFig08(b *testing.B)  { benchExperiment(b, "fig8") }
func BenchmarkFig09(b *testing.B)  { benchExperiment(b, "fig9") }
func BenchmarkFig10(b *testing.B)  { benchExperiment(b, "fig10") }
func BenchmarkFig11(b *testing.B)  { benchExperiment(b, "fig11") }
func BenchmarkFig12(b *testing.B)  { benchExperiment(b, "fig12") }
func BenchmarkFig13(b *testing.B)  { benchExperiment(b, "fig13") }
func BenchmarkFig14(b *testing.B)  { benchExperiment(b, "fig14") }
func BenchmarkFig15(b *testing.B)  { benchExperiment(b, "fig15") }
func BenchmarkFig16(b *testing.B)  { benchExperiment(b, "fig16") }
func BenchmarkFig17(b *testing.B)  { benchExperiment(b, "fig17") }

func BenchmarkAblationSpatial(b *testing.B) { benchExperiment(b, "ablation-spatial") }
func BenchmarkAblationOrder(b *testing.B)   { benchExperiment(b, "ablation-order") }
func BenchmarkAblationPrivacy(b *testing.B) { benchExperiment(b, "ablation-privacy") }
func BenchmarkChargeCache(b *testing.B)     { benchExperiment(b, "chargecache") }
func BenchmarkCharacterize(b *testing.B)    { benchExperiment(b, "characterization") }
func BenchmarkAblationKOrder(b *testing.B)  { benchExperiment(b, "ablation-korder") }
func BenchmarkEnergy(b *testing.B)          { benchExperiment(b, "energy") }
func BenchmarkAblationPolicy(b *testing.B)  { benchExperiment(b, "ablation-policy") }
func BenchmarkSoC(b *testing.B)             { benchExperiment(b, "soc") }

// Micro-benchmarks for the pipeline stages, all on the HEVC1 proxy.

func hevc1(b *testing.B) trace.Trace {
	b.Helper()
	s, err := workloads.Find("HEVC1")
	if err != nil {
		b.Fatal(err)
	}
	return s.Gen()
}

func BenchmarkWorkloadGen(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if len(hevc1(b)) == 0 {
			b.Fatal("empty trace")
		}
	}
}

func BenchmarkProfileBuild(b *testing.B) {
	tr := hevc1(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Build("HEVC1", tr, core.DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(tr)))
}

// workerCounts are the explicit fan-outs for the parallel benchmarks.
// They are fixed worker counts handed to the internal/par pool, entirely
// independent of b.SetParallelism / RunParallel, so the measured scaling
// reflects the pipeline's own pool and not the testing package's.
var workerCounts = []int{1, 2, 4, 8}

func BenchmarkProfileBuildParallel(b *testing.B) {
	tr := hevc1(b)
	for _, w := range workerCounts {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.Build("HEVC1", tr, core.DefaultConfig(), core.Workers(w)); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(len(tr)))
		})
	}
}

func BenchmarkSTMBuildParallel(b *testing.B) {
	tr := hevc1(b)
	for _, w := range workerCounts {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := stm.Build("HEVC1", tr, partition.TwoLevelTS(500000), stm.Workers(w)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAllParallel regenerates the full 26-exhibit suite per
// iteration on a fresh environment, fanned across a fixed worker count.
// workers=1 is the serial BenchmarkAll-equivalent to compare against.
func BenchmarkAllParallel(b *testing.B) {
	for _, w := range workerCounts {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				env := experiments.NewEnv()
				tabs := env.AllParallel(w)
				for _, tab := range tabs {
					if tab == nil || len(tab.Rows) == 0 {
						b.Fatal("experiment produced no rows")
					}
				}
			}
		})
	}
}

// BenchmarkSynthesize tracks the synthesis hot path on the two profiles
// recorded in BENCH_synth.json: small = OpenCL1 (9 big leaves, sampling
// kernel bound) and large = Manhattan (7524 leaves, merge bound), each
// serially and with the per-leaf setup fanned across workers (chunk
// refills always run on the consuming goroutine). Output is
// bit-identical across all variants; only throughput differs.
func BenchmarkSynthesize(b *testing.B) {
	cases := []struct{ size, workload string }{
		{"small", "OpenCL1"},
		{"large", "Manhattan"},
	}
	for _, c := range cases {
		s, err := workloads.Find(c.workload)
		if err != nil {
			b.Fatal(err)
		}
		tr := s.Gen()
		p, err := core.Build(c.workload, tr, core.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.size+"/serial", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if got := core.SynthesizeTrace(p, uint64(i)); len(got) != len(tr) {
					b.Fatal("short synthesis")
				}
			}
			b.SetBytes(int64(len(tr)))
		})
		flatBuf, err := profile.MarshalFlat(p)
		if err != nil {
			b.Fatal(err)
		}
		f, err := profile.OpenFlat(flatBuf)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.size+"/flat-serial", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				// Pre-sized like the serial row's SynthesizeTrace, so the
				// two rows differ only in the profile representation.
				src := synth.NewFrom(f, uint64(i))
				got := make(trace.Trace, 0, f.Requests())
				for req, ok := src.Next(); ok; req, ok = src.Next() {
					got = append(got, req)
				}
				src.Close()
				if len(got) != len(tr) {
					b.Fatal("short synthesis")
				}
			}
			b.SetBytes(int64(len(tr)))
		})
		for _, w := range workerCounts[1:] {
			b.Run(fmt.Sprintf("%s/workers=%d", c.size, w), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if got := core.SynthesizeTrace(p, uint64(i), core.SynthWorkers(w)); len(got) != len(tr) {
						b.Fatal("short synthesis")
					}
				}
				b.SetBytes(int64(len(tr)))
			})
		}
	}
}

// BenchmarkProfileOpen compares the cost of bringing a stored profile to
// a servable state per encoding, tracked in BENCH_profile.json. The gz
// rows decompress and decode the full heap representation; the flat rows
// validate the header and slice section tables out of the buffer (or
// mmap the file), independent of profile size.
func BenchmarkProfileOpen(b *testing.B) {
	cases := []struct{ size, workload string }{
		{"small", "OpenCL1"},
		{"large", "Manhattan"},
	}
	for _, c := range cases {
		s, err := workloads.Find(c.workload)
		if err != nil {
			b.Fatal(err)
		}
		p, err := core.Build(c.workload, s.Gen(), core.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		var gz bytes.Buffer
		if err := profile.WriteGzip(&gz, p); err != nil {
			b.Fatal(err)
		}
		flatBuf, err := profile.MarshalFlat(p)
		if err != nil {
			b.Fatal(err)
		}
		path := filepath.Join(b.TempDir(), "p.mfp")
		if err := os.WriteFile(path, flatBuf, 0o644); err != nil {
			b.Fatal(err)
		}
		b.Run(c.size+"/decode-gz", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				dp, err := profile.ReadGzip(bytes.NewReader(gz.Bytes()))
				if err != nil || dp.NumLeaves() != p.NumLeaves() {
					b.Fatalf("decode: %v", err)
				}
			}
			b.SetBytes(int64(gz.Len()))
		})
		b.Run(c.size+"/open-flat", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				f, err := profile.OpenFlat(flatBuf)
				if err != nil || f.NumLeaves() != p.NumLeaves() {
					b.Fatalf("open: %v", err)
				}
			}
			b.SetBytes(int64(len(flatBuf)))
		})
		b.Run(c.size+"/open-flat-mmap", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				f, err := profile.OpenFlatFile(path, profile.FlatNoVerify())
				if err != nil || f.NumLeaves() != p.NumLeaves() {
					b.Fatalf("open: %v", err)
				}
				f.Close()
			}
			b.SetBytes(int64(len(flatBuf)))
		})
	}
}

// BenchmarkServeSynth measures the mocktailsd streaming synthesis
// endpoint end-to-end in-process: per iteration one HTTP POST against
// an httptest server, the chunked binary response streamed to
// io.Discard. Tracked in BENCH_serve.json on the same small/large
// profiles as BenchmarkSynthesize, so the delta over synth/… is the
// HTTP + streaming-encoder overhead.
func BenchmarkServeSynth(b *testing.B) {
	cases := []struct{ size, workload string }{
		{"small", "OpenCL1"},
		{"large", "Manhattan"},
	}
	for _, c := range cases {
		s, err := workloads.Find(c.workload)
		if err != nil {
			b.Fatal(err)
		}
		p, err := core.Build(c.workload, s.Gen(), core.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		srv, err := serve.NewServer(serve.Config{DiskDir: b.TempDir()})
		if err != nil {
			b.Fatal(err)
		}
		meta, _, err := srv.Store().Put(p)
		if err != nil {
			b.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		url := ts.URL + "/v1/profiles/" + meta.ID + "/synth?seed="
		want := trace.BinaryEncodedSize(uint64(p.Requests()))
		stream := func(b *testing.B, i int) {
			resp, err := http.Post(url+fmt.Sprint(i), "", nil)
			if err != nil {
				b.Fatal(err)
			}
			n, err := io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK || n != want {
				b.Fatalf("stream: status %d, %d of %d bytes, err %v", resp.StatusCode, n, want, err)
			}
		}
		b.Run(c.size, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				stream(b, i)
			}
			b.SetBytes(want)
		})
		// Cold hit: every iteration demotes the profile to the disk tier
		// first, so the request pays promotion (mmap, no decode) on top
		// of synthesis. The tiered-store design goal is that this stays
		// close to the warm row above. The handler releases its pin
		// after the response completes, asynchronously to the client
		// reading the last byte, so Demote retries until the previous
		// iteration's pin is gone, within a bound.
		demote := func(b *testing.B) {
			for deadline := time.Now().Add(5 * time.Second); !srv.Store().Demote(meta.ID); {
				if time.Now().After(deadline) {
					b.Fatal("demote refused: pin still held after 5s")
				}
				time.Sleep(10 * time.Microsecond)
			}
		}
		b.Run(c.size+"/cold", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				demote(b)
				stream(b, i)
			}
			b.SetBytes(want)
		})
		ts.Close()
	}
}

func BenchmarkDRAMSim(b *testing.B) {
	tr := hevc1(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := dram.Run(trace.NewReplayer(tr), dram.Default(), 20)
		if res.Requests == 0 {
			b.Fatal("no requests simulated")
		}
	}
}

// BenchmarkScenarioReplay composes the 3-device SoC spec perfbench's
// scenario-replay workload serves (CPU-G, T-Rex1 and HEVC1 in disjoint
// 1 GiB windows, the GPU slowed 1.5x, the VPU sped up 4x) over flat
// views and replays it through xbar + DRAM for a contention report,
// one compose + replay per iteration.
func BenchmarkScenarioReplay(b *testing.B) {
	const gib = 1 << 30
	views := map[string]profile.View{}
	id := func(i int) string { return fmt.Sprintf("%064x", i+1) }
	var total uint64
	for i, name := range []string{"CPU-G", "T-Rex1", "HEVC1"} {
		s, err := workloads.Find(name)
		if err != nil {
			b.Fatal(err)
		}
		p, err := core.Build(name, s.Gen(), core.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		buf, err := profile.MarshalFlat(p)
		if err != nil {
			b.Fatal(err)
		}
		f, err := profile.OpenFlat(buf)
		if err != nil {
			b.Fatal(err)
		}
		views[id(i)] = f
		total += uint64(f.Requests())
	}
	spec := &scenario.Spec{Output: "stats", Devices: []scenario.Device{
		{Profile: id(0), Name: "cpu", Seed: 1, Window: &scenario.Window{Base: 0, Size: gib}},
		{Profile: id(1), Name: "gpu", Seed: 2, Dilation: 1.5, Window: &scenario.Window{Base: gib, Size: gib}},
		{Profile: id(2), Name: "vpu", Seed: 3, Dilation: 0.25, Window: &scenario.Window{Base: 2 * gib, Size: gib}},
	}}
	resolve := func(id string) (profile.View, func(), error) { return views[id], func() {}, nil }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := scenario.Compose(spec.WithSeedOffset(uint64(i)), resolve)
		if err != nil {
			b.Fatal(err)
		}
		rep := scenario.Replay(st, spec, dram.Default())
		st.Close()
		if rep.Requests != total {
			b.Fatalf("replayed %d requests, want %d", rep.Requests, total)
		}
	}
	b.SetBytes(int64(total))
}

func BenchmarkDynamicPartition(b *testing.B) {
	tr := hevc1(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if leaves := partition.ByDynamic(tr); len(leaves) == 0 {
			b.Fatal("no leaves")
		}
	}
}

func BenchmarkSTMBuild(b *testing.B) {
	tr := hevc1(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := stm.Build("HEVC1", tr, partition.TwoLevelTS(500000)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHRDFit(b *testing.B) {
	tr, err := workloads.SPECTrace("gobmk")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if m := hrd.Fit(tr); m.Requests != len(tr) {
			b.Fatal("bad fit")
		}
	}
}

func BenchmarkHRDSynthesize(b *testing.B) {
	tr, err := workloads.SPECTrace("gobmk")
	if err != nil {
		b.Fatal(err)
	}
	m := hrd.Fit(tr)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := hrd.Synthesize(m, uint64(i)); len(got) != len(tr) {
			b.Fatal("short synthesis")
		}
	}
}

// writeIngestTrace tiles the HEVC1 proxy trace end to end `tiles` times
// and writes it as a gz trace file, returning the path and the request
// count. The tiled trace is dropped before returning so only the file,
// not a slice, survives into the benchmark iterations.
func writeIngestTrace(b *testing.B, tiles int) (string, int) {
	b.Helper()
	base := hevc1(b)
	span := base[len(base)-1].Time + 1
	big := make(trace.Trace, 0, len(base)*tiles)
	for t := 0; t < tiles; t++ {
		off := span * uint64(t)
		for _, r := range base {
			r.Time += off
			big = append(big, r)
		}
	}
	path := filepath.Join(b.TempDir(), "ingest.trace.gz")
	f, err := os.Create(path)
	if err != nil {
		b.Fatal(err)
	}
	if err := trace.WriteGzip(f, big); err != nil {
		b.Fatal(err)
	}
	if err := f.Close(); err != nil {
		b.Fatal(err)
	}
	return path, len(big)
}

func ingestMaterialized(path string, cfg core.Config) (*profile.Profile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	tr, err := trace.ReadGzip(f)
	if err != nil {
		return nil, err
	}
	return core.Build("ingest", tr, cfg)
}

func ingestStream(path string, cfg core.Config) (*profile.Profile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	d, err := trace.NewDecoder(f)
	if err != nil {
		return nil, err
	}
	return core.BuildStream("ingest", d, cfg)
}

// measurePeakHeap runs fn while a sampler goroutine polls
// runtime.ReadMemStats every millisecond, and returns the peak HeapAlloc
// over the pre-fn baseline. A GC runs before the baseline so the
// measurement starts from a settled heap.
func measurePeakHeap(fn func()) uint64 {
	runtime.GC()
	var base runtime.MemStats
	runtime.ReadMemStats(&base)
	var peak atomic.Uint64
	peak.Store(base.HeapAlloc)
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		var ms runtime.MemStats
		for {
			select {
			case <-stop:
				return
			default:
			}
			runtime.ReadMemStats(&ms)
			if ms.HeapAlloc > peak.Load() {
				peak.Store(ms.HeapAlloc)
			}
			time.Sleep(time.Millisecond)
		}
	}()
	fn()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc > peak.Load() {
		peak.Store(ms.HeapAlloc)
	}
	close(stop)
	<-done
	return peak.Load() - base.HeapAlloc
}

// BenchmarkIngest contrasts the two ingestion paths on a long trace (the
// HEVC1 proxy tiled 64x, ~2.5M requests, read from a gz file):
// "materialized" decodes the whole trace into memory before fitting,
// "stream" feeds the incremental decoder straight into the streaming
// partitioner so peak heap tracks the fit frontier rather than the
// trace. Both use the paper's CPU-port partitioning (100k-request
// temporal intervals, §V) and must content-address identically; each
// sub-benchmark reports peak-B/op, the sampled high-water heap mark of
// one iteration. Tracked in BENCH_ingest.json.
func BenchmarkIngest(b *testing.B) {
	path, nreq := writeIngestTrace(b, 64)
	cfg := core.CPUPortConfig()

	pm, err := ingestMaterialized(path, cfg)
	if err != nil {
		b.Fatal(err)
	}
	ps, err := ingestStream(path, cfg)
	if err != nil {
		b.Fatal(err)
	}
	idM, _, err := serve.ProfileID(pm)
	if err != nil {
		b.Fatal(err)
	}
	idS, _, err := serve.ProfileID(ps)
	if err != nil {
		b.Fatal(err)
	}
	if idM != idS {
		b.Fatalf("streaming fit %s diverges from materialized fit %s", idS, idM)
	}
	pm, ps = nil, nil

	for _, c := range []struct {
		name string
		fn   func(string, core.Config) (*profile.Profile, error)
	}{
		{"materialized", ingestMaterialized},
		{"stream", ingestStream},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			var peak uint64
			for i := 0; i < b.N; i++ {
				sample := measurePeakHeap(func() {
					p, err := c.fn(path, cfg)
					if err != nil {
						b.Fatal(err)
					}
					if len(p.Leaves) == 0 {
						b.Fatal("empty profile")
					}
				})
				if sample > peak {
					peak = sample
				}
			}
			b.ReportMetric(float64(peak), "peak-B/op")
			b.SetBytes(int64(nreq) * trace.RequestMemBytes)
		})
	}
}
