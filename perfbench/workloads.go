package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"path/filepath"
	"strconv"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/profile"
	"repro/internal/scenario"
	"repro/internal/serve"
	"repro/internal/trace"
)

// workload is one closed-loop request class driven against mocktailsd.
// Request i of a run is a pure function of (seed, i): the request
// sequence never depends on timing.
type workload interface {
	// clients is the closed-loop concurrency (and connection count).
	clients() int
	// warmup is the number of requests issued before the measured
	// phase; they are checked but not timed. It is also the period of
	// the workload's request mix: the measured phase covers whole
	// periods.
	warmup() int
	// storeConfig is the daemon's store configuration, with its disk
	// tier, if any, under dir.
	storeConfig(dir string) serve.StoreConfig
	// seedSet is the traces fitted by upload at set-up.
	seedSet() []*entry
	// prepare computes the offline oracle for the fixed sample of
	// requests whose responses are compared in full.
	prepare() error
	// do issues request i and checks its response.
	do(hc *http.Client, base string, i int) error
	// sampled reports how many responses were compared to the oracle.
	sampled() int
	// inProcess runs request i in-process against st, calling the
	// layer functions the handler calls in the handler's order, and
	// returns its wall time in ns. Split, it times the request's
	// disjoint layers one by one and returns their sum.
	inProcess(st *serve.Store, i int, split bool) (float64, error)
}

// splitmix is the SplitMix64 finaliser, the benchmark's only source of
// pseudo-randomness.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// seedBase spaces the per-request seeds of different run seeds apart.
func seedBase(seed uint64) uint64 { return seed << 20 }

// ---- synth-mix ----

// mixCounts is each popularity rank's share of a mixBlock-request block:
// Zipf (s = 1) weights over the eight profiles, rounded by largest
// remainder. Every block holds exactly these counts in a seeded order,
// so the mix is the same in every run and only the order varies.
var mixCounts = [...]int{23, 12, 8, 6, 5, 4, 3, 3}

const mixBlock = 64

// synthPick returns the profile rank (index into traceSet) and the
// synthesis seed of synth-mix request i.
func synthPick(seed uint64, i int) (rank int, synthSeed uint64) {
	block, pos := i/mixBlock, i%mixBlock
	slots := make([]int, 0, mixBlock)
	for r, n := range mixCounts {
		for range n {
			slots = append(slots, r)
		}
	}
	s := splitmix(seed ^ splitmix(uint64(block)))
	for j := mixBlock - 1; j > 0; j-- {
		s = splitmix(s)
		k := int(s % uint64(j+1))
		slots[j], slots[k] = slots[k], slots[j]
	}
	return slots[pos], seedBase(seed) + uint64(i)
}

type synthMix struct {
	c      *corpus
	seed   uint64
	expect map[int][sha256.Size]byte
	nCheck atomic.Int64
}

// synthSample is the fixed set of synth-mix requests whose bodies are
// hashed and compared with offline synthesis.
func synthSample(from int) []int {
	var s []int
	for k := 0; k < 12; k++ {
		s = append(s, from+50*k)
	}
	return s
}

func (w *synthMix) clients() int { return 2 }
func (w *synthMix) warmup() int  { return mixBlock }

// storeConfig bounds RAM at half the set's canonical bytes, so cold
// profiles promote from the disk tier, with as many shards as still
// let one shard's slice hold the largest profile.
func (w *synthMix) storeConfig(dir string) serve.StoreConfig {
	canonical, _, largest := w.c.totals()
	budget := canonical / 2
	return serve.StoreConfig{DiskDir: filepath.Join(dir, "disk"), Budget: budget, Shards: int(max(1, budget/largest))}
}

func (w *synthMix) seedSet() []*entry { return w.c.entries }

func (w *synthMix) prepare() error {
	w.expect = map[int][sha256.Size]byte{}
	for _, i := range synthSample(w.warmup()) {
		rank, s := synthPick(w.seed, i)
		p := w.c.entries[rank].Prof
		h := sha256.New()
		if _, err := trace.WriteBinary(h, drain(core.SynthesizeFrom(p, s), p.Requests())); err != nil {
			return err
		}
		w.expect[i] = [sha256.Size]byte(h.Sum(nil))
	}
	return nil
}

func (w *synthMix) do(hc *http.Client, base string, i int) error {
	rank, s := synthPick(w.seed, i)
	e := w.c.entries[rank]
	u := fmt.Sprintf("%s/v1/profiles/%s/synth?format=bin&seed=%d", base, e.ID, s)
	resp, err := hc.Post(u, "", nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return statusErr(resp)
	}
	n, err := strconv.ParseUint(resp.Header.Get("X-Mocktails-Requests"), 10, 64)
	if err != nil || n != uint64(e.Prof.Requests()) {
		return fmt.Errorf("synth %s: X-Mocktails-Requests %q, want %d", e.Name, resp.Header.Get("X-Mocktails-Requests"), e.Prof.Requests())
	}
	want, sample := w.expect[i]
	h := sha256.New()
	var dst io.Writer = io.Discard
	if sample {
		dst = h
	}
	got, err := io.Copy(dst, resp.Body)
	if err != nil {
		return err
	}
	if got != trace.BinaryEncodedSize(n) {
		return fmt.Errorf("synth %s: body is %d bytes, want %d", e.Name, got, trace.BinaryEncodedSize(n))
	}
	if sample {
		w.nCheck.Add(1)
		if [sha256.Size]byte(h.Sum(nil)) != want {
			return fmt.Errorf("synth %s seed %d: body differs from offline synthesis", e.Name, s)
		}
	}
	return nil
}

func (w *synthMix) sampled() int { return int(w.nCheck.Load()) }

// ---- ingest ----

// ingestPick returns the trace rank and the unique upload name of
// ingest request i: the bodies cycle through the set, starting at an
// offset given by the seed.
func ingestPick(seed uint64, i int) (rank int, name string) {
	rank = int((seed + uint64(i)) % uint64(len(traceSet)))
	return rank, fmt.Sprintf("%s-%d-%d", traceSet[rank], seed, i)
}

type ingest struct {
	c      *corpus
	seed   uint64
	expect map[int]string
	nCheck atomic.Int64
}

// ingestSample is the fixed set of uploads whose content address is
// compared with an offline fit; the stride is 1 mod 8, so the sample
// covers every trace of the set.
func ingestSample(from int) []int {
	var s []int
	for k := 0; k < len(traceSet); k++ {
		s = append(s, from+25*k)
	}
	return s
}

func (w *ingest) clients() int { return 1 }
func (w *ingest) warmup() int  { return len(traceSet) }

// storeConfig bounds RAM at the set's canonical bytes and the disk
// tier at twice its flat bytes, so the store reaches a steady state of
// demotions and disk evictions instead of growing with the run.
func (w *ingest) storeConfig(dir string) serve.StoreConfig {
	canonical, flat, largest := w.c.totals()
	return serve.StoreConfig{
		DiskDir: filepath.Join(dir, "disk"), DiskBudget: 2 * flat,
		Budget: canonical, Shards: int(max(1, canonical/largest)),
	}
}

// seedSet is the whole set under its plain names, as for synth-mix, so
// the measured uploads land in a store that already holds profiles.
func (w *ingest) seedSet() []*entry { return w.c.entries }

func (w *ingest) prepare() error {
	w.expect = map[int]string{}
	for _, i := range ingestSample(w.warmup()) {
		rank, name := ingestPick(w.seed, i)
		p, err := buildProfile(name, w.c.entries[rank].Gz)
		if err != nil {
			return err
		}
		if w.expect[i], _, err = serve.ProfileID(p); err != nil {
			return err
		}
	}
	return nil
}

// uploadResponse mirrors the fields of the daemon's upload answer the
// checks read.
type uploadResponse struct {
	ID       string `json:"id"`
	Leaves   int    `json:"leaves"`
	Requests uint64 `json:"requests"`
	Deduped  bool   `json:"deduped"`
}

// postTrace uploads gz as a chunked trace body named name.
func postTrace(hc *http.Client, base, name string, gz []byte) (uploadResponse, error) {
	u := base + "/v1/profiles?kind=trace&name=" + url.QueryEscape(name)
	// Hiding the length makes the client send the body chunked, the
	// way a streaming uploader does.
	req, err := http.NewRequest(http.MethodPost, u, struct{ io.Reader }{bytes.NewReader(gz)})
	if err != nil {
		return uploadResponse{}, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return uploadResponse{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK {
		return uploadResponse{}, statusErr(resp)
	}
	var ur uploadResponse
	err = json.NewDecoder(resp.Body).Decode(&ur)
	return ur, err
}

// seedStore fits the workload's seed set by upload and checks each
// profile landed at its offline content address.
func seedStore(wl workload, hc *http.Client, base string) error {
	for _, e := range wl.seedSet() {
		ur, err := postTrace(hc, base, e.Name, e.Gz)
		if err != nil {
			return fmt.Errorf("seeding %s: %w", e.Name, err)
		}
		if ur.ID != e.ID {
			return fmt.Errorf("seeding %s: daemon fitted %s, offline fit is %s", e.Name, ur.ID, e.ID)
		}
	}
	return nil
}

func (w *ingest) do(hc *http.Client, base string, i int) error {
	rank, name := ingestPick(w.seed, i)
	e := w.c.entries[rank]
	ur, err := postTrace(hc, base, name, e.Gz)
	if err != nil {
		return err
	}
	switch {
	case ur.Deduped:
		return fmt.Errorf("ingest %s: deduped, want a fresh fit", name)
	case ur.Leaves != len(e.Prof.Leaves) || ur.Requests != uint64(e.Records):
		return fmt.Errorf("ingest %s: %d leaves / %d requests, want %d / %d",
			name, ur.Leaves, ur.Requests, len(e.Prof.Leaves), e.Records)
	}
	if want, ok := w.expect[i]; ok {
		w.nCheck.Add(1)
		if ur.ID != want {
			return fmt.Errorf("ingest %s: id %s, offline fit is %s", name, ur.ID, want)
		}
	}
	return nil
}

func (w *ingest) sampled() int { return int(w.nCheck.Load()) }

// ---- scenario-replay ----

// scenarioMembers are the traces the 3-device SoC spec composes.
var scenarioMembers = []string{"CPU-G", "T-Rex1", "HEVC1"}

// baseSpec is the 3-device SoC scenario (CPU, GPU and VPU in disjoint
// 1 GiB windows, the GPU slowed 1.5x and the VPU sped up 4x) replayed
// through xbar + DRAM.
func baseSpec(c *corpus) *scenario.Spec {
	const gib = 1 << 30
	id := func(n string) string { return c.byName[n].ID }
	return &scenario.Spec{Output: "stats", Devices: []scenario.Device{
		{Profile: id("CPU-G"), Name: "cpu", Seed: 1, Window: &scenario.Window{Base: 0, Size: gib}},
		{Profile: id("T-Rex1"), Name: "gpu", Seed: 2, Dilation: 1.5, Window: &scenario.Window{Base: gib, Size: gib}},
		{Profile: id("HEVC1"), Name: "vpu", Seed: 3, Dilation: 0.25, Window: &scenario.Window{Base: 2 * gib, Size: gib}},
	}}
}

// scenarioSpec returns the spec of scenario request i: every device
// seed shifted by the request's offset.
func scenarioSpec(base *scenario.Spec, seed uint64, i int) *scenario.Spec {
	return base.WithSeedOffset(seedBase(seed) + uint64(i))
}

// scenarioRequests is the request count every compose must replay:
// the members' full request counts summed.
func scenarioRequests(c *corpus) uint64 {
	var n uint64
	for _, m := range scenarioMembers {
		n += uint64(c.byName[m].Records)
	}
	return n
}

type scenarioReplay struct {
	c      *corpus
	seed   uint64
	base   *scenario.Spec
	expect map[int][]byte
	nCheck atomic.Int64
}

func scenarioSample(from int) []int { return []int{from, from + 67, from + 134} }

func (w *scenarioReplay) clients() int { return 1 }
func (w *scenarioReplay) warmup() int  { return 4 }

// storeConfig keeps the daemon's defaults: a RAM-only store far larger
// than the three members, so every member stays resident.
func (w *scenarioReplay) storeConfig(string) serve.StoreConfig { return serve.StoreConfig{} }

func (w *scenarioReplay) seedSet() []*entry {
	var s []*entry
	for _, m := range scenarioMembers {
		s = append(s, w.c.byName[m])
	}
	return s
}

// heapResolver resolves content addresses to the corpus's offline heap
// profiles, standing in for the daemon's pinned store entries.
func (c *corpus) heapResolver(id string) (profile.View, func(), error) {
	for _, e := range c.entries {
		if e.ID == id {
			return e.Prof, func() {}, nil
		}
	}
	return nil, nil, fmt.Errorf("no profile %s", id)
}

// statsJSON renders a replay report exactly as the daemon does.
func statsJSON(rep scenario.Report) ([]byte, error) {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetIndent("", "  ")
	err := enc.Encode(rep)
	return b.Bytes(), err
}

func (w *scenarioReplay) prepare() error {
	w.expect = map[int][]byte{}
	for _, i := range scenarioSample(w.warmup()) {
		spec := scenarioSpec(w.base, w.seed, i)
		st, err := scenario.Compose(spec, w.c.heapResolver)
		if err != nil {
			return err
		}
		rep := scenario.Replay(st, spec, dram.Default())
		st.Close()
		if w.expect[i], err = statsJSON(rep); err != nil {
			return err
		}
	}
	return nil
}

func (w *scenarioReplay) do(hc *http.Client, base string, i int) error {
	body, err := json.Marshal(scenarioSpec(w.base, w.seed, i))
	if err != nil {
		return err
	}
	resp, err := hc.Post(base+"/v1/scenarios/synth", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return statusErr(resp)
	}
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	var rep scenario.Report
	if err := json.Unmarshal(got, &rep); err != nil {
		return fmt.Errorf("scenario: %w", err)
	}
	if want := scenarioRequests(w.c); rep.Requests != want {
		return fmt.Errorf("scenario: replayed %d requests, want %d", rep.Requests, want)
	}
	if want, ok := w.expect[i]; ok {
		w.nCheck.Add(1)
		if !bytes.Equal(got, want) {
			return fmt.Errorf("scenario request %d: stats differ from offline compose + replay", i)
		}
	}
	return nil
}

func (w *scenarioReplay) sampled() int { return int(w.nCheck.Load()) }

// ---- helpers ----

// daemonFlags renders a store configuration as mocktailsd flags; zero
// fields keep the daemon's defaults.
func daemonFlags(sc serve.StoreConfig) []string {
	var f []string
	add := func(flag string, v int64) {
		if v > 0 {
			f = append(f, flag, strconv.FormatInt(v, 10))
		}
	}
	if sc.DiskDir != "" {
		f = append(f, "-disk-dir", sc.DiskDir)
	}
	add("-disk-budget", sc.DiskBudget)
	add("-store-budget", sc.Budget)
	add("-shards", int64(sc.Shards))
	return f
}

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"synth-mix", "ingest", "scenario-replay"}

func newWorkload(name string, c *corpus, seed uint64) (workload, error) {
	switch name {
	case "synth-mix":
		return &synthMix{c: c, seed: seed}, nil
	case "ingest":
		return &ingest{c: c, seed: seed}, nil
	case "scenario-replay":
		return &scenarioReplay{c: c, seed: seed, base: baseSpec(c)}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// drain pulls n requests from src into a slice.
func drain(src trace.Source, n int) trace.Trace {
	t := make(trace.Trace, 0, n)
	for len(t) < n {
		r, ok := src.Next()
		if !ok {
			break
		}
		t = append(t, r)
	}
	return t
}

func statusErr(resp *http.Response) error {
	b, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
	return fmt.Errorf("%s %s: status %d: %s", resp.Request.Method, resp.Request.URL.Path, resp.StatusCode, bytes.TrimSpace(b))
}
