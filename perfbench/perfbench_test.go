package main

import (
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"sort"
	"testing"

	"repro/internal/serve"
)

// bruteOrderStat is the nearest-rank definition read literally: the
// smallest sample x such that at least pct% of the samples are <= x.
func bruteOrderStat(xs []float64, pct int) float64 {
	best := 0.0
	found := false
	for _, x := range xs {
		le := 0
		for _, y := range xs {
			if y <= x {
				le++
			}
		}
		if le*100 >= pct*len(xs) && (!found || x < best) {
			best, found = x, true
		}
	}
	return best
}

func TestOrderStatMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cases := [][]float64{
		{4.5},                  // n = 1
		{2, 1},                 // even n
		{3, 3, 3, 3},           // all ties
		{1, 2, 2, 2, 5, 9},     // ties in the middle
		{5, 1, 4, 2, 3, 6, 7},  // odd n
		{10, 10, 20, 20, 30.5}, // ties at both ends
	}
	for n := 1; n <= 250; n += 7 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(rng.Intn(n/2 + 1)) // plenty of ties
		}
		cases = append(cases, xs)
	}
	for _, xs := range cases {
		sorted := sortedCopy(xs)
		for pct := 1; pct <= 100; pct++ {
			if got, want := orderStat(sorted, pct), bruteOrderStat(xs, pct); got != want {
				t.Fatalf("orderStat(%v, %d) = %v, brute force %v", xs, pct, got, want)
			}
		}
	}
}

func TestP95LeavesTenBeyond(t *testing.T) {
	if minSamples != 200 {
		t.Fatalf("minSamples = %d, want 200", minSamples)
	}
	xs := make([]float64, minSamples)
	for i := range xs {
		xs[i] = float64(i)
	}
	p95 := orderStat(xs, 95)
	beyond := 0
	for _, x := range xs {
		if x > p95 {
			beyond++
		}
	}
	if beyond != minTail {
		t.Fatalf("p95 of %d samples has %d beyond it, want %d", minSamples, beyond, minTail)
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{7}, 7},
		{[]float64{3, 1}, 2},
		{[]float64{5, 5, 5, 5}, 5},
		{[]float64{9, 1, 4, 4}, 4},
		{[]float64{1, 2, 3, 4, 100}, 3},
		{[]float64{0.5, 0.25, 1, 2, 8, 4}, 1.5},
	} {
		in := slices.Clone(c.xs)
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
		if !slices.Equal(in, c.xs) {
			t.Errorf("median reordered its input %v", in)
		}
	}
}

// TestSequencesArePureFunctionsOfSeed pins the request sequences: the
// profile picks and synthesis seeds of synth-mix, the upload names of
// ingest and the seed offsets of scenario-replay.
func TestSequencesArePureFunctionsOfSeed(t *testing.T) {
	type pick struct {
		rank int
		seed uint64
	}
	wantSynth := []pick{
		{1, 7340032}, {7, 7340033}, {2, 7340034}, {0, 7340035}, {2, 7340036},
		{1, 7340037}, {0, 7340038}, {7, 7340039}, {0, 7340040}, {0, 7340041},
	}
	for i, w := range wantSynth {
		r, s := synthPick(7, i)
		if (pick{r, s}) != w {
			t.Errorf("synthPick(7, %d) = {%d, %d}, want %v", i, r, s, w)
		}
	}
	for i, want := range map[int]string{0: "HEVC1-7-0", 1: "Crypto1-7-1", 9: "Crypto1-7-9", 200: "HEVC1-7-200"} {
		if _, got := ingestPick(7, i); got != want {
			t.Errorf("ingestPick(7, %d) = %q, want %q", i, got, want)
		}
	}
	base := baseSpec(&corpus{byName: map[string]*entry{
		"CPU-G": {ID: hexID('a')}, "T-Rex1": {ID: hexID('b')}, "HEVC1": {ID: hexID('c')},
	}})
	spec := scenarioSpec(base, 7, 5)
	for k, d := range spec.Devices {
		if want := base.Devices[k].Seed + 7<<20 + 5; d.Seed != want {
			t.Errorf("scenario request 5 device %d seed %d, want %d", k, d.Seed, want)
		}
	}
	if base.Devices[0].Seed != 1 {
		t.Errorf("scenarioSpec modified the base spec")
	}

	// Every block holds the exact popularity mix, in a seed-dependent
	// order.
	for _, seed := range []uint64{1, 2} {
		for block := 0; block < 3; block++ {
			counts := make([]int, len(mixCounts))
			for pos := 0; pos < mixBlock; pos++ {
				r, _ := synthPick(seed, block*mixBlock+pos)
				counts[r]++
			}
			if !slices.Equal(counts, mixCounts[:]) {
				t.Errorf("seed %d block %d mix %v, want %v", seed, block, counts, mixCounts)
			}
		}
	}
	same := true
	for i := 0; i < mixBlock; i++ {
		a, _ := synthPick(1, i)
		b, _ := synthPick(2, i)
		same = same && a == b
	}
	if same {
		t.Error("seeds 1 and 2 produced the same synth-mix order")
	}
}

func hexID(c byte) string {
	b := make([]byte, 64)
	for i := range b {
		b[i] = c
	}
	return string(b)
}

// TestSmoke drives a few requests of every workload, warm-up plus the
// first measured request (an oracle sample), against an in-process
// daemon configured as the benchmark configures mocktailsd, and runs
// the traced replay. No request may fail.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("fits the whole trace set")
	}
	c, err := loadCorpus()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			wl, err := newWorkload(name, c, 3)
			if err != nil {
				t.Fatal(err)
			}
			if err := wl.prepare(); err != nil {
				t.Fatal(err)
			}
			sc := wl.storeConfig(t.TempDir())
			srv, err := serve.NewServer(serve.Config{
				Shards: sc.Shards, StoreBudget: sc.Budget, DiskDir: sc.DiskDir, DiskBudget: sc.DiskBudget,
			})
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()
			hc := &http.Client{}
			if err := seedStore(wl, hc, ts.URL); err != nil {
				t.Fatal(err)
			}
			ph := closedLoop(wl, hc, ts.URL, 0, phaseLimits{count: wl.warmup() + 1})
			if ph.failed != 0 || ph.attempted != wl.warmup()+1 {
				t.Fatalf("%d of %d requests failed: %v", ph.failed, ph.attempted, ph.firstErr)
			}
			if wl.sampled() != 1 {
				t.Fatalf("%d responses compared with the oracle, want 1", wl.sampled())
			}
			m, _, err := traced(c, wl, name, 3, t.TempDir(), median(ph.latMs), 1)
			if err != nil {
				t.Fatal(err)
			}
			names := make([]string, 0, len(m))
			for n := range m {
				names = append(names, n)
			}
			sort.Strings(names)
			if len(names) != len(perLayer) {
				t.Fatalf("traced run reported %d metrics %v, want %d", len(names), names, len(perLayer))
			}
			for _, n := range perLayer {
				if _, ok := m[n]; !ok {
					t.Errorf("traced run lacks %s", n)
				}
			}
			if got := m["dram.requests"].Value; got != 129378 {
				t.Errorf("dram.requests = %v, want 129378", got)
			}
		})
	}
}

// TestMetricNamesMatchBenchmarkJSON keeps the benchmark's metric lists and
// workload names in step with the benchmark definition at the
// repository root.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json:", err)
	}
	type named struct {
		Name string `json:"name"`
	}
	var def struct {
		Workloads []named `json:"workloads"`
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &def); err != nil {
		t.Fatal(err)
	}
	names := func(ns []named) []string {
		var out []string
		for _, n := range ns {
			out = append(out, n.Name)
		}
		return out
	}
	for _, c := range []struct {
		what      string
		got, want []string
	}{
		{"workloads", names(def.Workloads), workloadNames},
		{"end_to_end", names(def.EndToEnd), endToEnd},
		{"per_layer", names(def.PerLayer), perLayer},
	} {
		if !slices.Equal(c.got, c.want) {
			t.Errorf("BENCHMARK.json %s = %v, benchmark reports %v", c.what, c.got, c.want)
		}
	}
}
