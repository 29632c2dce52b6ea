// Command perfbench is the repository benchmark: it starts mocktailsd
// as a separate process, drives one closed-loop workload against it
// over HTTP, checks every response, and prints the end-to-end metrics
// (or, with --trace 1, the per-layer metrics of an in-process traced
// replay) as one JSON object on the last line of standard output.
//
// Usage (from the repository root; run.sh builds both binaries first):
//
//	perfbench --daemon BIN --work DIR --workload synth-mix|ingest|scenario-replay \
//	    --seed N --seconds S --trace 0|1
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// setupRuns is how many times a run sets up a daemon; setup_s is the
// median and the last daemon serves the measured phase.
const setupRuns = 5

// deadline bounds a whole run; past it the benchmark stops its daemon and
// exits non-zero.
const deadline = 170 * time.Second

// result is the last line of standard output.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// live tracks the daemon currently running, so a signal or the
// deadline can stop it before the process exits.
var live struct {
	sync.Mutex
	d *daemon
}

func setLive(d *daemon) {
	live.Lock()
	live.d = d
	live.Unlock()
}

func stopLive() {
	live.Lock()
	defer live.Unlock()
	live.d.stop()
	live.d = nil
}

func main() {
	os.Exit(run())
}

func run() int {
	wlName := flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := flag.Uint64("seed", 1, "request-sequence seed")
	seconds := flag.Float64("seconds", 10, "length of the measured phase in seconds")
	traceFlag := flag.Int("trace", 0, "1 = report the per-layer metrics of the traced run")
	bin := flag.String("daemon", ".bench_build/bin/mocktailsd", "mocktailsd binary")
	work := flag.String("work", ".bench_build/runs", "scratch directory for daemon state")
	flag.Parse()
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		stopLive()
		os.Exit(1)
	}()
	time.AfterFunc(deadline, func() {
		fmt.Fprintln(os.Stderr, "perfbench: run exceeded", deadline)
		stopLive()
		os.Exit(1)
	})
	defer stopLive()

	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	c, err := loadCorpus()
	if err != nil {
		return fail(err)
	}
	wl, err := newWorkload(*wlName, c, *seed)
	if err != nil {
		return fail(err)
	}
	runDir, err := filepath.Abs(filepath.Join(*work, fmt.Sprintf("%s-%d", *wlName, os.Getpid())))
	if err != nil {
		return fail(err)
	}
	defer os.RemoveAll(runDir)
	if err := wl.prepare(); err != nil {
		return fail(fmt.Errorf("offline oracle: %w", err))
	}

	hc := &http.Client{
		Transport: &http.Transport{
			MaxConnsPerHost:     runtime.NumCPU(),
			MaxIdleConnsPerHost: runtime.NumCPU(),
			DisableCompression:  true,
		},
		Timeout: 60 * time.Second,
	}

	// Set up setupRuns times from a cold process and a fresh disk tier;
	// the last daemon stays up for the measured phase.
	var setups []float64
	var d *daemon
	for k := 0; k < setupRuns; k++ {
		stopLive()
		dir := filepath.Join(runDir, fmt.Sprint("setup", k))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fail(err)
		}
		t0 := time.Now()
		if d, err = startDaemon(hc, *bin, filepath.Join(dir, "daemon.log"), daemonFlags(wl.storeConfig(dir))); err != nil {
			return fail(err)
		}
		setLive(d)
		if err := seedStore(wl, hc, d.base); err != nil {
			return fail(fmt.Errorf("store seeding: %w (daemon log: %s)", err, d.logTail()))
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	printEnv(*wlName, *seed, d.flags)

	warm := closedLoop(wl, hc, d.base, 0, phaseLimits{count: wl.warmup()})
	if err := d.resetPeakRSS(); err != nil {
		return fail(err)
	}
	counterNames := []string{"serve_store_hits", "serve_store_disk_promotions"}
	before, err := d.counters(hc, counterNames...)
	if err != nil {
		return fail(err)
	}
	dur := time.Duration(*seconds * float64(time.Second))
	runtime.GC() // start the measured phase without this process's set-up garbage
	ph := closedLoop(wl, hc, d.base, wl.warmup(), phaseLimits{
		minDur: dur, minReqs: minSamples, maxDur: max(dur, 60*time.Second), period: wl.warmup(),
	})
	rss, err := d.peakRSSMB()
	if err != nil {
		return fail(err)
	}
	after, err := d.counters(hc, counterNames...)
	if err != nil {
		return fail(err)
	}
	stopLive()

	attempted, failed := warm.attempted+ph.attempted, warm.failed+ph.failed
	correct := failed == 0 && wl.sampled() > 0
	lat := sortedCopy(ph.latMs)
	e2e := metrics{}
	e2e.set("throughput_rps", "1/s", float64(len(lat))/ph.wall.Seconds())
	e2e.set("latency_p50_ms", "ms", median(lat))
	e2e.set("latency_p95_ms", "ms", orderStat(lat, 95))
	e2e.set("server_peak_rss_mb", "MiB", rss)
	e2e.set("setup_s", "s", median(setups))
	errRate := float64(failed) / float64(attempted)

	fmt.Printf("%s: %d measured requests in %.2fs (%d warm-up), %d responses compared with the offline oracle\n",
		*wlName, len(lat), ph.wall.Seconds(), warm.attempted, wl.sampled())
	printMetrics(e2e)
	fmt.Printf("  %-28s %14.6f ratio\n", "error_rate", errRate)
	fmt.Print("  latency ms by percentile:")
	for _, p := range []int{1, 10, 25, 50, 75, 90, 99, 100} {
		fmt.Printf(" p%d=%.2f", p, orderStat(lat, p))
	}
	fmt.Println()
	for _, e := range []error{warm.firstErr, ph.firstErr} {
		if e != nil {
			fmt.Println("  first failure:", e)
		}
	}
	if len(lat) < minSamples {
		fmt.Printf("  WARNING: %d requests measured; p95 needs %d for %d samples beyond it\n", len(lat), minSamples, minTail)
	}

	out := e2e
	if *traceFlag == 1 {
		hits := after["serve_store_hits"] - before["serve_store_hits"]
		promos := after["serve_store_disk_promotions"] - before["serve_store_disk_promotions"]
		ramHit := 1.0 // a phase with no store reads missed nothing
		if hits+promos > 0 {
			ramHit = hits / (hits + promos)
		}
		layers, notes, err := traced(c, wl, *wlName, *seed, runDir, median(lat), ramHit)
		if err != nil {
			fmt.Println("  traced run:", err)
			correct = false
			layers = metrics{}
		}
		for _, n := range notes {
			fmt.Println("  " + n)
		}
		printMetrics(layers)
		out = layers
	}

	b, err := json.Marshal(result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: out})
	if err != nil {
		return fail(err)
	}
	fmt.Println(string(b))
	if !correct {
		return 1
	}
	return 0
}

func printMetrics(m metrics) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-28s %14.6f %s\n", n, m[n].Value, m[n].Unit)
	}
}

// printEnv stamps the run with what it ran on.
func printEnv(wlName string, seed uint64, flags []string) {
	env := map[string]any{
		"commit":        commit(),
		"go":            runtime.Version(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"nproc":         runtime.NumCPU(),
		"cpu":           cpuModel(),
		"workload":      wlName,
		"seed":          seed,
		"daemon_flags":  strings.Join(flags, " "),
		"client_conns":  runtime.NumCPU(),
		"setup_repeats": setupRuns,
	}
	b, _ := json.Marshal(env)
	fmt.Println("env:", string(b))
}

// commit is the checkout's git revision, or "unknown" outside a git
// work tree (a checkout made from an archive has none).
func commit() string {
	if _, err := os.Stat(".git"); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	rev := strings.TrimSpace(string(out))
	if st, err := exec.Command("git", "status", "--porcelain", "--untracked-files=no").Output(); err == nil && len(st) > 0 {
		rev += "+dirty"
	}
	return rev
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
