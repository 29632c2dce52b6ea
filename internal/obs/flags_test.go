package obs

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestRegisterFlagsParse(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := RegisterFlags(fs)
	err := fs.Parse([]string{
		"-v", "-metrics", "m.json", "-pprof", "cpu.out",
		"-memprofile", "mem.out", "-trace", "trace.out", "-pprof-http", "localhost:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	want := Flags{Verbose: true, Metrics: "m.json", CPUProfile: "cpu.out",
		MemProfile: "mem.out", Trace: "trace.out", HTTP: "localhost:0",
		LogFormat: "text", AccessLog: true}
	if *f != want {
		t.Fatalf("parsed flags = %+v, want %+v", *f, want)
	}

	fs2 := flag.NewFlagSet("test2", flag.ContinueOnError)
	f2 := RegisterFlags(fs2)
	if err := fs2.Parse([]string{"-log-format", "json", "-access-log=false"}); err != nil {
		t.Fatal(err)
	}
	if f2.LogFormat != "json" || f2.AccessLog {
		t.Fatalf("parsed flags = %+v, want LogFormat=json AccessLog=false", *f2)
	}
}

// TestSetLogFormat checks the format switch round-trips and rejects
// unknown formats without disturbing the current logger.
func TestSetLogFormat(t *testing.T) {
	defer SetLogFormat("text")
	if err := SetLogFormat("json"); err != nil {
		t.Fatal(err)
	}
	if err := SetLogFormat(""); err != nil {
		t.Fatal(err)
	}
	if err := SetLogFormat("xml"); err == nil {
		t.Fatal("SetLogFormat accepted an unknown format")
	}
}

// TestSetAccessLog checks the access-log gate toggles.
func TestSetAccessLog(t *testing.T) {
	defer SetAccessLog(true)
	if !AccessLogEnabled() {
		t.Fatal("access log should default on")
	}
	SetAccessLog(false)
	if AccessLogEnabled() {
		t.Fatal("SetAccessLog(false) did not take")
	}
}

// TestFlagsStartStop runs the full bracket the binaries use: Start with
// every file output requested, a nested stage span, then stop — and
// checks each artefact landed: parseable metrics JSON with the run's
// stage metrics, and non-empty CPU/heap/trace profiles.
func TestFlagsStartStop(t *testing.T) {
	defer SetVerbose(false)
	// Start applies AccessLog, false in this Flags; restore the
	// process-wide default for the tests that follow.
	defer SetAccessLog(true)
	dir := t.TempDir()
	f := &Flags{
		Metrics:    filepath.Join(dir, "metrics.json"),
		CPUProfile: filepath.Join(dir, "cpu.pprof"),
		MemProfile: filepath.Join(dir, "mem.pprof"),
		Trace:      filepath.Join(dir, "run.trace"),
	}
	ctx, stop := f.Start("obs_test.run")
	_, sp := Start(ctx, "obs_test.stage")
	sp.SetCount("items", 3)
	sp.End()
	stop()

	data, err := os.ReadFile(f.Metrics)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Counters   map[string]uint64          `json:"counters"`
		Gauges     map[string]float64         `json:"gauges"`
		Histograms map[string]json.RawMessage `json:"histograms"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("metrics file does not parse: %v", err)
	}
	if doc.Gauges["stage.obs_test.run.wall_ns"] <= 0 {
		t.Error("metrics missing the root span's wall gauge")
	}
	if _, ok := doc.Histograms["stage.obs_test.stage.ns"]; !ok {
		t.Error("metrics missing the nested stage's histogram")
	}
	for _, path := range []string{f.CPUProfile, f.MemProfile, f.Trace} {
		fi, err := os.Stat(path)
		if err != nil {
			t.Errorf("missing artefact: %v", err)
			continue
		}
		if fi.Size() == 0 {
			t.Errorf("%s is empty", path)
		}
	}
}

// TestServePprof stands the debug listener up on an ephemeral port (via
// the listen seam, which reports the bound address) and checks both
// endpoints answer — /debug/vars carries the Default registry under the
// "mocktails" key and /debug/pprof/ serves the profile index — then
// cancels the listener's context and checks the port actually closes,
// pinning the no-leaked-goroutine contract of the bracket.
func TestServePprof(t *testing.T) {
	old := listen
	defer func() { listen = old }()
	var ln net.Listener
	listen = func(addr string) (net.Listener, error) {
		var err error
		ln, err = net.Listen("tcp", "127.0.0.1:0")
		return ln, err
	}
	NewCounter("obs_test.served").Inc()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := ServePprof(ctx, "ignored"); err != nil {
		t.Fatal(err)
	}
	base := fmt.Sprintf("http://%s", ln.Addr())

	body := httpGet(t, base+"/debug/vars")
	var vars struct {
		Mocktails struct {
			Counters map[string]uint64 `json:"counters"`
		} `json:"mocktails"`
	}
	if err := json.Unmarshal(body, &vars); err != nil {
		t.Fatalf("/debug/vars does not parse: %v", err)
	}
	if vars.Mocktails.Counters["obs_test.served"] == 0 {
		t.Error(`/debug/vars missing the Default registry under "mocktails"`)
	}
	if len(httpGet(t, base+"/debug/pprof/")) == 0 {
		t.Error("/debug/pprof/ served an empty index")
	}

	cancel()
	deadline := time.Now().Add(5 * time.Second)
	for {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			break // listener is down
		}
		conn.Close()
		if time.Now().After(deadline) {
			t.Fatal("listener still accepting after context cancellation")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func httpGet(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body
}
