package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/profile"
	"repro/internal/scenario"
	"repro/internal/serve"
	"repro/internal/trace"
)

// composeFixture fits a profile from the tiny trace and stores it in
// dir under its content address, in both encodings the resolver
// accepts. It returns the content address.
func composeFixture(t *testing.T, dir string) string {
	t.Helper()
	tr := readTraceFile(t, tinyTrace(t, dir))
	p, err := core.Build("tiny", tr, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	id, _, err := serve.ProfileID(p)
	if err != nil {
		t.Fatal(err)
	}
	flat, err := os.Create(filepath.Join(dir, id+".mfp"))
	if err != nil {
		t.Fatal(err)
	}
	defer flat.Close()
	if err := profile.WriteFlat(flat, p); err != nil {
		t.Fatal(err)
	}
	gz, err := os.Create(filepath.Join(dir, id+".profile.gz"))
	if err != nil {
		t.Fatal(err)
	}
	defer gz.Close()
	if err := profile.WriteGzip(gz, p); err != nil {
		t.Fatal(err)
	}
	return id
}

func readTraceFile(t *testing.T, path string) trace.Trace {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	d, err := trace.NewDecoder(f)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := d.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func writeSpec(t *testing.T, dir string, spec *scenario.Spec) string {
	t.Helper()
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "spec.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCLICompose(t *testing.T) {
	dir := t.TempDir()
	id := composeFixture(t, dir)

	// A two-device mix with windows and dilation, composed to binary.
	spec := &scenario.Spec{Devices: []scenario.Device{
		{Profile: id, Name: "cpu", Window: &scenario.Window{Base: 0, Size: 1 << 28}, Seed: 1},
		{Profile: id, Name: "gpu", Window: &scenario.Window{Base: 1 << 28, Size: 1 << 28}, Seed: 2, Dilation: 2.0},
	}}
	specPath := writeSpec(t, dir, spec)
	binOut := filepath.Join(dir, "mix.bin")
	out, code := runSelf(t, "compose", "-spec", specPath, "-dir", dir, "-out", binOut, "-format", "bin")
	if code != 0 {
		t.Fatalf("compose: exit %d: %s", code, out)
	}
	mixed := readTraceFile(t, binOut)
	if len(mixed) != 800 { // two devices x 400 requests
		t.Fatalf("composed %d requests, want 800", len(mixed))
	}
	if !mixed.Sorted() {
		t.Fatal("composed stream is not time-ordered")
	}

	// Parallel compose is byte-identical.
	binOut2 := filepath.Join(dir, "mix2.bin")
	if out, code := runSelf(t, "compose", "-spec", specPath, "-dir", dir, "-out", binOut2, "-format", "bin", "-j", "8"); code != 0 {
		t.Fatalf("parallel compose: exit %d: %s", code, out)
	}
	a, _ := os.ReadFile(binOut)
	b, _ := os.ReadFile(binOut2)
	if string(a) != string(b) {
		t.Fatal("parallel compose differs from serial")
	}

	// A single-device identity spec matches `mocktails synth -format bin`.
	identity := &scenario.Spec{Devices: []scenario.Device{{Profile: id, Seed: 42}}}
	idSpecPath := writeSpec(t, dir, identity)
	composeOut := filepath.Join(dir, "identity.bin")
	if out, code := runSelf(t, "compose", "-spec", idSpecPath, "-dir", dir, "-out", composeOut); code != 0 {
		t.Fatalf("identity compose: exit %d: %s", code, out)
	}
	synthOut := filepath.Join(dir, "synth.bin")
	if out, code := runSelf(t, "synth", "-in", filepath.Join(dir, id+".mfp"), "-out", synthOut, "-seed", "42", "-format", "bin"); code != 0 {
		t.Fatalf("synth: exit %d: %s", code, out)
	}
	ca, _ := os.ReadFile(composeOut)
	sa, _ := os.ReadFile(synthOut)
	if string(ca) != string(sa) {
		t.Fatal("identity compose differs from plain synth")
	}

	// Stats output is a decodable contention report honouring the
	// spec's output field (no -format flag).
	statsSpec := &scenario.Spec{
		Devices: []scenario.Device{
			{Profile: id, Seed: 1},
			{Profile: id, Seed: 2, Count: 100},
		},
		Output:      "stats",
		XbarLatency: 10,
	}
	statsPath := writeSpec(t, dir, statsSpec)
	statsOut := filepath.Join(dir, "stats.json")
	if out, code := runSelf(t, "compose", "-spec", statsPath, "-dir", dir, "-out", statsOut); code != 0 {
		t.Fatalf("stats compose: exit %d: %s", code, out)
	}
	var rep scenario.Report
	data, err := os.ReadFile(statsOut)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("stats output is not a report: %v\n%s", err, data)
	}
	if rep.Requests != 500 || len(rep.Devices) != 2 {
		t.Fatalf("report: %d requests, %d devices (want 500, 2)", rep.Requests, len(rep.Devices))
	}

	// Unknown profile and invalid spec fail with a useful error.
	ghost := &scenario.Spec{Devices: []scenario.Device{{Profile: hexDigits64("0")}}}
	ghostPath := writeSpec(t, dir, ghost)
	if out, code := runSelf(t, "compose", "-spec", ghostPath, "-dir", dir, "-out", filepath.Join(dir, "x.bin")); code == 0 {
		t.Fatalf("compose of a missing profile succeeded: %s", out)
	}
	if err := os.WriteFile(filepath.Join(dir, "bad.json"), []byte(`{"devices": []}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if out, code := runSelf(t, "compose", "-spec", filepath.Join(dir, "bad.json"), "-dir", dir, "-out", "-"); code == 0 {
		t.Fatalf("compose of an invalid spec succeeded: %s", out)
	}
}

func hexDigits64(c string) string {
	s := ""
	for len(s) < 64 {
		s += c
	}
	return s
}
