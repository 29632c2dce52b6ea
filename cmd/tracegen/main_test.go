package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/trace"
)

func TestMain(m *testing.M) {
	if os.Getenv("TRACEGEN_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func runSelf(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "TRACEGEN_RUN_MAIN=1")
	out, err := cmd.CombinedOutput()
	if err == nil {
		return string(out), 0
	}
	if ee, ok := err.(*exec.ExitError); ok {
		return string(out), ee.ExitCode()
	}
	t.Fatalf("running %v: %v", args, err)
	return "", -1
}

func TestList(t *testing.T) {
	out, code := runSelf(t, "-list")
	if code != 0 {
		t.Fatalf("-list: exit %d, output:\n%s", code, out)
	}
	for _, want := range []string{"device proxies (Table II):", "HEVC1", "SPEC CPU2006 proxies"} {
		if !strings.Contains(out, want) {
			t.Errorf("-list output missing %q:\n%s", want, out)
		}
	}
}

func TestGenerateSpecFile(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "tiny.json")
	const tinySpec = `{
		"name": "tiny",
		"seed": 7,
		"phases": [
			{"streams": [{"base": 65536, "stride": 64, "count": 100, "gap": 10}]}
		]
	}`
	if err := os.WriteFile(spec, []byte(tinySpec), 0o644); err != nil {
		t.Fatal(err)
	}
	outPath := filepath.Join(dir, "tiny.trace.gz")
	out, code := runSelf(t, "-spec-file", spec, "-o", outPath)
	if code != 0 || !strings.Contains(out, "wrote "+outPath+": 100 requests") {
		t.Fatalf("-spec-file: exit %d, output:\n%s", code, out)
	}

	f, err := os.Open(outPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	d, err := trace.NewDecoder(f)
	if err != nil {
		t.Fatalf("reading generated trace: %v", err)
	}
	tr, err := d.ReadAll()
	if err != nil {
		t.Fatalf("reading generated trace: %v", err)
	}
	if len(tr) != 100 || !tr.Sorted() {
		t.Fatalf("generated trace: %d requests, sorted=%v", len(tr), tr.Sorted())
	}
}

func TestGenerateCSV(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "s.json")
	if err := os.WriteFile(spec, []byte(`{"name":"s","phases":[{"streams":[{"base":4096,"stride":64,"count":10,"gap":5}]}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	outPath := filepath.Join(dir, "s.csv")
	out, code := runSelf(t, "-spec-file", spec, "-o", outPath, "-format", "csv")
	if code != 0 {
		t.Fatalf("-format csv: exit %d, output:\n%s", code, out)
	}
	data, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(string(data), "\n"); lines < 10 {
		t.Errorf("csv output has %d lines, want >= 10", lines)
	}
}

func TestErrors(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "s.json")
	if err := os.WriteFile(spec, []byte(`{"name":"s","phases":[{"streams":[{"base":4096,"stride":64,"count":10,"gap":5}]}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		args []string
		code int
	}{
		{"no mode", nil, 2},
		{"bad flag", []string{"-definitely-not-a-flag"}, 2},
		{"unknown proxy", []string{"-name", "NoSuchWorkload"}, 1},
		{"unknown spec", []string{"-spec", "nosuchbench"}, 1},
		{"missing spec file", []string{"-spec-file", "/nonexistent.json"}, 1},
		{"bad format", []string{"-spec-file", spec, "-o", filepath.Join(dir, "x"), "-format", "tsv"}, 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			out, code := runSelf(t, c.args...)
			if code != c.code {
				t.Errorf("exit %d, want %d; output:\n%s", code, c.code, out)
			}
		})
	}
}
