package main

import (
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/profile"
	"repro/internal/stats"
	"repro/internal/trace"
)

// The smoke tests re-execute the test binary with MOCKTAILS_RUN_MAIN
// set, which makes TestMain dispatch straight into main() — each
// subcommand runs as a real process with real flag parsing and real
// exit codes, on a tiny trace written to a temp dir.

func TestMain(m *testing.M) {
	if os.Getenv("MOCKTAILS_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runSelf invokes the binary with the given arguments and returns its
// combined output and exit code.
func runSelf(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "MOCKTAILS_RUN_MAIN=1")
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

// tinyTrace writes a small deterministic trace and returns its path.
func tinyTrace(t *testing.T, dir string) string {
	t.Helper()
	rng := stats.NewRNG(5)
	tr := make(trace.Trace, 0, 400)
	now, addr := uint64(100), uint64(1<<20)
	for i := 0; i < 400; i++ {
		now += uint64(rng.Range(1, 120))
		addr += uint64(rng.Range(-2, 6) * 64)
		op := trace.Read
		if rng.Bool(0.25) {
			op = trace.Write
		}
		tr = append(tr, trace.Request{Time: now, Addr: addr, Size: 64, Op: op})
	}
	path := filepath.Join(dir, "tiny.trace.gz")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := trace.WriteGzip(f, tr); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCLIPipeline(t *testing.T) {
	dir := t.TempDir()
	in := tinyTrace(t, dir)
	prof := filepath.Join(dir, "tiny.profile.gz")
	syn := filepath.Join(dir, "tiny.synth.trace.gz")

	out, code := runSelf(t, "stats", "-in", in)
	if code != 0 || !strings.Contains(out, "requests:  400") {
		t.Fatalf("stats: exit %d, output:\n%s", code, out)
	}

	out, code = runSelf(t, "profile", "-in", in, "-out", prof, "-interval", "5000", "-name", "tiny")
	if code != 0 || !strings.Contains(out, "Profile(tiny:") {
		t.Fatalf("profile: exit %d, output:\n%s", code, out)
	}
	if _, err := os.Stat(prof); err != nil {
		t.Fatalf("profile output missing: %v", err)
	}

	out, code = runSelf(t, "inspect", "-in", prof)
	if code != 0 || !strings.Contains(out, "tiny") {
		t.Fatalf("inspect: exit %d, output:\n%s", code, out)
	}

	out, code = runSelf(t, "synth", "-in", prof, "-out", syn, "-seed", "7")
	if code != 0 || !strings.Contains(out, "synthesised 400 requests") {
		t.Fatalf("synth: exit %d, output:\n%s", code, out)
	}

	out, code = runSelf(t, "simulate", "-in", syn)
	if code != 0 || !strings.Contains(out, "requests:") {
		t.Fatalf("simulate: exit %d, output:\n%s", code, out)
	}

	out, code = runSelf(t, "compare", "-ref", in, "-in", syn)
	if code != 0 || !strings.Contains(out, "mean error") {
		t.Fatalf("compare: exit %d, output:\n%s", code, out)
	}

	out, code = runSelf(t, "check", "-in", in, "-interval", "5000", "-name", "tiny", "-seed", "7")
	if code != 0 || !strings.Contains(out, "conformance: PASS") {
		t.Fatalf("check: exit %d, output:\n%s", code, out)
	}
}

func TestCLIAnalyze(t *testing.T) {
	dir := t.TempDir()
	in := tinyTrace(t, dir)
	out, code := runSelf(t, "analyze", "-in", in)
	if code != 0 {
		t.Fatalf("analyze: exit %d, output:\n%s", code, out)
	}
}

func TestCLIErrors(t *testing.T) {
	cases := []struct {
		name string
		args []string
		code int
	}{
		{"no subcommand", nil, 2},
		{"unknown subcommand", []string{"bogus"}, 2},
		{"stats without -in", []string{"stats"}, 1},
		{"profile without -out", []string{"profile", "-in", "x.trace.gz"}, 1},
		{"check without -in", []string{"check"}, 1},
		{"check bad spatial", []string{"check", "-in", "x", "-spatial", "zz"}, 1},
		{"missing input file", []string{"stats", "-in", "/nonexistent.trace.gz"}, 1},
		{"synth bad format", []string{"synth", "-in", "x.profile.gz", "-out", "y", "-format", "xml"}, 1},
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

// synth -format bin/csv and -n: the uncompressed formats decode to the
// same requests as the default gzip output, and -n truncates.
func TestCLISynthFormats(t *testing.T) {
	dir := t.TempDir()
	in := tinyTrace(t, dir)
	prof := filepath.Join(dir, "tiny.profile.gz")
	if out, code := runSelf(t, "profile", "-in", in, "-out", prof, "-interval", "5000", "-name", "tiny"); code != 0 {
		t.Fatalf("profile: exit %d, output:\n%s", code, out)
	}

	gz := filepath.Join(dir, "s.trace.gz")
	bin := filepath.Join(dir, "s.trace.bin")
	csv := filepath.Join(dir, "s.trace.csv")
	for _, c := range [][]string{
		{"synth", "-in", prof, "-seed", "7", "-out", gz},
		{"synth", "-in", prof, "-seed", "7", "-format", "bin", "-out", bin},
		{"synth", "-in", prof, "-seed", "7", "-format", "csv", "-out", csv},
	} {
		if out, code := runSelf(t, c...); code != 0 {
			t.Fatalf("%v: exit %d, output:\n%s", c, code, out)
		}
	}
	want := readAs(t, gz, trace.ReadGzip)
	if got := readAs(t, bin, trace.ReadBinary); !slices.Equal(got, want) {
		t.Fatal("-format bin decodes to different requests than gzip output")
	}
	if got := readAs(t, csv, trace.ReadCSV); !slices.Equal(got, want) {
		t.Fatal("-format csv decodes to different requests than gzip output")
	}

	if out, code := runSelf(t, "synth", "-in", prof, "-seed", "7", "-n", "100", "-format", "bin", "-out", bin); code != 0 || !strings.Contains(out, "synthesised 100 requests") {
		t.Fatalf("synth -n: exit %d, output:\n%s", code, out)
	}
	if got := readAs(t, bin, trace.ReadBinary); !slices.Equal(got, want[:100]) {
		t.Fatal("-n 100 is not the prefix of the full stream")
	}
}

func readAs(t *testing.T, path string, read func(r io.Reader) (trace.Trace, error)) trace.Trace {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tr, err := read(f)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return tr
}

func TestCLICheckFailsOnBadTrace(t *testing.T) {
	// A trace file with corrupt contents must fail cleanly, not panic.
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.trace.gz")
	if err := os.WriteFile(bad, []byte("not a gzip stream"), 0o644); err != nil {
		t.Fatal(err)
	}
	out, code := runSelf(t, "check", "-in", bad)
	if code != 1 {
		t.Errorf("corrupt input: exit %d, want 1; output:\n%s", code, out)
	}
}

// TestCLIFlatFormat drives the flat encoding through every CLI path:
// profile -format flat produces an openable flat file, convert moves
// between encodings (with -to inferred from the .mfp extension),
// inspect auto-detects, and synth from the flat profile emits exactly
// the bytes the gz profile does.
func TestCLIFlatFormat(t *testing.T) {
	dir := t.TempDir()
	in := tinyTrace(t, dir)
	gzProf := filepath.Join(dir, "tiny.profile.gz")
	flatProf := filepath.Join(dir, "tiny.mfp")

	if out, code := runSelf(t, "profile", "-in", in, "-out", gzProf, "-interval", "5000", "-name", "tiny"); code != 0 {
		t.Fatalf("profile gz: exit %d, output:\n%s", code, out)
	}
	if out, code := runSelf(t, "profile", "-in", in, "-out", flatProf, "-format", "flat", "-interval", "5000", "-name", "tiny"); code != 0 {
		t.Fatalf("profile flat: exit %d, output:\n%s", code, out)
	}
	f, err := profile.OpenFlatFile(flatProf)
	if err != nil {
		t.Fatalf("profile -format flat output does not open: %v", err)
	}
	if f.Name() != "tiny" || f.Requests() != 400 {
		t.Fatalf("flat profile header: name %q, %d requests", f.Name(), f.Requests())
	}
	f.Close()

	// convert gz -> flat (target inferred from .mfp) must byte-match the
	// directly-written flat file; flat -> gz must byte-match the gz one.
	convFlat := filepath.Join(dir, "conv.mfp")
	convGz := filepath.Join(dir, "conv.profile.gz")
	if out, code := runSelf(t, "convert", "-in", gzProf, "-out", convFlat); code != 0 {
		t.Fatalf("convert to flat: exit %d, output:\n%s", code, out)
	}
	if !fileEqual(t, convFlat, flatProf) {
		t.Fatal("converted flat file differs from directly-written one")
	}
	// convert flat -> flat writes the input bytes unchanged, also when
	// -out names the input file itself.
	flatCopy := filepath.Join(dir, "copy.mfp")
	if out, code := runSelf(t, "convert", "-in", flatProf, "-out", flatCopy); code != 0 {
		t.Fatalf("convert flat to flat: exit %d, output:\n%s", code, out)
	}
	if out, code := runSelf(t, "convert", "-in", flatCopy, "-out", flatCopy); code != 0 {
		t.Fatalf("convert flat to flat in place: exit %d, output:\n%s", code, out)
	}
	if !fileEqual(t, flatCopy, flatProf) {
		t.Fatal("flat -> flat conversion changed the bytes")
	}
	if out, code := runSelf(t, "convert", "-in", convFlat, "-out", convGz, "-to", "gz"); code != 0 {
		t.Fatalf("convert to gz: exit %d, output:\n%s", code, out)
	}
	pf, err := os.Open(convGz)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := profile.ReadGzip(pf)
	pf.Close()
	if err != nil || p2.Name != "tiny" {
		t.Fatalf("round-tripped gz profile: %v (name %q)", err, p2.Name)
	}

	// inspect decodes a gz profile directly and copies a flat one out
	// of its view; both must print the same dump.
	flatDump, code := runSelf(t, "inspect", "-in", flatProf, "-leaves", "1000")
	if code != 0 || !strings.Contains(flatDump, "tiny") {
		t.Fatalf("inspect flat: exit %d, output:\n%s", code, flatDump)
	}
	if gzDump, code := runSelf(t, "inspect", "-in", gzProf, "-leaves", "1000"); code != 0 || gzDump != flatDump {
		t.Fatalf("inspect gz: exit %d, output differs from the flat encoding's:\ngz:\n%s\nflat:\n%s", code, gzDump, flatDump)
	}

	// synth must not care which encoding it reads.
	synGz := filepath.Join(dir, "from-gz.trace.gz")
	synFlat := filepath.Join(dir, "from-flat.trace.gz")
	if out, code := runSelf(t, "synth", "-in", gzProf, "-seed", "7", "-out", synGz); code != 0 {
		t.Fatalf("synth gz: exit %d, output:\n%s", code, out)
	}
	if out, code := runSelf(t, "synth", "-in", flatProf, "-seed", "7", "-out", synFlat); code != 0 {
		t.Fatalf("synth flat: exit %d, output:\n%s", code, out)
	}
	if !slices.Equal(readAs(t, synGz, trace.ReadGzip), readAs(t, synFlat, trace.ReadGzip)) {
		t.Fatal("synth from flat differs from synth from gz")
	}

	// A corrupt flat profile errors cleanly, never panics.
	bad := filepath.Join(dir, "bad.mfp")
	buf, err := os.ReadFile(flatProf)
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)/2] ^= 0x20
	if err := os.WriteFile(bad, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	if out, code := runSelf(t, "synth", "-in", bad, "-out", filepath.Join(dir, "x.gz")); code != 1 || strings.Contains(out, "panic") {
		t.Fatalf("corrupt flat: exit %d, output:\n%s", code, out)
	}
}

func fileEqual(t *testing.T, a, b string) bool {
	t.Helper()
	ab, err := os.ReadFile(a)
	if err != nil {
		t.Fatal(err)
	}
	bb, err := os.ReadFile(b)
	if err != nil {
		t.Fatal(err)
	}
	return string(ab) == string(bb)
}
