package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"repro/internal/scenario"
	"repro/internal/trace"
)

// runSelfPipe invokes the binary with stdin fed from the given bytes
// and returns stdout and stderr separately, so tests can assert "-"
// outputs keep the data stream clean.
func runSelfPipe(t *testing.T, stdin []byte, args ...string) (stdout, stderr []byte, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "MOCKTAILS_RUN_MAIN=1")
	cmd.Stdin = bytes.NewReader(stdin)
	var outBuf, errBuf bytes.Buffer
	cmd.Stdout, cmd.Stderr = &outBuf, &errBuf
	err := cmd.Run()
	if err == nil {
		return outBuf.Bytes(), errBuf.Bytes(), 0
	}
	if ee, ok := err.(*exec.ExitError); ok {
		return outBuf.Bytes(), errBuf.Bytes(), ee.ExitCode()
	}
	t.Fatalf("running %v: %v", args, err)
	return nil, nil, -1
}

// TestCLIProfileFromStdin: `mocktails profile -in - -out -` over a
// piped gz trace must emit exactly the profile a file-to-file run
// produces, with the summary on stderr.
func TestCLIProfileFromStdin(t *testing.T) {
	dir := t.TempDir()
	in := tinyTrace(t, dir)
	prof := filepath.Join(dir, "file.profile.gz")

	if out, code := runSelf(t, "profile", "-in", in, "-out", prof); code != 0 {
		t.Fatalf("file profile failed (%d): %s", code, out)
	}
	want, err := os.ReadFile(prof)
	if err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(in)
	if err != nil {
		t.Fatal(err)
	}
	stdout, stderr, code := runSelfPipe(t, raw, "profile", "-in", "-", "-out", "-")
	if code != 0 {
		t.Fatalf("stdin profile failed (%d): %s", code, stderr)
	}
	if !bytes.Equal(stdout, want) {
		t.Fatalf("stdin/stdout profile differs from file build (%d vs %d bytes)", len(stdout), len(want))
	}
	if !bytes.Contains(stderr, []byte("Profile(")) {
		t.Fatalf("summary missing from stderr: %q", stderr)
	}
}

// TestCLIProfileSniffsFormats: the same trace delivered as raw binary
// and as CSV must profile identically to the gz original — the decoder
// sniffs all three.
func TestCLIProfileSniffsFormats(t *testing.T) {
	dir := t.TempDir()
	in := tinyTrace(t, dir)
	tr := readTraceFile(t, in)

	binPath := filepath.Join(dir, "tiny.trace.bin")
	bf, err := os.Create(binPath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trace.WriteBinary(bf, tr); err != nil {
		t.Fatal(err)
	}
	bf.Close()
	csvPath := filepath.Join(dir, "tiny.trace.csv")
	cf, err := os.Create(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trace.WriteCSV(cf, tr); err != nil {
		t.Fatal(err)
	}
	cf.Close()

	profiles := make([][]byte, 0, 3)
	for _, input := range []string{in, binPath, csvPath} {
		out := input + ".profile"
		if msg, code := runSelf(t, "profile", "-in", input, "-out", out); code != 0 {
			t.Fatalf("profiling %s failed (%d): %s", input, code, msg)
		}
		b, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		profiles = append(profiles, b)
	}
	if !bytes.Equal(profiles[0], profiles[1]) || !bytes.Equal(profiles[0], profiles[2]) {
		t.Fatal("gz, bin and csv inputs produced different profiles")
	}
}

// TestCLISynthStdio: a full shell-style pipeline — profile to stdout,
// synth from stdin to stdout — matches the file-based path byte for
// byte.
func TestCLISynthStdio(t *testing.T) {
	dir := t.TempDir()
	in := tinyTrace(t, dir)
	prof := filepath.Join(dir, "p.profile.gz")
	synFile := filepath.Join(dir, "s.bin")

	if out, code := runSelf(t, "profile", "-in", in, "-out", prof); code != 0 {
		t.Fatalf("profile failed (%d): %s", code, out)
	}
	if out, code := runSelf(t, "synth", "-in", prof, "-seed", "7", "-format", "bin", "-out", synFile); code != 0 {
		t.Fatalf("synth failed (%d): %s", code, out)
	}
	want, err := os.ReadFile(synFile)
	if err != nil {
		t.Fatal(err)
	}

	profBytes, err := os.ReadFile(prof)
	if err != nil {
		t.Fatal(err)
	}
	stdout, stderr, code := runSelfPipe(t, profBytes, "synth", "-in", "-", "-seed", "7", "-format", "bin", "-out", "-")
	if code != 0 {
		t.Fatalf("stdio synth failed (%d): %s", code, stderr)
	}
	if !bytes.Equal(stdout, want) {
		t.Fatalf("stdio synth differs from file synth (%d vs %d bytes)", len(stdout), len(want))
	}
	if !bytes.Contains(stderr, []byte("synthesised")) {
		t.Fatalf("summary missing from stderr: %q", stderr)
	}
}

// TestCLISynthFlatFromStdin: a flat profile piped through stdin is
// sniffed and synthesised identically to the gz path.
func TestCLISynthFlatFromStdin(t *testing.T) {
	dir := t.TempDir()
	in := tinyTrace(t, dir)
	prof := filepath.Join(dir, "p.profile.gz")
	flat := filepath.Join(dir, "p.mfp")

	if out, code := runSelf(t, "profile", "-in", in, "-out", prof); code != 0 {
		t.Fatalf("profile failed (%d): %s", code, out)
	}
	if out, code := runSelf(t, "convert", "-in", prof, "-out", flat, "-to", "flat"); code != 0 {
		t.Fatalf("convert failed (%d): %s", code, out)
	}
	flatBytes, err := os.ReadFile(flat)
	if err != nil {
		t.Fatal(err)
	}
	fromFlat, stderr, code := runSelfPipe(t, flatBytes, "synth", "-in", "-", "-seed", "9", "-format", "bin", "-out", "-")
	if code != 0 {
		t.Fatalf("flat stdin synth failed (%d): %s", code, stderr)
	}
	profBytes, err := os.ReadFile(prof)
	if err != nil {
		t.Fatal(err)
	}
	fromGz, _, code := runSelfPipe(t, profBytes, "synth", "-in", "-", "-seed", "9", "-format", "bin", "-out", "-")
	if code != 0 {
		t.Fatal("gz stdin synth failed")
	}
	if !bytes.Equal(fromFlat, fromGz) {
		t.Fatal("flat and gz stdin profiles synthesise different traces")
	}
}

// TestCLIProfileOpeners: every way the CLI opens a profile — flat or gz
// bytes on stdin, and a compose directory holding only <id>.profile.gz
// — synthesizes exactly the bytes the memory-mapped flat file does.
func TestCLIProfileOpeners(t *testing.T) {
	dir := t.TempDir()
	id := composeFixture(t, dir)
	flat := filepath.Join(dir, id+".mfp")
	gz := filepath.Join(dir, id+".profile.gz")
	synthOut := filepath.Join(dir, "flat.bin")
	if out, code := runSelf(t, "synth", "-in", flat, "-seed", "7", "-format", "bin", "-out", synthOut); code != 0 {
		t.Fatalf("synth from flat file failed (%d): %s", code, out)
	}
	want, err := os.ReadFile(synthOut)
	if err != nil {
		t.Fatal(err)
	}

	for _, in := range []string{flat, gz} {
		data, err := os.ReadFile(in)
		if err != nil {
			t.Fatal(err)
		}
		got, stderr, code := runSelfPipe(t, data, "synth", "-in", "-", "-seed", "7", "-format", "bin", "-out", "-")
		if code != 0 {
			t.Fatalf("synth from %s on stdin failed (%d): %s", filepath.Base(in), code, stderr)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("synth from %s on stdin differs from the flat file (%d vs %d bytes)", filepath.Base(in), len(got), len(want))
		}
	}

	gzDir := t.TempDir()
	data, err := os.ReadFile(gz)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(gzDir, id+".profile.gz"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	spec := writeSpec(t, dir, &scenario.Spec{Devices: []scenario.Device{{Profile: id, Seed: 7}}})
	composeOut := filepath.Join(dir, "gzdir.bin")
	if out, code := runSelf(t, "compose", "-spec", spec, "-dir", gzDir, "-out", composeOut); code != 0 {
		t.Fatalf("compose over a gz directory failed (%d): %s", code, out)
	}
	got, err := os.ReadFile(composeOut)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("compose over a gz directory differs from the flat file (%d vs %d bytes)", len(got), len(want))
	}
}
