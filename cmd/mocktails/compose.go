package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/dram"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/profile"
	"repro/internal/scenario"
	"repro/internal/trace"
)

// cmdCompose runs a scenario spec offline: the same declarative JSON
// `POST /v1/scenarios/synth` takes, resolved against a directory of
// profile files instead of a daemon's store. The composed stream is
// byte-identical to the daemon's for the same spec and profiles — the
// CI scenario-e2e job diffs the two.
func cmdCompose(args []string) {
	fs := flag.NewFlagSet("compose", flag.ExitOnError)
	specPath := fs.String("spec", "", "scenario spec JSON (- = stdin)")
	dir := fs.String("dir", ".", "directory holding the member profiles, named <id>.mfp (flat) or <id>.profile.gz")
	out := fs.String("out", "-", "output (- = stdout)")
	format := fs.String("format", "", "output: bin, csv or stats (default: the spec's output field, else bin)")
	workers := fs.Int("j", 1, "setup workers for device and per-leaf generator construction (0 = MOCKTAILS_PARALLELISM or GOMAXPROCS, 1 = serial); any value gives identical output")
	of := obs.RegisterFlags(fs)
	fs.Parse(args)
	if *specPath == "" {
		fatal(fmt.Errorf("compose: need -spec"))
	}
	ctx, stop := of.Start("mocktails.compose")
	defer stop()

	sf, err := openInput(*specPath)
	if err != nil {
		fatal(err)
	}
	data, err := io.ReadAll(sf)
	sf.Close()
	if err != nil {
		fatal(fmt.Errorf("%s: %w", *specPath, err))
	}
	spec, err := scenario.Parse(data)
	if err != nil {
		fatal(err)
	}
	outFormat := *format
	if outFormat == "" {
		outFormat = spec.Output
	}
	switch outFormat {
	case "":
		outFormat = "bin"
	case "bin", "csv", "stats":
	default:
		fatal(fmt.Errorf("compose: unknown -format %q (want bin, csv or stats)", outFormat))
	}

	j := *workers
	if j <= 0 {
		j = par.Default()
	}
	st, err := scenario.Compose(spec, dirResolver(*dir),
		scenario.Workers(j), scenario.Context(ctx))
	if err != nil {
		fatal(err)
	}
	defer st.Close()

	o, err := openOutput(*out)
	if err != nil {
		fatal(err)
	}
	defer o.Close()
	summary := io.Writer(os.Stdout)
	if *out == "-" {
		summary = os.Stderr // keep the composed bytes clean on stdout
	}

	_, wsp := obs.Start(ctx, "compose.write")
	switch outFormat {
	case "bin":
		_, err = trace.WriteBinaryStream(ctx, o, st.Total(), st.Next)
	case "csv":
		_, err = trace.WriteCSVStream(ctx, o, st.Next)
	case "stats":
		rep := scenario.Replay(st, spec, dram.Default())
		enc := json.NewEncoder(o)
		enc.SetIndent("", "  ")
		err = enc.Encode(rep)
	}
	wsp.End()
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(summary, "composed %d devices, %d requests (%s)\n",
		len(spec.Devices), st.Total(), outFormat)
}

// dirResolver resolves content addresses against a directory of
// profile files. Unlike the daemon's disk tier, which hashes each file
// against its name on first open, this offline resolver trusts the
// directory: the file <id>.mfp (or <id>.profile.gz) is taken to be the
// profile with that address without re-hashing — appropriate for a
// directory the user populated from trusted downloads. Either file
// opens through loadProfile, so flat files are memory-mapped and
// synthesized zero-copy.
func dirResolver(dir string) scenario.Resolver {
	return func(id string) (profile.View, func(), error) {
		path := filepath.Join(dir, id+".mfp")
		if _, err := os.Stat(path); err != nil {
			path = filepath.Join(dir, id+".profile.gz")
			if _, err := os.Stat(path); err != nil {
				return nil, nil, fmt.Errorf("no %s.mfp or %s.profile.gz in %s", id, id, dir)
			}
		}
		return loadProfile(path)
	}
}
