// Command mocktails is the end-to-end tool mirroring Fig. 1 of the
// paper: it builds statistical profiles from traces (the industry side)
// and synthesises traces from profiles (the academia side), and can
// simulate either against the repository's DRAM model.
//
// Usage:
//
//	mocktails profile -in workload.trace.gz -out workload.profile.gz [-format gz|flat] [-interval 500000] [-spatial dynamic|4096] [-j N]
//	mocktails synth   -in workload.profile.gz -out synthetic.trace.gz [-seed 42] [-n N] [-format gz|bin|csv] [-j N]
//	mocktails compose -spec scenario.json -dir profiles/ [-out -] [-format bin|csv|stats] [-j N]
//	mocktails convert -in workload.profile.gz -out workload.mfp [-to gz|flat]
//	mocktails serve   [-addr localhost:8677] [-store-budget 256MiB] [-peers http://h2:8677,...] ...
//	mocktails loadgen [-targets http://h1:8677,...] {-id ID | -upload workload.profile.gz} [-c 1,4,16] [-qps 50]
//	mocktails stats   -in workload.trace.gz
//	mocktails simulate -in workload.trace.gz
//	mocktails analyze -in workload.trace.gz [-top 8]
//	mocktails compare -ref original.trace.gz -in synthetic.trace.gz
//	mocktails check   -in workload.trace.gz [-seed 42] [-max-dt 1.9] [-max-stride 1.9]
//
// Trace inputs may be raw binary, CSV or gzip (sniffed by magic), and
// profile/synth accept "-" for -in/-out to read stdin and write stdout,
// so the subcommands compose into shell pipelines. `mocktails profile`
// streams: the trace is partitioned and fitted as records are decoded,
// in memory proportional to the fit frontier rather than the trace.
package main

import (
	"bufio"
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/loadgen"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/partition"
	"repro/internal/profile"
	"repro/internal/serve"
	"repro/internal/trace"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "profile":
		cmdProfile(os.Args[2:])
	case "synth":
		cmdSynth(os.Args[2:])
	case "compose":
		cmdCompose(os.Args[2:])
	case "convert":
		cmdConvert(os.Args[2:])
	case "stats":
		cmdStats(os.Args[2:])
	case "simulate":
		cmdSimulate(os.Args[2:])
	case "analyze":
		cmdAnalyze(os.Args[2:])
	case "compare":
		cmdCompare(os.Args[2:])
	case "inspect":
		cmdInspect(os.Args[2:])
	case "check":
		cmdCheck(os.Args[2:])
	case "serve":
		serve.Main("mocktails serve", os.Args[2:])
	case "loadgen":
		loadgen.Main("mocktails loadgen", os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: mocktails {profile|synth|compose|convert|stats|simulate|analyze|compare|inspect|check|serve|loadgen} [flags]")
	os.Exit(2)
}

func cmdInspect(args []string) {
	fs := flag.NewFlagSet("inspect", flag.ExitOnError)
	in := fs.String("in", "", "input profile")
	leaves := fs.Int("leaves", 10, "number of largest leaves to show")
	of := obs.RegisterFlags(fs)
	fs.Parse(args)
	_, stop := of.Start("mocktails.inspect")
	defer stop()
	if *in == "" {
		fatal(fmt.Errorf("inspect: need -in"))
	}
	profile.Dump(os.Stdout, readProfile(*in), *leaves)
}

// loadProfile reads a profile in either encoding, sniffing the format
// from the bytes ("-" reads stdin); it is the only code that tells the
// two encodings apart. A gz profile is decoded once into a heap profile
// (f is nil); a flat file is memory-mapped and flat stdin opens over
// its buffer (p is nil). The caller must Close a non-nil f.
func loadProfile(path string) (p *profile.Profile, f *profile.Flat, err error) {
	in, err := openInput(path)
	if err != nil {
		return nil, nil, err
	}
	defer in.Close()
	br := bufio.NewReader(in)
	hdr, _ := br.Peek(8)
	switch {
	case profile.SniffFlat(hdr) && path != "-":
		f, err = profile.OpenFlatFile(path)
	case profile.SniffFlat(hdr):
		var buf []byte
		if buf, err = io.ReadAll(br); err == nil {
			f, err = profile.OpenFlat(buf)
		}
	default:
		p, err = profile.ReadGzip(br)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", inputName(path), err)
	}
	return p, f, nil
}

// inputName names an -in path in error messages.
func inputName(path string) string {
	if path == "-" {
		return "stdin"
	}
	return path
}

// openProfile opens a profile in either encoding (see loadProfile) as
// a flat view; a gz profile is re-encoded flat, so every caller
// synthesizes from the same representation the daemon serves from. The
// caller must Close the result.
func openProfile(path string) (*profile.Flat, error) {
	p, f, err := loadProfile(path)
	if err != nil || f != nil {
		return f, err
	}
	buf, err := profile.MarshalFlat(p)
	if err == nil {
		f, err = profile.OpenFlat(buf)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", inputName(path), err)
	}
	return f, nil
}

// readProfile loads a profile in either encoding (see loadProfile) as a
// heap profile: a gz profile is decoded once, a flat one copied out of
// its view.
func readProfile(path string) *profile.Profile {
	p, f, err := loadProfile(path)
	if err != nil {
		fatal(err)
	}
	if f != nil {
		defer f.Close()
		p = f.Profile()
	}
	return p
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mocktails:", err)
	os.Exit(1)
}

// readTraceCtx loads a trace under a "load" span nested below ctx.
func readTraceCtx(ctx context.Context, path string) trace.Trace {
	_, sp := obs.Start(ctx, "load")
	t := readTrace(path)
	sp.SetCount("requests", int64(len(t)))
	sp.End()
	return t
}

// parseConfig turns the shared -temporal/-interval/-spatial flag values
// into a partitioning configuration.
func parseConfig(mode string, interval uint64, spatial string) (partition.Config, error) {
	var layers []partition.Layer
	switch mode {
	case "cycles":
		layers = append(layers, partition.Layer{Kind: partition.TemporalCycleCount, Param: interval})
	case "requests":
		layers = append(layers, partition.Layer{Kind: partition.TemporalRequestCount, Param: interval})
	default:
		return partition.Config{}, fmt.Errorf("unknown temporal scheme %q", mode)
	}
	if spatial == "dynamic" {
		layers = append(layers, partition.Layer{Kind: partition.SpatialDynamic})
	} else {
		bs, err := strconv.ParseUint(spatial, 10, 64)
		if err != nil {
			return partition.Config{}, fmt.Errorf("bad -spatial %q: %w", spatial, err)
		}
		layers = append(layers, partition.Layer{Kind: partition.SpatialFixed, Param: bs})
	}
	return partition.Config{Layers: layers}, nil
}

// openInput opens path for reading; "-" selects stdin, so subcommands
// compose into shell pipelines without temp files.
func openInput(path string) (io.ReadCloser, error) {
	if path == "-" {
		return io.NopCloser(os.Stdin), nil
	}
	return os.Open(path)
}

// openOutput creates path for writing; "-" selects stdout (which is
// left open on Close).
func openOutput(path string) (io.WriteCloser, error) {
	if path == "-" {
		return nopWriteCloser{os.Stdout}, nil
	}
	return os.Create(path)
}

type nopWriteCloser struct{ io.Writer }

func (nopWriteCloser) Close() error { return nil }

// readTrace materialises a whole trace from path ("-" = stdin). The
// encoding — raw binary, CSV, or gzip — is sniffed from the leading
// bytes by the incremental decoder.
func readTrace(path string) trace.Trace {
	f, err := openInput(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	d, err := trace.NewDecoder(f)
	if err != nil {
		fatal(fmt.Errorf("%s: %w", path, err))
	}
	t, err := d.ReadAll()
	if err != nil {
		fatal(fmt.Errorf("%s: %w", path, err))
	}
	return t
}

func cmdProfile(args []string) {
	fs := flag.NewFlagSet("profile", flag.ExitOnError)
	in := fs.String("in", "", "input trace (bin, csv or gz, sniffed; - = stdin)")
	out := fs.String("out", "", "output profile (- = stdout)")
	interval := fs.Uint64("interval", 500000, "temporal partition length")
	mode := fs.String("temporal", "cycles", "temporal scheme: cycles or requests")
	spatial := fs.String("spatial", "dynamic", "spatial scheme: dynamic or a block size in bytes")
	name := fs.String("name", "workload", "workload name stored in the profile")
	format := fs.String("format", "gz", "output profile encoding: gz (portable canonical) or flat (zero-copy, mmap-able)")
	workers := fs.Int("j", 0, "leaf-fitting workers (0 = MOCKTAILS_PARALLELISM or GOMAXPROCS); any value gives identical output")
	of := obs.RegisterFlags(fs)
	fs.Parse(args)
	if *in == "" || *out == "" {
		fatal(fmt.Errorf("profile: need -in and -out"))
	}
	if *format != "gz" && *format != "flat" {
		fatal(fmt.Errorf("profile: unknown -format %q (want gz or flat)", *format))
	}

	cfg, err := parseConfig(*mode, *interval, *spatial)
	if err != nil {
		fatal(err)
	}

	ctx, stop := of.Start("mocktails.profile")
	defer stop()
	// The trace streams straight from the decoder into incremental
	// partitioning and fitting (core.BuildStream): decode, partition
	// and fit overlap, and peak memory is the fit frontier, not the
	// trace. The profile is byte-identical to a materialised build.
	rf, err := openInput(*in)
	if err != nil {
		fatal(err)
	}
	defer rf.Close()
	d, err := trace.NewDecoder(rf)
	if err != nil {
		fatal(fmt.Errorf("%s: %w", *in, err))
	}
	pctx, psp := obs.Start(ctx, "profile")
	p, err := core.BuildStream(*name, d, cfg, core.Workers(*workers), core.BuildContext(pctx))
	if err != nil {
		fatal(err)
	}
	psp.SetCount("requests", int64(d.Records()))
	psp.SetCount("leaves", int64(len(p.Leaves)))
	psp.End()
	_, wsp := obs.Start(ctx, "write")
	f, err := openOutput(*out)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	if *format == "flat" {
		err = profile.WriteFlat(f, p)
	} else {
		err = profile.WriteGzip(f, p)
	}
	if err != nil {
		fatal(err)
	}
	wsp.End()
	summary := io.Writer(os.Stdout)
	if *out == "-" {
		summary = os.Stderr // keep the profile bytes clean on stdout
	}
	fmt.Fprintln(summary, p)
}

func cmdConvert(args []string) {
	fs := flag.NewFlagSet("convert", flag.ExitOnError)
	in := fs.String("in", "", "input profile (gz or flat, auto-detected)")
	out := fs.String("out", "", "output profile")
	to := fs.String("to", "", "output encoding: gz or flat (default: flat when -out ends in .mfp, else gz)")
	of := obs.RegisterFlags(fs)
	fs.Parse(args)
	if *in == "" || *out == "" {
		fatal(fmt.Errorf("convert: need -in and -out"))
	}
	target := *to
	if target == "" {
		if strings.HasSuffix(*out, ".mfp") {
			target = "flat"
		} else {
			target = "gz"
		}
	}
	if target != "gz" && target != "flat" {
		fatal(fmt.Errorf("convert: unknown -to %q (want gz or flat)", target))
	}
	_, stop := of.Start("mocktails.convert")
	defer stop()
	p, f, err := loadProfile(*in)
	if err != nil {
		fatal(err)
	}
	// A flat input converted to flat is written as the verified bytes it
	// is, with no decode or re-encode. Everything is read out of the
	// input (a mapping of it, for a flat file) before -out is created,
	// so -out may name the input.
	var flat []byte
	var leaves int
	if f != nil {
		leaves = f.NumLeaves()
		if target == "flat" {
			flat = bytes.Clone(f.Bytes())
		} else {
			p = f.Profile()
		}
		f.Close()
	} else {
		leaves = len(p.Leaves)
	}
	o, err := os.Create(*out)
	if err != nil {
		fatal(err)
	}
	switch {
	case flat != nil:
		_, err = o.Write(flat)
	case target == "flat":
		err = profile.WriteFlat(o, p)
	default:
		err = profile.WriteGzip(o, p)
	}
	if cerr := o.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fatal(err)
	}
	fmt.Printf("converted %s (%d leaves) to %s encoding: %s\n", *in, leaves, target, *out)
}

func cmdSynth(args []string) {
	fs := flag.NewFlagSet("synth", flag.ExitOnError)
	in := fs.String("in", "", "input profile (gz or flat, sniffed; - = stdin)")
	out := fs.String("out", "", "output trace (- = stdout)")
	seed := fs.Uint64("seed", 42, "synthesis seed")
	n := fs.Uint64("n", 0, "emit only the first n requests (0 = all)")
	format := fs.String("format", "gz", "output format: gz, bin or csv")
	workers := fs.Int("j", 1, "setup workers for per-leaf generator construction (0 = MOCKTAILS_PARALLELISM or GOMAXPROCS, 1 = serial); any value gives identical output")
	of := obs.RegisterFlags(fs)
	fs.Parse(args)
	if *in == "" || *out == "" {
		fatal(fmt.Errorf("synth: need -in and -out"))
	}
	if *format != "gz" && *format != "bin" && *format != "csv" {
		fatal(fmt.Errorf("synth: unknown -format %q", *format))
	}
	ctx, stop := of.Start("mocktails.synth")
	defer stop()
	// The input encoding is sniffed, not configured; synthesis always
	// runs over a flat view (see openProfile), so output is
	// byte-identical for either encoding.
	_, lsp := obs.Start(ctx, "load")
	fp, err := openProfile(*in)
	if err != nil {
		fatal(err)
	}
	defer fp.Close()
	lsp.SetCount("leaves", int64(fp.NumLeaves()))
	lsp.End()
	j := *workers
	if j <= 0 {
		j = par.Default()
	}
	sctx, ssp := obs.Start(ctx, "synth")
	src := core.SynthesizeFrom(fp, *seed, core.SynthWorkers(j), core.SynthContext(sctx))
	t := trace.Collect(src, int(*n))
	if c, ok := src.(interface{ Close() }); ok {
		c.Close() // flush the merge stats when -n truncated the stream
	}
	ssp.SetCount("requests", int64(len(t)))
	ssp.End()
	_, wsp := obs.Start(ctx, "write")
	o, err := openOutput(*out)
	if err != nil {
		fatal(err)
	}
	defer o.Close()
	switch *format {
	case "gz":
		err = trace.WriteGzip(o, t)
	case "bin":
		_, err = trace.WriteBinary(o, t)
	case "csv":
		_, err = trace.WriteCSV(o, t)
	}
	if err != nil {
		fatal(err)
	}
	wsp.End()
	summary := io.Writer(os.Stdout)
	if *out == "-" {
		summary = os.Stderr // keep the trace bytes clean on stdout
	}
	fmt.Fprintf(summary, "synthesised %d requests from %s\n", len(t), fp.Name())
}

func cmdStats(args []string) {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	in := fs.String("in", "", "input trace")
	of := obs.RegisterFlags(fs)
	fs.Parse(args)
	if *in == "" {
		fatal(fmt.Errorf("stats: need -in"))
	}
	ctx, stop := of.Start("mocktails.stats")
	defer stop()
	t := readTraceCtx(ctx, *in)
	reads, writes := t.Counts()
	lo, hi := t.AddrRange()
	fmt.Printf("requests:  %d (%d reads, %d writes)\n", len(t), reads, writes)
	fmt.Printf("duration:  %d cycles\n", t.Duration())
	fmt.Printf("bytes:     %d\n", t.Bytes())
	fmt.Printf("addresses: [0x%x, 0x%x)\n", lo, hi)
	fmt.Printf("footprint: %d x 4KB blocks, %d x 64B blocks\n",
		t.Footprint(4096), t.Footprint(64))
}

func cmdSimulate(args []string) {
	fs := flag.NewFlagSet("simulate", flag.ExitOnError)
	in := fs.String("in", "", "input trace")
	of := obs.RegisterFlags(fs)
	fs.Parse(args)
	if *in == "" {
		fatal(fmt.Errorf("simulate: need -in"))
	}
	ctx, stop := of.Start("mocktails.simulate")
	defer stop()
	t := readTraceCtx(ctx, *in)
	_, ssp := obs.Start(ctx, "simulate")
	res := dram.Run(trace.NewReplayer(t), dram.Default(), 20)
	ssp.SetCount("requests", int64(res.Requests))
	ssp.End()
	fmt.Printf("requests:        %d\n", res.Requests)
	fmt.Printf("read bursts:     %d (row hits %d)\n", res.ReadBursts(), res.ReadRowHits())
	fmt.Printf("write bursts:    %d (row hits %d)\n", res.WriteBursts(), res.WriteRowHits())
	fmt.Printf("avg read queue:  %.2f\n", res.AvgReadQueueLen())
	fmt.Printf("avg write queue: %.2f\n", res.AvgWriteQueueLen())
	fmt.Printf("avg latency:     %.1f cycles\n", res.AvgLatency)
}
