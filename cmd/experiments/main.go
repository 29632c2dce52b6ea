// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments [-out FILE] [-j N] [id ...]
//
// With no ids, every experiment runs in paper order. Valid ids are
// fig2 fig3 table1 table2 table3 fig6 ... fig17 (see -list).
//
// -j runs experiments concurrently over a shared, concurrency-safe
// environment; output order and content are identical for every worker
// count.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/par"
)

func main() {
	out := flag.String("out", "", "also write results to this file")
	list := flag.Bool("list", false, "list experiment ids and exit")
	workers := flag.Int("j", 0, "concurrent experiments (0 = MOCKTAILS_PARALLELISM or GOMAXPROCS, 1 = serial)")
	of := obs.RegisterFlags(flag.CommandLine)
	flag.Parse()

	if *list {
		fmt.Println(strings.Join(experiments.IDs(), " "))
		return
	}
	_, stop := of.Start("experiments")
	defer stop()

	ids := flag.Args()
	if len(ids) == 0 {
		ids = experiments.IDs()
	}

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		defer f.Close()
		w = io.MultiWriter(os.Stdout, f)
	}

	env := experiments.NewEnv()

	j := par.Workers(*workers)
	if j == 1 {
		for _, id := range ids {
			start := time.Now()
			tab := env.Run(id)
			if tab == nil {
				unknown(id)
			}
			tab.Fprint(w)
			fmt.Fprintf(os.Stderr, "[%s done in %v]\n", id, time.Since(start).Round(time.Millisecond))
		}
		return
	}

	// Concurrent run: experiments share env's singleflight caches; tables
	// are committed by index so output order matches the serial path.
	start := time.Now()
	tabs := par.Map(len(ids), j, func(i int) *experiments.Table {
		return env.Run(ids[i])
	})
	for i, tab := range tabs {
		if tab == nil {
			unknown(ids[i])
		}
		tab.Fprint(w)
	}
	fmt.Fprintf(os.Stderr, "[%d experiments done in %v with %d workers]\n",
		len(ids), time.Since(start).Round(time.Millisecond), j)
}

func unknown(id string) {
	fmt.Fprintf(os.Stderr, "experiments: unknown id %q (try -list)\n", id)
	os.Exit(2)
}
