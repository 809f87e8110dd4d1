// Command kmbench regenerates the paper-reproduction tables recorded in
// EXPERIMENTS.md: one table per experiment in DESIGN.md's index
// (F1, E1–E18), each exercising a claim of "On the Distributed
// Complexity of Large-Scale Graph Computations" (SPAA 2018).
//
// Usage:
//
//	kmbench                 # run every experiment at full size
//	kmbench -quick          # smaller sizes (seconds instead of minutes)
//	kmbench -run E2,E5      # only the listed experiment IDs
//	kmbench -seed 7         # perturb all randomness
//	kmbench -list           # list experiment IDs and exit
//	kmbench -cpuprofile cpu.out -memprofile mem.out
//	                        # write pprof profiles of the run, so perf
//	                        # work can show where the time goes
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"kmachine/internal/experiments"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is one kmbench invocation: tables go to stdout, diagnostics to
// stderr, and the result is the exit status — 0, 1 for a failed run,
// 2 for a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("kmbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.BoolVar(&o.quick, "quick", false, "run reduced-size experiments")
	fs.StringVar(&o.run, "run", "", "comma-separated experiment IDs (default: all)")
	fs.Uint64Var(&o.seed, "seed", 1, "seed for all randomness")
	fs.BoolVar(&o.list, "list", false, "list experiments and exit")
	fs.BoolVar(&o.md, "md", false, "emit a Markdown document (the EXPERIMENTS.md generator)")
	fs.StringVar(&o.cpuProfile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&o.memProfile, "memprofile", "", "write an allocation profile to this file at exit")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	// o.bench's defers finish both profiles before the status reaches
	// os.Exit in main.
	if err := o.bench(stdout, stderr); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	return 0
}

// options are kmbench's flags.
type options struct {
	quick, list, md        bool
	run                    string
	seed                   uint64
	cpuProfile, memProfile string
}

// bench runs the selected experiments and prints their tables.
func (o *options) bench(stdout, stderr io.Writer) (err error) {
	// Both profile files are created BEFORE the suite runs, so an
	// unwritable path fails in milliseconds instead of after minutes of
	// benchmarking; each is closed on every exit path by its defer.
	if o.cpuProfile != "" {
		f, err := os.Create(o.cpuProfile)
		if err != nil {
			return fmt.Errorf("create cpu profile: %w", err)
		}
		defer func() {
			if cerr := f.Close(); cerr != nil && err == nil {
				err = fmt.Errorf("close cpu profile: %w", cerr)
			}
		}()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("start cpu profile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if o.memProfile != "" {
		f, ferr := os.Create(o.memProfile)
		if ferr != nil {
			return fmt.Errorf("create mem profile: %w", ferr)
		}
		// The snapshot itself is written on the way out so it covers the
		// whole run; a profile error surfaces in the exit code unless
		// the run already failed with its own.
		defer func() {
			runtime.GC() // settle live-heap numbers before the snapshot
			ferr := pprof.WriteHeapProfile(f)
			if cerr := f.Close(); ferr == nil {
				ferr = cerr
			}
			if ferr != nil {
				ferr = fmt.Errorf("write mem profile: %w", ferr)
				if err == nil {
					err = ferr
				} else {
					fmt.Fprintln(stderr, ferr)
				}
			}
		}()
	}

	all := experiments.All()
	if o.list {
		for _, r := range all {
			fmt.Fprintf(stdout, "%-4s %s\n", r.ID, r.Name)
		}
		return nil
	}

	want := map[string]bool{}
	if o.run != "" {
		for _, id := range strings.Split(o.run, ",") {
			want[strings.ToUpper(strings.TrimSpace(id))] = true
		}
	}

	cfg := experiments.Config{Quick: o.quick, Seed: o.seed}
	mode := "full"
	if o.quick {
		mode = "quick"
	}
	if o.md {
		fmt.Fprintf(stdout, "# EXPERIMENTS — paper-reproduction tables\n\n")
		fmt.Fprintf(stdout, "**Paper:** Pandurangan, Robinson, Scquizzato — \"On the Distributed Complexity of Large-Scale Graph Computations\", SPAA 2018 (arXiv:1602.08481)\n\n")
		fmt.Fprintf(stdout, "Generated by `go run ./cmd/kmbench -md` (%s mode, seed %d); regenerate after\n", mode, o.seed)
		fmt.Fprintf(stdout, "algorithm or engine changes. One table per experiment in DESIGN.md's\n")
		fmt.Fprintf(stdout, "index. All claims are asymptotic (Õ/Ω̃): the tables report *shapes* —\n")
		fmt.Fprintf(stdout, "scaling exponents, algorithm orderings, crossovers — and the notes record\n")
		fmt.Fprintf(stdout, "the fitted exponents and pass/fail of each shape check.\n\n")
	} else {
		fmt.Fprintf(stdout, "kmachine reproduction harness (%s mode, seed %d)\n", mode, o.seed)
		fmt.Fprintf(stdout, "paper: Pandurangan, Robinson, Scquizzato — SPAA 2018 (arXiv:1602.08481)\n\n")
	}

	ran := 0
	for _, r := range all {
		if len(want) > 0 && !want[r.ID] {
			continue
		}
		start := time.Now()
		table, rerr := r.Run(cfg)
		if rerr != nil {
			return fmt.Errorf("experiment %s (%s) failed: %w", r.ID, r.Name, rerr)
		}
		elapsed := time.Since(start)
		if o.md {
			table.Fmarkdown(stdout)
		} else {
			table.Fprint(stdout)
			fmt.Fprintf(stdout, "   (%s in %v)\n\n", r.ID, elapsed.Round(time.Millisecond))
		}
		ran++
	}
	if ran == 0 {
		return fmt.Errorf("no experiments matched -run=%q; try -list", o.run)
	}
	return nil
}
