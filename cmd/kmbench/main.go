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
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"kmachine/internal/experiments"
)

func main() {
	// All work happens in kmbenchMain so error exits unwind through the
	// profiling defers: os.Exit here, after it returns, never truncates
	// a started CPU profile or skips the heap snapshot.
	if err := kmbenchMain(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func kmbenchMain() (err error) {
	quick := flag.Bool("quick", false, "run reduced-size experiments")
	run := flag.String("run", "", "comma-separated experiment IDs (default: all)")
	seed := flag.Uint64("seed", 1, "seed for all randomness")
	list := flag.Bool("list", false, "list experiments and exit")
	mdOut := flag.Bool("md", false, "emit a Markdown document (the EXPERIMENTS.md generator)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write an allocation profile to this file at exit")
	flag.Parse()

	// Both profile files are created BEFORE the suite runs, so an
	// unwritable path fails in milliseconds instead of after minutes of
	// benchmarking; each is closed on every exit path by its defer.
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
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
	if *memProfile != "" {
		f, ferr := os.Create(*memProfile)
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
					fmt.Fprintln(os.Stderr, ferr)
				}
			}
		}()
	}

	all := experiments.All()
	if *list {
		for _, r := range all {
			fmt.Printf("%-4s %s\n", r.ID, r.Name)
		}
		return nil
	}

	want := map[string]bool{}
	if *run != "" {
		for _, id := range strings.Split(*run, ",") {
			want[strings.ToUpper(strings.TrimSpace(id))] = true
		}
	}

	cfg := experiments.Config{Quick: *quick, Seed: *seed}
	mode := "full"
	if *quick {
		mode = "quick"
	}
	if *mdOut {
		fmt.Printf("# EXPERIMENTS — paper-reproduction tables\n\n")
		fmt.Printf("**Paper:** Pandurangan, Robinson, Scquizzato — \"On the Distributed Complexity of Large-Scale Graph Computations\", SPAA 2018 (arXiv:1602.08481)\n\n")
		fmt.Printf("Generated by `go run ./cmd/kmbench -md` (%s mode, seed %d); regenerate after\n", mode, *seed)
		fmt.Printf("algorithm or engine changes. One table per experiment in DESIGN.md's\n")
		fmt.Printf("index. All claims are asymptotic (Õ/Ω̃): the tables report *shapes* —\n")
		fmt.Printf("scaling exponents, algorithm orderings, crossovers — and the notes record\n")
		fmt.Printf("the fitted exponents and pass/fail of each shape check.\n\n")
	} else {
		fmt.Printf("kmachine reproduction harness (%s mode, seed %d)\n", mode, *seed)
		fmt.Printf("paper: Pandurangan, Robinson, Scquizzato — SPAA 2018 (arXiv:1602.08481)\n\n")
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
		if *mdOut {
			table.Fmarkdown(os.Stdout)
		} else {
			table.Fprint(os.Stdout)
			fmt.Printf("   (%s in %v)\n\n", r.ID, elapsed.Round(time.Millisecond))
		}
		ran++
	}
	if ran == 0 {
		return fmt.Errorf("no experiments matched -run=%q; try -list", *run)
	}
	return nil
}
