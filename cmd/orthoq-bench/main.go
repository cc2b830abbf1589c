// Command orthoq-bench regenerates the paper's evaluation artifacts
// (Figure 1 strategy lattice, Figure 8 results table, Figure 9 series,
// and per-primitive ablations) against generated TPC-H data. See
// EXPERIMENTS.md for the recorded outputs and their paper-vs-measured
// discussion.
//
// Usage:
//
//	orthoq-bench -exp all -sf 0.01 -reps 3
//	orthoq-bench -exp figure9 -sfs 0.002,0.005,0.01,0.02
//	orthoq-bench -exp parallel -cpuprofile cpu.out -memprofile mem.out
//	orthoq-bench -exp obs -json
//	orthoq-bench -exp concurrency -sessions 32 -ops 10 -json
//	orthoq-bench -exp resultcache -sessions 8 -ops 20 -json -artifacts .
//	orthoq-bench -exp recovery -reps 3 -json -artifacts .
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"orthoq/internal/bench"
)

func main() {
	exp := flag.String("exp", "all", "experiment: figure1|figure8|figure9|ablation|parallel|cache|spill|obs|apply|order|concurrency|resultcache|recovery|all")
	sf := flag.Float64("sf", 0.01, "TPC-H scale factor for figure1/figure8/ablation/parallel")
	sfList := flag.String("sfs", "0.002,0.005,0.01,0.02", "comma-separated scale factors for figure9")
	seed := flag.Int64("seed", 1, "data generator seed")
	reps := flag.Int("reps", 3, "repetitions per measurement (median reported)")
	jsonOut := flag.Bool("json", false, "emit machine-readable JSON lines (parallel/cache/apply/concurrency experiments)")
	sessions := flag.Int("sessions", 32, "concurrent wire sessions for the concurrency/resultcache experiments")
	ops := flag.Int("ops", 10, "operations per session for the concurrency/resultcache experiments")
	artifacts := flag.String("artifacts", "", "directory for unified BENCH_<exp>.json artifacts (empty = off)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the experiments to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile after the experiments to this file")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	ran := false
	run := func(name string, f func() error) {
		if *exp != "all" && *exp != name {
			return
		}
		ran = true
		if err := f(); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			os.Exit(1)
		}
	}

	var db *bench.DB
	openDB := func() *bench.DB {
		if db == nil {
			d, err := bench.OpenDB(*sf, *seed)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			db = d
		}
		return db
	}

	run("figure1", func() error { return bench.RunFigure1(os.Stdout, openDB(), *reps) })
	run("figure8", func() error { return bench.RunFigure8(os.Stdout, openDB(), *reps) })
	run("figure9", func() error {
		var sfs []float64
		for _, s := range strings.Split(*sfList, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
			if err != nil {
				return err
			}
			sfs = append(sfs, v)
		}
		return bench.RunFigure9(os.Stdout, sfs, *seed, *reps)
	})
	run("ablation", func() error { return bench.RunAblations(os.Stdout, openDB(), *reps) })
	run("parallel", func() error { return bench.RunParallel(os.Stdout, openDB(), *reps, *jsonOut) })
	run("cache", func() error { return bench.RunCache(os.Stdout, *sf, *seed, *reps, *jsonOut) })
	run("spill", func() error { return bench.RunSpill(os.Stdout, openDB(), *reps, *jsonOut) })
	run("obs", func() error { return bench.RunObs(os.Stdout, openDB(), *reps, *jsonOut) })
	run("apply", func() error { return bench.RunApply(os.Stdout, openDB(), *reps, *jsonOut) })
	run("order", func() error { return bench.RunOrder(os.Stdout, *sf, *seed, *reps, *jsonOut, *artifacts) })
	if *exp == "concurrency" {
		// Not part of -exp all: it builds its own DB plus an in-process
		// HTTP server, which would distort the timing experiments.
		ran = true
		if err := bench.RunConcurrency(os.Stdout, *sf, *seed, *sessions, *ops, *jsonOut, *artifacts); err != nil {
			fmt.Fprintf(os.Stderr, "concurrency: %v\n", err)
			os.Exit(1)
		}
	}
	if *exp == "resultcache" {
		// Like concurrency: its own DB + HTTP server, kept out of -exp all.
		ran = true
		if err := bench.RunResultCache(os.Stdout, *sf, *seed, *sessions, *ops, *jsonOut, *artifacts); err != nil {
			fmt.Fprintf(os.Stderr, "resultcache: %v\n", err)
			os.Exit(1)
		}
	}
	if *exp == "recovery" {
		// Durability experiment: real temp directories, forced kills, and
		// log replay — kept out of -exp all like the other server-shaped
		// experiments.
		ran = true
		if err := bench.RunRecovery(os.Stdout, *reps, *jsonOut, *artifacts); err != nil {
			fmt.Fprintf(os.Stderr, "recovery: %v\n", err)
			os.Exit(1)
		}
	}

	if !ran {
		fmt.Fprintf(os.Stderr, "unknown experiment %q (want figure1|figure8|figure9|ablation|parallel|cache|spill|obs|apply|order|concurrency|resultcache|recovery|all)\n", *exp)
		os.Exit(2)
	}

	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}
