// Command appclassbench is appclassd's end-to-end benchmark. It builds
// cmd/appclassd from the tree, generates every input from -seed, runs
// each workload against a fresh daemon with an open-loop generator,
// checks every reply against an in-process oracle, and prints one
// "workload metric value unit" line per result followed by a one-line
// JSON summary. With -trace 1 it instead replays the same requests in
// process and reports per-layer timings, writing a Chrome trace file per
// workload.
//
// Usage:
//
//	appclassbench [-workload name] [-seed n] [-seconds s] [-trace 0|1] [-out results.json]
//	appclassbench compare [-spec BENCHMARK.json] A.json B.json
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/bench"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compareCmd(os.Args[2:]); err != nil {
			fmt.Fprintf(os.Stderr, "appclassbench compare: %v\n", err)
			os.Exit(1)
		}
		return
	}
	ok, err := run(os.Args[1:])
	if err != nil {
		if !errors.Is(err, flag.ErrHelp) {
			fmt.Fprintf(os.Stderr, "appclassbench: %v\n", err)
		}
		os.Exit(2)
	}
	if !ok {
		os.Exit(1)
	}
}

// setups is how many times each run sets the daemon up; setup_s is the
// median.
const setups = 7

func run(args []string) (bool, error) {
	fs := flag.NewFlagSet("appclassbench", flag.ContinueOnError)
	name := fs.String("workload", "", "run only this workload (default: all four)")
	seed := fs.Int64("seed", 1, "seed every input is generated from")
	seconds := fs.Int("seconds", 15, "length of the measured window in seconds")
	trace := fs.Int("trace", 0, "1 replays the requests in process and reports per-layer metrics")
	out := fs.String("out", "", "append one JSON line per workload run to this file (for compare)")
	work := fs.String("work", ".bench_build", "build and run-state directory, relative to the repository root")
	if err := fs.Parse(args); err != nil {
		return false, err
	}
	if fs.NArg() > 0 {
		return false, fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return false, fmt.Errorf("want -seconds >= 1 and -trace 0 or 1")
	}
	workloads := bench.Workloads()
	if *name != "" {
		w, err := bench.FindWorkload(*name)
		if err != nil {
			return false, err
		}
		workloads = []bench.Workload{w}
	}
	root, err := findRoot()
	if err != nil {
		return false, err
	}
	wd := *work
	if !filepath.IsAbs(wd) {
		wd = filepath.Join(root, wd)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	opt := bench.Options{
		Work:     filepath.Join(wd, "run"),
		Window:   time.Duration(*seconds) * time.Second,
		Scale:    1,
		Setups:   setups,
		TraceDir: filepath.Join(wd, "traces"),
		Log:      os.Stderr,
	}
	if *trace == 0 {
		bin, err := bench.BuildDaemon(ctx, root, filepath.Join(wd, "bin"))
		if err != nil {
			return false, err
		}
		opt.Daemon = bin
	}
	if err := os.MkdirAll(opt.Work, 0o755); err != nil {
		return false, err
	}
	inDir, err := os.MkdirTemp(opt.Work, "inputs-")
	if err != nil {
		return false, err
	}
	defer os.RemoveAll(inDir)
	in, err := bench.GenerateInputs(inDir, *seed)
	if err != nil {
		return false, err
	}

	allOK := true
	var last *bench.Result
	for _, w := range workloads {
		var res *bench.Result
		if *trace == 1 {
			res, err = bench.RunTrace(ctx, w, in, opt)
		} else {
			res, err = bench.RunE2E(ctx, w, in, opt)
		}
		if err != nil {
			return false, fmt.Errorf("%s: %w", w.Name, err)
		}
		res.WriteLines(os.Stdout)
		for _, e := range res.Errors {
			fmt.Fprintf(os.Stderr, "%s: %s\n", w.Name, e)
		}
		if *out != "" {
			if err := bench.AppendRecord(*out, res); err != nil {
				return false, err
			}
		}
		allOK = allOK && res.Correct
		last = res
	}
	if len(workloads) == 1 {
		line, err := last.SummaryJSON()
		if err != nil {
			return false, err
		}
		fmt.Println(string(line))
	}
	return allOK, nil
}

// findRoot searches the working directory and its parents for the tree
// holding cmd/appclassd.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "appclassd", "main.go")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no cmd/appclassd in the working directory or its parents")
		}
		dir = parent
	}
}

func compareCmd(args []string) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	spec := fs.String("spec", "", "BENCHMARK.json holding the bounds (default: the repository root's)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("want two results files, base then change")
	}
	if *spec == "" {
		root, err := findRoot()
		if err != nil {
			return err
		}
		*spec = filepath.Join(root, "BENCHMARK.json")
	}
	rows, err := bench.Compare(*spec, fs.Arg(0), fs.Arg(1))
	if err != nil {
		return err
	}
	fmt.Print(strings.Join(rows, "\n") + "\n")
	return nil
}
