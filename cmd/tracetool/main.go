// Command tracetool inspects and transforms the trace CSVs produced by
// vmprofiler: print summary information, per-metric statistics,
// downsample, or project onto a metric subset (e.g. the Table-1 expert
// metrics).
//
// Usage:
//
//	tracetool info  run.csv
//	tracetool stats run.csv
//	tracetool downsample -factor 2 run.csv > half.csv
//	tracetool project -metrics cpu_user,io_bi run.csv > small.csv
//	tracetool expert run.csv > expert.csv
//	tracetool phases -model model.json run.csv
//	tracetool sendbin -addr http://localhost:8080 run.csv
//	tracetool journal verify /var/lib/appclassd/journal
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"text/tabwriter"
	"time"

	"repro/internal/appclass"
	"repro/internal/classify"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/phase"
	"repro/internal/stats"
)

func main() {
	if len(os.Args) < 2 {
		usage(os.Stderr)
		os.Exit(2)
	}
	cmd := os.Args[1]
	args := os.Args[2:]
	if err := run(cmd, args, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "tracetool: %v\n", err)
		os.Exit(1)
	}
}

func usage(w io.Writer) {
	fmt.Fprintln(w, `usage: tracetool <command> [flags] <trace.csv>
commands:
  info        print trace dimensions and time span
  stats       print per-metric summary statistics
  downsample  keep every N-th snapshot (-factor N)
  project     keep selected metrics (-metrics a,b,c)
  expert      keep the Table-1 expert metrics
  phases      segment a trace into execution phases and fingerprint it
              (-model model.json, or -seed N to train on the testbed)
  sendbin     replay a trace into a live appclassd over the binary
              protocol (-addr URL, -vm name, -batch N)
  journal     inspect an appclassd write-ahead journal:
              journal dump <dir>      print records and checkpoint
              journal verify <dir>    check segment integrity (exit 1 if torn)
              journal truncate <dir>  cut torn segments at the last valid record
  scrub       verify every journal segment frame-by-frame and report (or,
              with -repair, fix) latent corruption (scrub [-repair] <dir>)`)
}

func run(cmd string, args []string, stdout io.Writer) error {
	switch cmd {
	case "info":
		return withTrace(args, func(tr *metrics.Trace) error { return info(stdout, tr) })
	case "stats":
		return withTrace(args, func(tr *metrics.Trace) error { return statsCmd(stdout, tr) })
	case "downsample":
		fs := flag.NewFlagSet("downsample", flag.ContinueOnError)
		factor := fs.Int("factor", 2, "keep every N-th snapshot")
		if err := fs.Parse(args); err != nil {
			return err
		}
		return withTrace(fs.Args(), func(tr *metrics.Trace) error {
			out, err := downsample(tr, *factor)
			if err != nil {
				return err
			}
			return out.WriteCSV(stdout)
		})
	case "project":
		fs := flag.NewFlagSet("project", flag.ContinueOnError)
		names := fs.String("metrics", "", "comma-separated metric names to keep")
		if err := fs.Parse(args); err != nil {
			return err
		}
		if *names == "" {
			return fmt.Errorf("project: -metrics is required")
		}
		return withTrace(fs.Args(), func(tr *metrics.Trace) error {
			out, err := tr.Project(strings.Split(*names, ","))
			if err != nil {
				return err
			}
			return out.WriteCSV(stdout)
		})
	case "expert":
		return withTrace(args, func(tr *metrics.Trace) error {
			out, err := tr.Project(metrics.ExpertNames())
			if err != nil {
				return err
			}
			return out.WriteCSV(stdout)
		})
	case "phases":
		fs := flag.NewFlagSet("phases", flag.ContinueOnError)
		model := fs.String("model", "", "load a trained classifier from this JSON file")
		seed := fs.Int64("seed", 1, "training seed when no -model is given")
		window := fs.Int("window", 0, "segmentation half-window in snapshots (default 8)")
		minPhase := fs.Int("min-phase", 0, "minimum phase length in snapshots (default 5)")
		threshold := fs.Float64("threshold", 0, "phase boundary distance threshold (default 1.0)")
		slack := fs.Float64("unknown-slack", 0, "open-set threshold slack (default 3.0, negative disables)")
		if err := fs.Parse(args); err != nil {
			return err
		}
		return withTrace(fs.Args(), func(tr *metrics.Trace) error {
			cfg := phase.Config{Window: *window, MinLen: *minPhase, Threshold: *threshold}
			return phasesCmd(stdout, tr, *model, *seed, cfg, *slack)
		})
	case "sendbin":
		fs := flag.NewFlagSet("sendbin", flag.ContinueOnError)
		addr := fs.String("addr", "http://localhost:8080", "appclassd base URL")
		vm := fs.String("vm", "", "VM name to report (default: the trace's node)")
		batch := fs.Int("batch", 64, "snapshots per batch frame")
		if err := fs.Parse(args); err != nil {
			return err
		}
		return withTrace(fs.Args(), func(tr *metrics.Trace) error {
			return sendbinCmd(stdout, tr, *addr, *vm, *batch)
		})
	case "journal":
		return journalCmd(args, stdout)
	case "scrub":
		return scrubCmd(args, stdout)
	case "help", "-h", "--help":
		usage(stdout)
		return nil
	default:
		return fmt.Errorf("unknown command %q (try: tracetool help)", cmd)
	}
}

func withTrace(args []string, fn func(*metrics.Trace) error) error {
	if len(args) != 1 {
		return fmt.Errorf("expected exactly one trace file, got %v", args)
	}
	f, err := os.Open(args[0])
	if err != nil {
		return err
	}
	defer f.Close()
	tr, err := metrics.ReadCSV(f)
	if err != nil {
		return fmt.Errorf("read %s: %w", args[0], err)
	}
	return fn(tr)
}

func info(w io.Writer, tr *metrics.Trace) error {
	var span time.Duration
	if tr.Len() > 0 {
		span = tr.Duration()
	}
	_, err := fmt.Fprintf(w, "node: %s\nsnapshots: %d\nmetrics: %d\nspan: %v\n",
		tr.Node(), tr.Len(), tr.Schema().Len(), span)
	return err
}

func statsCmd(w io.Writer, tr *metrics.Trace) error {
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tmean\tstddev\tmin\tmax\tmedian")
	for _, name := range tr.Schema().Names() {
		col, err := tr.Column(name)
		if err != nil {
			return err
		}
		s, err := stats.Summarize(col)
		if err != nil {
			return fmt.Errorf("metric %s: %w", name, err)
		}
		fmt.Fprintf(tw, "%s\t%.3g\t%.3g\t%.3g\t%.3g\t%.3g\n",
			name, s.Mean, s.StdDev, s.Min, s.Max, s.Median)
	}
	return tw.Flush()
}

// phasesCmd replays a trace through an online classifier with phase
// segmentation (and, unless disabled, the open-set test) attached, then
// prints the detected phase table, the session verdict, and the run's
// canonical fingerprint.
func phasesCmd(w io.Writer, tr *metrics.Trace, model string, seed int64, cfg phase.Config, slack float64) error {
	if tr.Len() == 0 {
		return fmt.Errorf("phases: trace is empty")
	}
	var cl *classify.Classifier
	if model != "" {
		var err error
		if cl, err = classify.LoadFile(model); err != nil {
			return fmt.Errorf("phases: %w", err)
		}
	} else {
		svc, err := core.NewService(core.Options{Seed: seed})
		if err != nil {
			return fmt.Errorf("phases: train: %w", err)
		}
		cl = svc.Classifier()
	}
	online, err := classify.NewOnline(cl, tr.Schema())
	if err != nil {
		return fmt.Errorf("phases: %w", err)
	}
	online.EnableSegmentation(cfg)
	if slack >= 0 {
		oset, err := cl.CalibrateOpenSet(classify.OpenSetConfig{Slack: slack})
		if err != nil {
			return fmt.Errorf("phases: calibrate open-set: %w", err)
		}
		online.EnableOpenSet(oset)
	}
	for i := 0; i < tr.Len(); i++ {
		if _, err := online.Observe(tr.At(i)); err != nil {
			return fmt.Errorf("phases: snapshot %d: %w", i, err)
		}
	}
	phases := online.Phases()
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "phase\tclass\tstart\tend\tsnapshots\tduration")
	for i, p := range phases {
		marker := ""
		if p.Open {
			marker = " (open)"
		}
		fmt.Fprintf(tw, "%d%s\t%s\t%v\t%v\t%d\t%v\n",
			i, marker, p.Class, p.Start, p.End, p.Snapshots, p.Duration())
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	verdict := online.Verdict()
	if verdict == appclass.Unknown {
		fmt.Fprintf(w, "verdict: %s (%.0f%% of snapshots outside trained classes)\n",
			verdict, 100*online.UnknownFraction())
	} else {
		fmt.Fprintf(w, "verdict: %s\n", verdict)
	}
	if fp := phase.NewFingerprint(phases); !fp.Empty() {
		fmt.Fprintf(w, "fingerprint: %s\n", fp)
	}
	return nil
}

func downsample(tr *metrics.Trace, factor int) (*metrics.Trace, error) {
	if factor < 1 {
		return nil, fmt.Errorf("downsample factor must be >= 1, got %d", factor)
	}
	out := metrics.NewTrace(tr.Schema(), tr.Node())
	for i := 0; i < tr.Len(); i += factor {
		if err := out.Append(tr.At(i)); err != nil {
			return nil, err
		}
	}
	return out, nil
}
