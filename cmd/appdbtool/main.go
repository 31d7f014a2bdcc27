// Command appdbtool inspects and maintains application databases
// produced by appclassd -db: list applications, summarize one
// application's learned behaviour, price it with provider rates,
// predict its next run time, query and prune records, and migrate
// legacy JSON files into the log-structured segmented store. Every
// command opens the store at its path; a legacy whole-file JSON
// database there is converted in place first, kept at <path>.legacy.
// Never point a command at a store a running daemon holds.
//
// Usage:
//
//	appdbtool list appdb
//	appdbtool ls -class cpu -since 2026-01-01T00:00:00Z -limit 20 appdb
//	appdbtool summary -app PostMark appdb
//	appdbtool quote -app PostMark -rates 10,8,6,4,1 appdb
//	appdbtool predict -app PostMark appdb
//	appdbtool fingerprints appdb
//	appdbtool retrain -out model.json appdb
//	appdbtool prune -keep 5 appdb
//	appdbtool scrub appdb
//	appdbtool migrate appdb.json
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"time"

	"repro/internal/appclass"
	"repro/internal/appdb"
	"repro/internal/appstore"
	"repro/internal/costmodel"
	"repro/internal/modelreg"
	"repro/internal/predict"
)

func main() {
	if len(os.Args) < 2 {
		usage(os.Stderr)
		os.Exit(2)
	}
	if err := run(os.Args[1], os.Args[2:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "appdbtool: %v\n", err)
		os.Exit(1)
	}
}

func usage(w io.Writer) {
	fmt.Fprintln(w, `usage: appdbtool <command> [flags] <appdb>
(the database argument is a store directory; a legacy JSON file
there is converted in place first)
commands:
  list     list applications with their modal class and run counts
  ls       list run records newest first
           (-app NAME -class C -verdict V -since T -until T -limit N -cursor C)
  summary  print one application's learned behaviour (-app NAME)
  quote    price an application (-app NAME -rates a,b,g,d,e)
  predict  predict an application's next run time (-app NAME [-k N])
  fingerprints
           list stored phase fingerprints and their dictionary matches
  retrain  refit a classifier from labeled runs' retained samples (-out FILE)
  prune    keep only the newest records per application (-keep N)
  scrub    verify every closed store segment frame-by-frame, repairing
           latent corruption (damaged originals kept as .corrupt)
  migrate  convert a legacy JSON database file into the segmented store`)
}

func run(cmd string, args []string, stdout io.Writer) error {
	switch cmd {
	case "list":
		return withDB(args, nil, func(db *appdb.DB) error {
			for _, c := range appclass.All() {
				for _, app := range db.ByClass(c) {
					s, err := db.Summarize(app)
					if err != nil {
						return err
					}
					fmt.Fprintf(stdout, "%-20s %-8s %d runs, mean %v\n",
						app, c.Display(), s.Runs, s.MeanExecution.Round(time.Second))
				}
			}
			fmt.Fprintf(stdout, "total: %d records, %v of execution\n",
				db.Len(), db.TotalExecution().Round(time.Second))
			return nil
		})
	case "summary":
		fs := flag.NewFlagSet("summary", flag.ContinueOnError)
		app := fs.String("app", "", "application name")
		return withDB(args, fs, func(db *appdb.DB) error {
			if *app == "" {
				return fmt.Errorf("summary: -app is required")
			}
			s, err := db.Summarize(*app)
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "application: %s\nruns: %d\nclass: %s\nmean execution: %v\ncomposition:",
				s.App, s.Runs, s.Class.Display(), s.MeanExecution.Round(time.Second))
			for _, c := range appclass.All() {
				if f := s.MeanComposition[c]; f > 0 {
					fmt.Fprintf(stdout, " %s=%.2f%%", c.Display(), 100*f)
				}
			}
			fmt.Fprintln(stdout)
			return nil
		})
	case "quote":
		fs := flag.NewFlagSet("quote", flag.ContinueOnError)
		app := fs.String("app", "", "application name")
		rates := fs.String("rates", "", "cpu,mem,io,net,idle unit prices")
		return withDB(args, fs, func(db *appdb.DB) error {
			if *app == "" || *rates == "" {
				return fmt.Errorf("quote: -app and -rates are required")
			}
			r, err := costmodel.ParseRates(*rates)
			if err != nil {
				return err
			}
			s, err := db.Summarize(*app)
			if err != nil {
				return err
			}
			q, err := costmodel.QuoteRun(*app, s.MeanComposition, s.MeanExecution, r)
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "%s: unit cost %.4f/hour, mean run cost %.4f\n",
				q.App, q.UnitCost, q.RunCost)
			return nil
		})
	case "predict":
		fs := flag.NewFlagSet("predict", flag.ContinueOnError)
		app := fs.String("app", "", "application name")
		k := fs.Int("k", 3, "neighbours")
		return withDB(args, fs, func(db *appdb.DB) error {
			if *app == "" {
				return fmt.Errorf("predict: -app is required")
			}
			p, err := predict.New(db, *k)
			if err != nil {
				return err
			}
			est, err := p.PredictApp(db, *app)
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "%s: predicted execution %v (± %v over %d neighbours)\n",
				*app, est.Execution.Round(time.Second), est.Spread.Round(time.Second), len(est.Neighbors))
			return nil
		})
	case "fingerprints":
		return withDB(args, nil, func(db *appdb.DB) error {
			dict := db.Dictionary()
			if len(dict) == 0 {
				fmt.Fprintln(stdout, "no fingerprinted runs")
				return nil
			}
			for _, d := range dict {
				line := fmt.Sprintf("%-20s %s", d.Run.App, d.Run.Fingerprint)
				if d.Run.MatchedApp != "" {
					line += fmt.Sprintf("  (matched %s, score %.2f)", d.Run.MatchedApp, d.Run.MatchScore)
				}
				if d.Run.Verdict == appclass.Unknown {
					line += "  [UNKNOWN verdict]"
				}
				fmt.Fprintln(stdout, line)
			}
			return nil
		})
	case "ls":
		fs := flag.NewFlagSet("ls", flag.ContinueOnError)
		app := fs.String("app", "", "only this application")
		class := fs.String("class", "", "only this class")
		verdict := fs.String("verdict", "", "only this verdict (a class, or unknown)")
		since := fs.String("since", "", "only runs finalized at or after this time (RFC3339 or unix seconds)")
		until := fs.String("until", "", "only runs finalized at or before this time (RFC3339 or unix seconds)")
		limit := fs.Int("limit", 0, "page size (default 50, max 1000)")
		cursor := fs.Uint64("cursor", 0, "resume a previous page (0 starts at the newest run)")
		return withDB(args, fs, func(db *appdb.DB) error {
			f := appdb.Filter{
				App:     *app,
				Class:   appclass.Class(*class),
				Verdict: appclass.Class(*verdict),
			}
			if f.Class != "" && !appclass.Valid(f.Class) {
				return fmt.Errorf("ls: unknown class %q", f.Class)
			}
			if f.Verdict != "" && f.Verdict != appclass.Unknown && !appclass.Valid(f.Verdict) {
				return fmt.Errorf("ls: unknown verdict %q", f.Verdict)
			}
			var err error
			if f.Since, err = parseTime(*since); err != nil {
				return fmt.Errorf("ls: -since: %w", err)
			}
			if f.Until, err = parseTime(*until); err != nil {
				return fmt.Errorf("ls: -until: %w", err)
			}
			rows, next, err := db.Scan(f, *cursor, *limit)
			if err != nil {
				return err
			}
			for _, r := range rows {
				at := "-"
				if r.FinalizedAt > 0 {
					at = time.Unix(0, r.FinalizedAt).UTC().Format(time.RFC3339)
				}
				verdict := string(r.Verdict)
				if verdict == "" {
					verdict = "-"
				}
				fmt.Fprintf(stdout, "%-20s %-8s %-8s %8v %6d samples  %s\n",
					r.App, r.Class.Display(), verdict,
					r.ExecutionTime.Round(time.Second), r.Samples, at)
			}
			if next != 0 {
				fmt.Fprintf(stdout, "more: rerun with -cursor %d\n", next)
			} else {
				fmt.Fprintf(stdout, "%d record(s), end of database\n", len(rows))
			}
			return nil
		})
	case "prune":
		fs := flag.NewFlagSet("prune", flag.ContinueOnError)
		keep := fs.Int("keep", 10, "records to keep per application")
		return withDB(args, fs, func(db *appdb.DB) error {
			// The store persists the prune itself: tombstones, then
			// compaction.
			dropped := db.Prune(*keep)
			fmt.Fprintf(stdout, "dropped %d records, kept %d\n", dropped, db.Len())
			return nil
		})
	case "migrate":
		return withArgPath(args, func(path string) error {
			fi, err := os.Stat(path)
			if err != nil {
				return err
			}
			if fi.IsDir() {
				fmt.Fprintf(stdout, "%s is already a segmented store\n", path)
				return nil
			}
			db, err := appdb.Open(path, appstore.Options{})
			if err != nil {
				return err
			}
			defer db.Close()
			st, _ := db.StoreStats()
			fmt.Fprintf(stdout, "migrated %s: %d record(s) in %d segment(s), %d bytes (legacy file kept at %s.legacy)\n",
				path, st.LiveRecords, st.Segments, st.Bytes, path)
			return nil
		})
	case "scrub":
		return withDB(args, nil, func(db *appdb.DB) error {
			// Cover every closed segment in one pass: the store's Scrub
			// cursor is per-open, so one big budget beats looping.
			st := db.Store()
			reps, err := st.Scrub(st.Stats().Segments + 1)
			if err != nil {
				return err
			}
			damaged, unrepaired := 0, 0
			for _, rep := range reps {
				if !rep.Damaged() {
					continue
				}
				damaged++
				status := fmt.Sprintf("repaired, %d live record(s) lost (quarantined %s)", rep.Lost, rep.Quarantined)
				if !rep.Repaired {
					status = "damaged, not repaired: " + rep.SkipReason
					unrepaired++
				}
				fmt.Fprintf(stdout, "segment %d: %d bad frame(s), %s\n", rep.Seq, len(rep.Bad), status)
			}
			fmt.Fprintf(stdout, "scrubbed %d closed segment(s), %d damaged\n", len(reps), damaged)
			if unrepaired > 0 {
				return fmt.Errorf("scrub: %d segment(s) damaged, not all repaired", damaged)
			}
			return nil
		})
	case "retrain":
		fs := flag.NewFlagSet("retrain", flag.ContinueOnError)
		out := fs.String("out", "", "write the refit classifier artifact here (required)")
		k := fs.Int("k", 0, "k-NN vote count (default: classify's default)")
		components := fs.Int("components", 0, "PCA components (default: classify's default)")
		minRows := fs.Int("min-rows", 0, "minimum retained sample rows per class (default 8)")
		maxRows := fs.Int("max-rows", 0, "cap training rows per class, newest first (default 4096, negative unlimited)")
		return withDB(args, fs, func(db *appdb.DB) error {
			if *out == "" {
				return fmt.Errorf("retrain: -out is required")
			}
			cl, stats, err := modelreg.Retrain(db, modelreg.RetrainConfig{
				K:               *k,
				Components:      *components,
				MinRowsPerClass: *minRows,
				MaxRowsPerClass: *maxRows,
			})
			if err != nil {
				return err
			}
			if err := modelreg.SaveFile(*out, cl); err != nil {
				return err
			}
			m, err := modelreg.NewModel(cl, modelreg.DefaultParams(), "file:"+*out, 0)
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "retrained from %d record(s) (%d skipped for UNKNOWN verdicts)\n", stats.Records, stats.SkippedUnknown)
			classes := make([]appclass.Class, 0, len(stats.RowsPerClass))
			for c := range stats.RowsPerClass {
				classes = append(classes, c)
			}
			sort.Slice(classes, func(a, b int) bool { return classes[a] < classes[b] })
			for _, c := range classes {
				fmt.Fprintf(stdout, "  %-12s %d rows\n", c.Display(), stats.RowsPerClass[c])
			}
			for _, c := range stats.DroppedClasses {
				fmt.Fprintf(stdout, "  %-12s dropped (too few rows)\n", c.Display())
			}
			fmt.Fprintf(stdout, "artifact: %s\nmodel id: %s (hash under default serving params)\n", *out, m.ID)
			fmt.Fprintf(stdout, "load it into a running daemon: curl -X POST localhost:8080/v1/models -d '{\"path\":%q}'\n", *out)
			return nil
		})
	case "help", "-h", "--help":
		usage(stdout)
		return nil
	default:
		return fmt.Errorf("unknown command %q (try: appdbtool help)", cmd)
	}
}

// withDB parses flags (when fs is non-nil), opens the database from the
// single positional argument, and invokes fn.
func withDB(args []string, fs *flag.FlagSet, fn func(*appdb.DB) error) error {
	if fs != nil {
		if err := fs.Parse(args); err != nil {
			return err
		}
		args = fs.Args()
	}
	if len(args) != 1 {
		return fmt.Errorf("expected exactly one database path, got %v", args)
	}
	db, err := openDB(args[0])
	if err != nil {
		return err
	}
	defer db.Close()
	return fn(db)
}

// openDB opens the store at path, converting a legacy JSON file there.
// A missing path is an error: inspecting never starts an empty store.
func openDB(path string) (*appdb.DB, error) {
	if _, err := os.Stat(path); err != nil {
		return nil, err
	}
	return appdb.Open(path, appstore.Options{})
}

// withArgPath runs fn on the single positional argument.
func withArgPath(args []string, fn func(string) error) error {
	if len(args) != 1 {
		return fmt.Errorf("expected exactly one database path, got %v", args)
	}
	return fn(args[0])
}

// parseTime accepts RFC3339 or integer unix seconds; zero when empty.
func parseTime(v string) (int64, error) {
	if v == "" {
		return 0, nil
	}
	if secs, err := strconv.ParseInt(v, 10, 64); err == nil {
		return secs * int64(time.Second), nil
	}
	if t, err := time.Parse(time.RFC3339, v); err == nil {
		return t.UnixNano(), nil
	}
	return 0, fmt.Errorf("want RFC3339 or unix seconds, got %q", v)
}
