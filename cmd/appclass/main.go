// Command appclass is the application classifier CLI: it trains the
// classification center on the five class-representative applications
// (Section 4.2.3) and classifies either a named registry application
// (profiled on the simulated testbed) or a previously recorded trace
// CSV, printing the application class and class composition and
// optionally recording the run in an application-database file.
//
// Usage:
//
//	appclass -app PostMark
//	appclass -trace run.csv
//	appclass -app SPECseis96_B -db appdb.json -rates 10,8,6,4,1
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/appclass"
	"repro/internal/classify"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/metrics"
	"repro/internal/workload"
)

func main() {
	var (
		app    = flag.String("app", "", "registry application to profile and classify")
		trace  = flag.String("trace", "", "classify a trace CSV instead of running an application")
		seed   = flag.Int64("seed", 1, "simulation seed")
		dbPath = flag.String("db", "", "application database JSON file to append the record to")
		rates  = flag.String("rates", "", "cost rates alpha,beta,gamma,delta,epsilon (cpu,mem,io,net,idle) to price the run")
		k      = flag.Int("k", 0, "k-NN neighbour count (default: the paper's 3)")
		comps  = flag.Int("q", 0, "principal components (default: the paper's 2)")
		model  = flag.String("model", "", "load a trained classifier from this JSON file instead of training")
		save   = flag.String("savemodel", "", "save the trained classifier to this JSON file")
	)
	flag.Parse()
	if err := run(*app, *trace, *seed, *dbPath, *rates, *k, *comps, *model, *save); err != nil {
		fmt.Fprintf(os.Stderr, "appclass: %v\n", err)
		os.Exit(1)
	}
}

func run(app, tracePath string, seed int64, dbPath, ratesSpec string, k, comps int, modelPath, savePath string) error {
	if (app == "") == (tracePath == "") {
		return fmt.Errorf("exactly one of -app and -trace is required")
	}
	opts := core.Options{Seed: seed}
	opts.Classifier.K = k
	opts.Classifier.Components = comps
	var svc *core.Service
	if modelPath != "" {
		f, err := os.Open(modelPath)
		if err != nil {
			return err
		}
		cl, err := classify.Load(f)
		f.Close()
		if err != nil {
			return err
		}
		svc, err = core.NewServiceWithClassifier(cl, opts)
		if err != nil {
			return err
		}
	} else {
		var err error
		svc, err = core.NewService(opts)
		if err != nil {
			return err
		}
	}
	if savePath != "" {
		f, err := os.Create(savePath)
		if err != nil {
			return err
		}
		if err := svc.Classifier().Save(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("model saved to %s\n", savePath)
	}

	var report *core.RunReport
	switch {
	case app != "":
		entry, err := workload.Find(app)
		if err != nil {
			return err
		}
		report, err = svc.ProfileAndClassify(entry, seed)
		if err != nil {
			return err
		}
	default:
		f, err := os.Open(tracePath)
		if err != nil {
			return err
		}
		tr, err := metrics.ReadCSV(f)
		f.Close()
		if err != nil {
			return err
		}
		elapsed := tr.Duration()
		report, err = svc.ClassifyTrace(strings.TrimSuffix(tracePath, ".csv"), tr, elapsed)
		if err != nil {
			return err
		}
	}

	fmt.Printf("application: %s\n", report.App)
	fmt.Printf("snapshots:   %d over %v\n", report.Samples, report.Elapsed.Round(time.Second))
	fmt.Printf("class:       %s\n", report.Result.Class.Display())
	fmt.Print("composition:")
	for _, c := range appclass.All() {
		if f := report.Result.Composition[c]; f > 0 {
			fmt.Printf(" %s=%.2f%%", c.Display(), 100*f)
		}
	}
	fmt.Println()

	if ratesSpec != "" {
		r, err := parseRates(ratesSpec)
		if err != nil {
			return err
		}
		quote, err := svc.Quote(report.App, r)
		if err != nil {
			return err
		}
		fmt.Printf("unit cost:   %.3f/hour; run cost: %.3f\n", quote.UnitCost, quote.RunCost)
	}
	if dbPath != "" {
		if err := svc.DB().SaveFile(dbPath); err != nil {
			return err
		}
		fmt.Printf("recorded in %s\n", dbPath)
	}
	return nil
}

// parseRates reads the -rates flag.
var parseRates = costmodel.ParseRates
