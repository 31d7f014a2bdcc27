// Command placetool scores what-if placements offline: it opens the
// application database (the store appclassd -db and appclass -db write;
// a legacy JSON file is converted in place), predicts each requested
// application's class composition from its historical runs (falling
// back to the uniform prior when unseen), and places them one by one
// onto a simulated host inventory with the same class-aware scoring the
// appclassd placement service uses live. The output shows each decision
// with its ranked alternatives and the final per-host class mix — a dry
// run of the paper's class-aware scheduler against real history.
//
// Usage:
//
//	placetool -hosts hostA:3,hostB:3,hostC:3 appdb
//	placetool -hosts h1:4,h2:4 -apps PostMark,Stream,NetPIPE -rates 10,8,6,4,1 appdb
//	placetool -hosts h1:2,h2:2 -json appdb
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/appclass"
	"repro/internal/appdb"
	"repro/internal/appstore"
	"repro/internal/costmodel"
	"repro/internal/placement"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "placetool: %v\n", err)
		os.Exit(1)
	}
}

// report is the -json output document.
type report struct {
	Decisions []decision           `json:"decisions"`
	Hosts     []placement.HostView `json:"hosts"`
}

type decision struct {
	App          string                     `json:"app"`
	Class        appclass.Class             `json:"class"`
	Source       string                     `json:"source"`
	Host         string                     `json:"host"`
	Score        float64                    `json:"score"`
	Composition  map[appclass.Class]float64 `json:"composition"`
	Alternatives []placement.HostScore      `json:"alternatives"`
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("placetool", flag.ContinueOnError)
	hostsSpec := fs.String("hosts", "", "host inventory as name:slots[,name:slots...] (required)")
	appsSpec := fs.String("apps", "", "comma-separated applications to place (default: all in the database)")
	ratesSpec := fs.String("rates", "", "cost-model rates as cpu,mem,io,net,idle (default 1,1,1,1,0)")
	asJSON := fs.Bool("json", false, "emit the decisions and final inventory as JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *hostsSpec == "" {
		return fmt.Errorf("-hosts is required")
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("expected exactly one database path, got %v", fs.Args())
	}
	// Placing reads history; it never starts an empty database.
	if _, err := os.Stat(fs.Arg(0)); err != nil {
		return err
	}
	db, err := appdb.Open(fs.Arg(0), appstore.Options{})
	if err != nil {
		return err
	}
	defer db.Close()

	hosts, err := placement.ParseHosts(*hostsSpec)
	if err != nil {
		return err
	}
	var rates costmodel.Rates
	if *ratesSpec != "" {
		if rates, err = costmodel.ParseRates(*ratesSpec); err != nil {
			return err
		}
	}
	svc, err := placement.New(placement.Config{Hosts: hosts, Rates: rates, History: db})
	if err != nil {
		return err
	}

	apps := db.Apps()
	if *appsSpec != "" {
		apps = apps[:0]
		for _, a := range strings.Split(*appsSpec, ",") {
			if a = strings.TrimSpace(a); a != "" {
				apps = append(apps, a)
			}
		}
	}
	if len(apps) == 0 {
		return fmt.Errorf("no applications to place")
	}

	var rep report
	for _, app := range apps {
		d, err := svc.Place(app)
		if err != nil {
			return fmt.Errorf("place %s: %w", app, err)
		}
		rep.Decisions = append(rep.Decisions, decision{
			App:          d.App,
			Class:        d.Class,
			Source:       d.Source,
			Host:         d.Host,
			Score:        d.Score,
			Composition:  d.Composition,
			Alternatives: d.Alternatives,
		})
	}
	rep.Hosts = svc.Hosts()

	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	}

	fmt.Fprintf(stdout, "%-24s %-8s %-8s %-12s %8s  alternatives\n", "application", "class", "source", "host", "score")
	for _, d := range rep.Decisions {
		alts := make([]string, 0, len(d.Alternatives))
		for _, a := range d.Alternatives {
			alts = append(alts, fmt.Sprintf("%s=%.3f", a.Host, a.Score))
		}
		fmt.Fprintf(stdout, "%-24s %-8s %-8s %-12s %8.3f  %s\n",
			d.App, d.Class, d.Source, d.Host, d.Score, strings.Join(alts, " "))
	}
	fmt.Fprintln(stdout)
	for _, h := range rep.Hosts {
		var mix []string
		for _, c := range appclass.All() {
			if f := h.Load[c]; f > 0 {
				mix = append(mix, fmt.Sprintf("%s=%.2f", c, f))
			}
		}
		fmt.Fprintf(stdout, "%-12s %d/%d slots  load %s\n", h.Name, h.Used, h.Slots, strings.Join(mix, " "))
	}
	return nil
}
