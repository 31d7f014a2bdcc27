package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/appclass"
	"repro/internal/appdb"
	"repro/internal/appstore"
	"repro/internal/core"
	"repro/internal/workload"
)

// sampleDB writes a store with one strongly-classed application per
// paper class and returns its path.
func sampleDB(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "appdb")
	db, err := appdb.Open(path, appstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for _, r := range []appdb.Record{
		{App: "SPECseis96_C", Class: appclass.CPU,
			Composition:   map[appclass.Class]float64{appclass.CPU: 0.9, appclass.Idle: 0.1},
			ExecutionTime: 10 * time.Minute, Samples: 120},
		{App: "PostMark", Class: appclass.IO,
			Composition:   map[appclass.Class]float64{appclass.IO: 0.8, appclass.Idle: 0.2},
			ExecutionTime: 5 * time.Minute, Samples: 60},
		{App: "NetPIPE", Class: appclass.Net,
			Composition:   map[appclass.Class]float64{appclass.Net: 0.85, appclass.Idle: 0.15},
			ExecutionTime: 4 * time.Minute, Samples: 48},
	} {
		if err := db.Put(r); err != nil {
			t.Fatal(err)
		}
	}
	return path
}

func TestRunValidation(t *testing.T) {
	db := sampleDB(t)
	var out bytes.Buffer
	for name, args := range map[string][]string{
		"no hosts":        {db},
		"no db":           {"-hosts", "a:2"},
		"two positionals": {"-hosts", "a:2", db, db},
		"missing db file": {"-hosts", "a:2", filepath.Join(t.TempDir(), "nope.json")},
		"bad hosts":       {"-hosts", "a", db},
		"bad rates":       {"-hosts", "a:2", "-rates", "1,2", db},
		"unknown app":     {"-hosts", "a:9", "-apps", " , ", db},
	} {
		if err := run(args, &out); err == nil {
			t.Errorf("%s: want error", name)
		}
	}
}

// TestRunPlacesHistory places the three sample applications and expects
// one per host: history-sourced predictions, complementary classes
// spread across the inventory.
func TestRunPlacesHistory(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-hosts", "h1:1,h2:1,h3:1", sampleDB(t)}, &out)
	if err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{"SPECseis96_C", "PostMark", "NetPIPE", "history", "h1", "h2", "h3"} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q:\n%s", want, text)
		}
	}
}

// TestRunPlacesClassifiedRuns classifies profiled runs and records each
// in a store as appclass -db does (the record core stored, stamped
// with its finalize time), then places every application in it from
// history, with the class the store holds.
func TestRunPlacesClassifiedRuns(t *testing.T) {
	path := filepath.Join(t.TempDir(), "appdb")
	svc, err := core.NewService(core.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	db, err := appdb.Open(path, appstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]appclass.Class{}
	for _, app := range []string{"XSpim", "Stream", "NetPIPE"} {
		entry, err := workload.Find(app)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := svc.ProfileAndClassify(entry, 1); err != nil {
			t.Fatal(err)
		}
		rec, err := svc.DB().Latest(app)
		if err != nil {
			t.Fatal(err)
		}
		rec.FinalizedAt = time.Now().UnixNano()
		if err := db.Put(rec); err != nil {
			t.Fatal(err)
		}
		want[app] = rec.Class
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	if err := run([]string{"-hosts", "h1:2,h2:2", "-json", path}, &out); err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("not JSON: %v\n%s", err, out.String())
	}
	if len(rep.Decisions) != len(want) {
		t.Fatalf("placed %d applications, want %d", len(rep.Decisions), len(want))
	}
	for _, d := range rep.Decisions {
		if d.Source != "history" || d.Class != want[d.App] {
			t.Errorf("%s placed from %s as %s, want history as %s", d.App, d.Source, d.Class, want[d.App])
		}
	}
}

func TestRunJSON(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-hosts", "h1:3", "-apps", "PostMark,unseen", "-json", sampleDB(t)}, &out)
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("not JSON: %v\n%s", err, out.String())
	}
	if len(rep.Decisions) != 2 {
		t.Fatalf("decisions = %d, want 2", len(rep.Decisions))
	}
	if rep.Decisions[0].Source != "history" || rep.Decisions[0].Class != appclass.IO {
		t.Errorf("PostMark decision = %+v", rep.Decisions[0])
	}
	if rep.Decisions[1].Source != "prior" {
		t.Errorf("unseen app source = %q, want prior", rep.Decisions[1].Source)
	}
	if len(rep.Hosts) != 1 || rep.Hosts[0].Used != 2 {
		t.Errorf("hosts = %+v", rep.Hosts)
	}
}
