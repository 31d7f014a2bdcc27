package main

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/appdb"
	"repro/internal/appstore"
	"repro/internal/testbed"
	"repro/internal/workload"
)

func TestParseRates(t *testing.T) {
	r, err := parseRates("10, 8,6,4,1")
	if err != nil {
		t.Fatalf("parseRates: %v", err)
	}
	if r.CPU != 10 || r.Mem != 8 || r.IO != 6 || r.Net != 4 || r.Idle != 1 {
		t.Errorf("rates = %+v", r)
	}
	if _, err := parseRates("1,2,3"); err == nil {
		t.Error("3 rates: want error")
	}
	if _, err := parseRates("a,b,c,d,e"); err == nil {
		t.Error("non-numeric: want error")
	}
}

func TestRunRequiresExactlyOneInput(t *testing.T) {
	if err := run("", "", 1, "", "", 0, 0, "", ""); err == nil {
		t.Error("neither -app nor -trace: want error")
	}
	if err := run("XSpim", "x.csv", 1, "", "", 0, 0, "", ""); err == nil {
		t.Error("both -app and -trace: want error")
	}
}

func TestRunClassifiesApp(t *testing.T) {
	dbPath := filepath.Join(t.TempDir(), "db.json")
	if err := run("XSpim", "", 1, dbPath, "10,8,6,4,1", 0, 0, "", ""); err != nil {
		t.Fatalf("run: %v", err)
	}
	db := openStore(t, dbPath)
	if db.Len() != 1 {
		t.Errorf("db has %d records", db.Len())
	}
	rec, err := db.Latest("XSpim")
	if err != nil {
		t.Fatal(err)
	}
	if rec.Class != "io" {
		t.Errorf("XSpim stored class = %s, want io", rec.Class)
	}
	if rec.FinalizedAt == 0 {
		t.Error("stored record has no finalize stamp")
	}
}

// openStore opens the store at path for the rest of the test.
func openStore(t *testing.T, path string) *appdb.DB {
	t.Helper()
	db, err := appdb.Open(path, appstore.Options{})
	if err != nil {
		t.Fatalf("open %s: %v", path, err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

// TestRunRecordsAccumulate records two runs into one store: each run
// appends, so both records are there, newest last.
func TestRunRecordsAccumulate(t *testing.T) {
	dbPath := filepath.Join(t.TempDir(), "appdb")
	for _, app := range []string{"XSpim", "PostMark"} {
		if err := run(app, "", 1, dbPath, "", 0, 0, "", ""); err != nil {
			t.Fatalf("run %s: %v", app, err)
		}
	}
	db := openStore(t, dbPath)
	if db.Len() != 2 {
		t.Fatalf("store holds %d records after two runs, want 2", db.Len())
	}
	if apps := db.Apps(); !reflect.DeepEqual(apps, []string{"PostMark", "XSpim"}) {
		t.Errorf("apps = %v", apps)
	}
	rows, _, err := db.Scan(appdb.Filter{}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].App != "PostMark" || rows[0].FinalizedAt < rows[1].FinalizedAt {
		t.Errorf("newest-first rows = %+v, want PostMark stamped after XSpim", rows)
	}
}

// TestRunConvertsLegacyDB points -db at a legacy whole-file JSON
// database: the run converts it to a store holding its runs plus the
// new one, and keeps the file at <path>.legacy.
func TestRunConvertsLegacyDB(t *testing.T) {
	dbPath := filepath.Join(t.TempDir(), "db.json")
	legacy := `{"records": [
		{"app": "Stream", "class": "mem", "composition": {"mem": 1}, "execution_time_ns": 60000000000, "samples": 12},
		{"app": "NetPIPE", "class": "net", "composition": {"net": 1}, "execution_time_ns": 30000000000, "samples": 6}
	]}`
	if err := os.WriteFile(dbPath, []byte(legacy), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run("XSpim", "", 1, dbPath, "", 0, 0, "", ""); err != nil {
		t.Fatalf("run: %v", err)
	}
	db := openStore(t, dbPath)
	if db.Len() != 3 {
		t.Errorf("store holds %d records, want the 2 legacy runs plus 1", db.Len())
	}
	for _, app := range []string{"Stream", "NetPIPE", "XSpim"} {
		if _, err := db.Latest(app); err != nil {
			t.Errorf("%s: %v", app, err)
		}
	}
	if got, err := os.ReadFile(dbPath + ".legacy"); err != nil || string(got) != legacy {
		t.Errorf("legacy file not kept as it was: %v", err)
	}
}

func TestRunClassifiesTraceCSV(t *testing.T) {
	// Build a real trace file via the testbed.
	entry, err := workload.Find("PostMark")
	if err != nil {
		t.Fatal(err)
	}
	res, err := testbed.ProfileEntry(entry, 1)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "postmark.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Trace.WriteCSV(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := run("", path, 1, "", "", 0, 0, "", ""); err != nil {
		t.Fatalf("run -trace: %v", err)
	}
}

func TestRunRejectsUnknownApp(t *testing.T) {
	if err := run("NoSuchApp", "", 1, "", "", 0, 0, "", ""); err == nil {
		t.Error("unknown app: want error")
	}
}

func TestRunRejectsMissingTrace(t *testing.T) {
	if err := run("", "/does/not/exist.csv", 1, "", "", 0, 0, "", ""); err == nil {
		t.Error("missing trace file: want error")
	}
}

func TestRunSaveAndReuseModel(t *testing.T) {
	dir := t.TempDir()
	modelPath := filepath.Join(dir, "model.json")
	// Train once and save.
	if err := run("XSpim", "", 1, "", "", 0, 0, "", modelPath); err != nil {
		t.Fatalf("train+save: %v", err)
	}
	if _, err := os.Stat(modelPath); err != nil {
		t.Fatalf("model not written: %v", err)
	}
	// Classify again reusing the saved model (no retraining).
	if err := run("XSpim", "", 1, "", "", 0, 0, modelPath, ""); err != nil {
		t.Fatalf("reuse model: %v", err)
	}
	if err := run("XSpim", "", 1, "", "", 0, 0, filepath.Join(dir, "missing.json"), ""); err == nil {
		t.Error("missing model file: want error")
	}
}
