package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/appclass"
	"repro/internal/appdb"
	"repro/internal/appstore"
)

// writeTestDB writes a store of two applications, two runs each, and
// returns its path.
func writeTestDB(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "appdb")
	db, err := appdb.Open(path, appstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for _, r := range testRecords() {
		if err := db.Put(r); err != nil {
			t.Fatal(err)
		}
	}
	return path
}

// testRecords are writeTestDB's runs, stamped so time filters bite.
func testRecords() []appdb.Record {
	rec := func(app string, c appclass.Class, exec time.Duration, atSecs int64) appdb.Record {
		return appdb.Record{
			App: app, Class: c,
			Composition:   map[appclass.Class]float64{c: 1},
			ExecutionTime: exec, Samples: int(exec / (5 * time.Second)),
			FinalizedAt: atSecs * int64(time.Second),
		}
	}
	return []appdb.Record{
		rec("seis", appclass.CPU, 600*time.Second, 1000),
		rec("seis", appclass.CPU, 620*time.Second, 2000),
		rec("postmark", appclass.IO, 260*time.Second, 3000),
		rec("postmark", appclass.IO, 250*time.Second, 4000),
	}
}

// writeLegacyDB writes testRecords as a legacy whole-file JSON database
// and returns its path and bytes.
func writeLegacyDB(t *testing.T) (string, []byte) {
	t.Helper()
	b, err := json.Marshal(map[string][]appdb.Record{"records": testRecords()})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "db.json")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path, b
}

func TestList(t *testing.T) {
	path := writeTestDB(t)
	var out bytes.Buffer
	if err := run("list", []string{path}, &out); err != nil {
		t.Fatalf("list: %v", err)
	}
	for _, want := range []string{"seis", "postmark", "CPU", "I/O", "total: 4 records"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("list missing %q:\n%s", want, out.String())
		}
	}
}

func TestSummary(t *testing.T) {
	path := writeTestDB(t)
	var out bytes.Buffer
	if err := run("summary", []string{"-app", "seis", path}, &out); err != nil {
		t.Fatalf("summary: %v", err)
	}
	if !strings.Contains(out.String(), "runs: 2") || !strings.Contains(out.String(), "class: CPU") {
		t.Errorf("summary output:\n%s", out.String())
	}
	if err := run("summary", []string{path}, &out); err == nil {
		t.Error("summary without -app: want error")
	}
	if err := run("summary", []string{"-app", "ghost", path}, &out); err == nil {
		t.Error("unknown app: want error")
	}
}

func TestQuote(t *testing.T) {
	path := writeTestDB(t)
	var out bytes.Buffer
	if err := run("quote", []string{"-app", "seis", "-rates", "10,8,6,4,1", path}, &out); err != nil {
		t.Fatalf("quote: %v", err)
	}
	if !strings.Contains(out.String(), "unit cost 10.0000/hour") {
		t.Errorf("quote output:\n%s", out.String())
	}
	if err := run("quote", []string{"-app", "seis", path}, &out); err == nil {
		t.Error("quote without rates: want error")
	}
	if err := run("quote", []string{"-app", "seis", "-rates", "1,2", path}, &out); err == nil {
		t.Error("bad rates: want error")
	}
}

func TestPredict(t *testing.T) {
	path := writeTestDB(t)
	var out bytes.Buffer
	if err := run("predict", []string{"-app", "postmark", path}, &out); err != nil {
		t.Fatalf("predict: %v", err)
	}
	if !strings.Contains(out.String(), "predicted execution 4m") {
		t.Errorf("predict output:\n%s", out.String())
	}
}

func TestPrune(t *testing.T) {
	path := writeTestDB(t)
	var out bytes.Buffer
	if err := run("prune", []string{"-keep", "1", path}, &out); err != nil {
		t.Fatalf("prune: %v", err)
	}
	if !strings.Contains(out.String(), "dropped 2 records, kept 2") {
		t.Errorf("prune output:\n%s", out.String())
	}
	db, err := appdb.Open(path, appstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if db.Len() != 2 {
		t.Errorf("db after prune = %d records", db.Len())
	}
}

func TestCommandsOnStoreDirectory(t *testing.T) {
	path := writeTestDB(t)
	var out bytes.Buffer
	if err := run("list", []string{path}, &out); err != nil {
		t.Fatalf("list on store: %v", err)
	}
	if !strings.Contains(out.String(), "total: 4 records") {
		t.Errorf("list output:\n%s", out.String())
	}
	out.Reset()
	if err := run("summary", []string{"-app", "seis", path}, &out); err != nil {
		t.Fatalf("summary on store: %v", err)
	}
	if !strings.Contains(out.String(), "runs: 2") {
		t.Errorf("summary output:\n%s", out.String())
	}
	out.Reset()
	if err := run("prune", []string{"-keep", "1", path}, &out); err != nil {
		t.Fatalf("prune on store: %v", err)
	}
	if !strings.Contains(out.String(), "dropped 2 records, kept 2") {
		t.Errorf("prune output:\n%s", out.String())
	}
	// The prune must have hit the segments, not just memory.
	db, err := appdb.Open(path, appstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if db.Len() != 2 {
		t.Errorf("store after prune = %d records, want 2", db.Len())
	}
}

func TestLs(t *testing.T) {
	path := writeTestDB(t)
	var out bytes.Buffer
	if err := run("ls", []string{path}, &out); err != nil {
		t.Fatalf("ls: %v", err)
	}
	got := out.String()
	if !strings.Contains(got, "seis") || !strings.Contains(got, "postmark") ||
		!strings.Contains(got, "end of database") {
		t.Errorf("ls output:\n%s", got)
	}
	// Newest first: the 4000s postmark run leads.
	if first := strings.SplitN(got, "\n", 2)[0]; !strings.Contains(first, "postmark") {
		t.Errorf("ls first row = %q, want newest (postmark)", first)
	}

	out.Reset()
	if err := run("ls", []string{"-class", "cpu", path}, &out); err != nil {
		t.Fatalf("ls -class: %v", err)
	}
	if strings.Contains(out.String(), "postmark") {
		t.Errorf("ls -class cpu leaked postmark:\n%s", out.String())
	}

	out.Reset()
	if err := run("ls", []string{"-since", "3500", path}, &out); err != nil {
		t.Fatalf("ls -since: %v", err)
	}
	if !strings.Contains(out.String(), "1 record(s)") {
		t.Errorf("ls -since 3500 output:\n%s", out.String())
	}

	// Pagination: page size 1 over 4 records yields a resume cursor.
	out.Reset()
	if err := run("ls", []string{"-limit", "1", path}, &out); err != nil {
		t.Fatalf("ls -limit 1: %v", err)
	}
	if !strings.Contains(out.String(), "more: rerun with -cursor ") {
		t.Errorf("ls -limit 1 output:\n%s", out.String())
	}
	cursorLine := out.String()[strings.Index(out.String(), "-cursor "):]
	cursor := strings.TrimSpace(strings.TrimPrefix(cursorLine, "-cursor "))
	out.Reset()
	if err := run("ls", []string{"-limit", "10", "-cursor", cursor, path}, &out); err != nil {
		t.Fatalf("ls resume: %v", err)
	}
	if !strings.Contains(out.String(), "3 record(s), end of database") {
		t.Errorf("ls resume output:\n%s", out.String())
	}

	for _, args := range [][]string{
		{"-class", "bogus", path},
		{"-verdict", "bogus", path},
		{"-since", "yesterday", path},
	} {
		if err := run("ls", args, &out); err == nil {
			t.Errorf("ls %v: want error", args)
		}
	}
}

func TestMigrate(t *testing.T) {
	path, legacy := writeLegacyDB(t)
	var out bytes.Buffer
	if err := run("migrate", []string{path}, &out); err != nil {
		t.Fatalf("migrate: %v", err)
	}
	if !strings.Contains(out.String(), "migrated") || !strings.Contains(out.String(), "4 record(s)") {
		t.Errorf("migrate output:\n%s", out.String())
	}
	// The path is now a store directory serving the same records, and
	// the legacy file was preserved next to it.
	out.Reset()
	if err := run("list", []string{path}, &out); err != nil {
		t.Fatalf("list after migrate: %v", err)
	}
	if !strings.Contains(out.String(), "total: 4 records") {
		t.Errorf("list after migrate:\n%s", out.String())
	}
	if got, err := os.ReadFile(path + ".legacy"); err != nil || !bytes.Equal(got, legacy) {
		t.Errorf("legacy file not preserved: %v", err)
	}
	// Migrating twice is a no-op, not an error.
	out.Reset()
	if err := run("migrate", []string{path}, &out); err != nil {
		t.Fatalf("second migrate: %v", err)
	}
	if !strings.Contains(out.String(), "already a segmented store") {
		t.Errorf("second migrate output:\n%s", out.String())
	}
}

// TestLegacyFileConvertedOnOpen passes a legacy JSON file to a read
// command: the open converts it to a store holding every run and keeps
// the file at <path>.legacy.
func TestLegacyFileConvertedOnOpen(t *testing.T) {
	path, legacy := writeLegacyDB(t)
	var out bytes.Buffer
	if err := run("list", []string{path}, &out); err != nil {
		t.Fatalf("list on a legacy file: %v", err)
	}
	if !strings.Contains(out.String(), "total: 4 records") {
		t.Errorf("list output:\n%s", out.String())
	}
	if fi, err := os.Stat(path); err != nil || !fi.IsDir() {
		t.Errorf("%s is not a store directory after the open: %v", path, err)
	}
	if got, err := os.ReadFile(path + ".legacy"); err != nil || !bytes.Equal(got, legacy) {
		t.Errorf("legacy file not kept as it was: %v", err)
	}
	out.Reset()
	if err := run("ls", []string{"-since", "3500", path}, &out); err != nil {
		t.Fatalf("ls on the converted store: %v", err)
	}
	if !strings.Contains(out.String(), "1 record(s)") {
		t.Errorf("ls -since 3500 output:\n%s", out.String())
	}
}

func TestErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run("bogus", nil, &out); err == nil {
		t.Error("unknown command: want error")
	}
	if err := run("list", []string{"/no/such/file.json"}, &out); err == nil {
		t.Error("missing file: want error")
	}
	if err := run("list", []string{"a", "b"}, &out); err == nil {
		t.Error("two files: want error")
	}
	if err := run("help", nil, &out); err != nil {
		t.Errorf("help: %v", err)
	}
}
