package appdb

import (
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/appclass"
	"repro/internal/appstore"
)

func rec(app string, class appclass.Class, exec time.Duration) Record {
	return Record{
		App:           app,
		Class:         class,
		Composition:   map[appclass.Class]float64{class: 1},
		ExecutionTime: exec,
		Samples:       int(exec / (5 * time.Second)),
	}
}

func TestPutAndQuery(t *testing.T) {
	db := New()
	if err := db.Put(rec("PostMark", appclass.IO, 260*time.Second)); err != nil {
		t.Fatal(err)
	}
	if err := db.Put(rec("PostMark", appclass.IO, 280*time.Second)); err != nil {
		t.Fatal(err)
	}
	if db.Len() != 2 {
		t.Errorf("Len = %d, want 2", db.Len())
	}
	runs := db.Runs("PostMark")
	if len(runs) != 2 || runs[0].ExecutionTime != 260*time.Second {
		t.Errorf("Runs = %+v", runs)
	}
	latest, err := db.Latest("PostMark")
	if err != nil || latest.ExecutionTime != 280*time.Second {
		t.Errorf("Latest = (%+v, %v)", latest, err)
	}
	if _, err := db.Latest("ghost"); err == nil {
		t.Error("Latest(ghost): want error")
	}
	if apps := db.Apps(); len(apps) != 1 || apps[0] != "PostMark" {
		t.Errorf("Apps = %v", apps)
	}
}

func TestPutValidation(t *testing.T) {
	db := New()
	bad := []Record{
		{App: "", Class: appclass.IO},
		{App: "x", Class: "nope"},
		{App: "x", Class: appclass.IO, ExecutionTime: -time.Second},
		{App: "x", Class: appclass.IO, Samples: -1},
		{App: "x", Class: appclass.IO, Composition: map[appclass.Class]float64{"weird": 1}},
		{App: "x", Class: appclass.IO, Composition: map[appclass.Class]float64{appclass.IO: 2}},
		{App: "x", Class: appclass.IO, Composition: map[appclass.Class]float64{appclass.IO: 0.4}},
	}
	for i, r := range bad {
		if err := db.Put(r); err == nil {
			t.Errorf("bad record %d accepted: %+v", i, r)
		}
	}
	if db.Len() != 0 {
		t.Errorf("Len = %d after rejected puts", db.Len())
	}
}

func TestSummarize(t *testing.T) {
	db := New()
	_ = db.Put(Record{
		App: "A", Class: appclass.CPU,
		Composition:   map[appclass.Class]float64{appclass.CPU: 0.9, appclass.IO: 0.1},
		ExecutionTime: 100 * time.Second,
	})
	_ = db.Put(Record{
		App: "A", Class: appclass.CPU,
		Composition:   map[appclass.Class]float64{appclass.CPU: 0.7, appclass.IO: 0.3},
		ExecutionTime: 200 * time.Second,
	})
	_ = db.Put(Record{
		App: "A", Class: appclass.IO,
		Composition:   map[appclass.Class]float64{appclass.IO: 1},
		ExecutionTime: 300 * time.Second,
	})
	s, err := db.Summarize("A")
	if err != nil {
		t.Fatal(err)
	}
	if s.Runs != 3 || s.Class != appclass.CPU {
		t.Errorf("summary = %+v, want modal class cpu over 3 runs", s)
	}
	if s.MeanExecution != 200*time.Second {
		t.Errorf("mean execution = %v, want 200s", s.MeanExecution)
	}
	wantIO := (0.1 + 0.3 + 1.0) / 3
	if got := s.MeanComposition[appclass.IO]; got < wantIO-1e-9 || got > wantIO+1e-9 {
		t.Errorf("mean io composition = %v, want %v", got, wantIO)
	}
	if _, err := db.Summarize("ghost"); err == nil {
		t.Error("Summarize(ghost): want error")
	}
}

// TestLoadRejectsGarbage opens a file that is no legacy database, and
// one whose record fails validation: Open must fail and leave the file
// as it was.
func TestLoadRejectsGarbage(t *testing.T) {
	for _, body := range []string{"not json", `{"records":[{"app":"","class":"io"}]}`} {
		path := filepath.Join(t.TempDir(), "db.json")
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		if db, err := Open(path, appstore.Options{}); err == nil {
			db.Close()
			t.Errorf("Open(%q): want error", body)
		}
		if got, err := os.ReadFile(path); err != nil || string(got) != body {
			t.Errorf("Open(%q) left the file as %q (%v)", body, got, err)
		}
	}
}

func TestConcurrentAccess(t *testing.T) {
	db := New()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				_ = db.Put(rec("app", appclass.IO, time.Second))
				db.Runs("app")
				db.Apps()
				_, _ = db.Summarize("app")
			}
		}()
	}
	wg.Wait()
	if db.Len() != 800 {
		t.Errorf("Len = %d, want 800", db.Len())
	}
}

func TestRunsReturnsCopy(t *testing.T) {
	db := New()
	_ = db.Put(rec("A", appclass.IO, time.Second))
	runs := db.Runs("A")
	runs[0].App = "mutated"
	if got, _ := db.Latest("A"); got.App != "A" {
		t.Error("Runs exposes internal storage")
	}
}

// TestValidateRejectsNaNComposition pins the guard that keeps
// unencodable records out of the database in the first place.
func TestValidateRejectsNaNComposition(t *testing.T) {
	r := rec("nan", appclass.CPU, time.Minute)
	r.Composition = map[appclass.Class]float64{appclass.CPU: math.NaN()}
	if err := r.Validate(); err == nil {
		t.Error("NaN composition fraction: want error")
	}
}
