package modelreg

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/appclass"
	"repro/internal/appdb"
	"repro/internal/metrics"
)

// sampleRows fabricates retained training rows around a class
// signature, the shape finalize stamps into appdb records.
func sampleRows(c appclass.Class, n int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	sig := classSignature(c)
	rows := make([][]float64, n)
	for i := range rows {
		row := make([]float64, len(sig))
		for j, v := range sig {
			row[j] = v * (1 + 0.1*rng.NormFloat64())
			if row[j] < 0 {
				row[j] = 0
			}
		}
		rows[i] = row
	}
	return rows
}

func retrainDB(t *testing.T) *appdb.DB {
	t.Helper()
	db := appdb.New()
	names := metrics.ExpertSchema().Names()
	for i, c := range []appclass.Class{appclass.CPU, appclass.IO, appclass.Net} {
		rec := appdb.Record{
			App:           "app-" + string(c),
			Class:         c,
			Verdict:       c,
			ExecutionTime: time.Minute,
			Samples:       20,
			TrainMetrics:  names,
			TrainSamples:  sampleRows(c, 20, int64(i+1)),
		}
		if err := db.Put(rec); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	return db
}

func TestRetrain(t *testing.T) {
	db := retrainDB(t)
	cl, stats, err := Retrain(db, RetrainConfig{})
	if err != nil {
		t.Fatalf("Retrain: %v", err)
	}
	if stats.Records != 3 || stats.SkippedUnknown != 0 {
		t.Fatalf("stats = %+v", stats)
	}
	if len(stats.RowsPerClass) != 3 {
		t.Fatalf("RowsPerClass = %v, want 3 classes", stats.RowsPerClass)
	}
	// The refit classifier must classify its own training signatures
	// correctly.
	for _, c := range []appclass.Class{appclass.CPU, appclass.IO, appclass.Net} {
		got, err := cl.ClassifySnapshot(metrics.ExpertSchema(), classSignature(c))
		if err != nil {
			t.Fatalf("classify %s: %v", c, err)
		}
		if got != c {
			t.Errorf("refit classifies %s signature as %s", c, got)
		}
	}
	// And wrap cleanly as a model.
	if _, err := NewModel(cl, DefaultParams(), "retrain", 1); err != nil {
		t.Fatalf("NewModel: %v", err)
	}
}

func TestRetrainSkipsUnknownVerdicts(t *testing.T) {
	db := retrainDB(t)
	names := metrics.ExpertSchema().Names()
	if err := db.Put(appdb.Record{
		App:          "mystery",
		Class:        appclass.CPU,
		Verdict:      appclass.Unknown,
		TrainMetrics: names,
		TrainSamples: sampleRows(appclass.Mem, 20, 9),
	}); err != nil {
		t.Fatal(err)
	}
	_, stats, err := Retrain(db, RetrainConfig{})
	if err != nil {
		t.Fatalf("Retrain: %v", err)
	}
	if stats.SkippedUnknown != 1 {
		t.Fatalf("SkippedUnknown = %d, want 1", stats.SkippedUnknown)
	}
	if _, ok := stats.RowsPerClass[appclass.Mem]; ok {
		t.Fatal("unknown-verdict rows leaked into the training set")
	}
}

func TestRetrainThinClassesDropped(t *testing.T) {
	db := retrainDB(t)
	names := metrics.ExpertSchema().Names()
	if err := db.Put(appdb.Record{
		App:          "thin",
		Class:        appclass.Mem,
		Verdict:      appclass.Mem,
		TrainMetrics: names,
		TrainSamples: sampleRows(appclass.Mem, 2, 9), // below MinRowsPerClass
	}); err != nil {
		t.Fatal(err)
	}
	_, stats, err := Retrain(db, RetrainConfig{})
	if err != nil {
		t.Fatalf("Retrain: %v", err)
	}
	if len(stats.DroppedClasses) != 1 || stats.DroppedClasses[0] != appclass.Mem {
		t.Fatalf("DroppedClasses = %v, want [mem]", stats.DroppedClasses)
	}
}

func TestRetrainErrors(t *testing.T) {
	if _, _, err := Retrain(appdb.New(), RetrainConfig{}); err == nil {
		t.Fatal("empty db: want error")
	}

	// Sampling disabled: records exist but carry no rows.
	db := appdb.New()
	if err := db.Put(appdb.Record{App: "a", Class: appclass.CPU}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Retrain(db, RetrainConfig{}); err == nil {
		t.Fatal("no sampled records: want error")
	}

	// Only one class survives: not enough to train.
	db = appdb.New()
	names := metrics.ExpertSchema().Names()
	if err := db.Put(appdb.Record{
		App: "solo", Class: appclass.CPU, TrainMetrics: names,
		TrainSamples: sampleRows(appclass.CPU, 20, 1),
	}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Retrain(db, RetrainConfig{}); err == nil {
		t.Fatal("single class: want error")
	}

	// Mixed schemas across records must refuse, not silently misalign.
	db = retrainDB(t)
	if err := db.Put(appdb.Record{
		App: "other-schema", Class: appclass.Mem,
		TrainMetrics: names[:4],
		TrainSamples: [][]float64{{1, 2, 3, 4}},
	}); err != nil {
		t.Fatal(err)
	}
	_, _, err := Retrain(db, RetrainConfig{})
	if err == nil || !strings.Contains(err.Error(), "mixed-schema") {
		t.Fatalf("mixed schemas: got %v, want mixed-schema error", err)
	}
}

func TestRetrainRowCap(t *testing.T) {
	db := retrainDB(t)
	_, stats, err := Retrain(db, RetrainConfig{MaxRowsPerClass: 10})
	if err != nil {
		t.Fatalf("Retrain: %v", err)
	}
	for c, n := range stats.RowsPerClass {
		if n > 10 {
			t.Errorf("class %s kept %d rows, cap 10", c, n)
		}
	}
}
