package appdb

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/appclass"
	"repro/internal/appstore"
	"repro/internal/metrics"
	"repro/internal/phase"
	"repro/internal/seglog"
)

// benchRecord is a representative finalized run: a mixed composition, a
// verdict, a model stamp — what the daemon writes on every finalize.
func benchRecord(i int) Record {
	classes := appclass.All()
	c := classes[i%len(classes)]
	comp := map[appclass.Class]float64{c: 1}
	if c != appclass.Idle {
		comp = map[appclass.Class]float64{c: 0.8, appclass.Idle: 0.2}
	}
	return Record{
		App:           fmt.Sprintf("app-%03d", i%100),
		Class:         c,
		Composition:   comp,
		ExecutionTime: time.Duration(i%600+1) * time.Second,
		Samples:       i%600 + 1,
		FinalizedAt:   int64(1_700_000_000+i) * int64(time.Second),
		Verdict:       c,
		ModelID:       "cafe0123beef",
	}
}

// BenchmarkFinalizeAppend is one finalize against the segmented store
// holding 10k prior records: a single framed append plus fsync,
// independent of database size. CI gates it >= 10x faster than
// BenchmarkFinalizeSaveFile measured in the same run.
func BenchmarkFinalizeAppend(b *testing.B) {
	db, err := Open(filepath.Join(b.TempDir(), "store"), appstore.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < 10_000; i++ {
		if err := db.Put(benchRecord(i)); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := db.Put(benchRecord(10_000 + i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFinalizeSaveFile is the legacy persistence the store
// replaced: every finalize rewrote the whole 10k-record database as one
// indented JSON document ({"records": [...]}, the legacy file Open
// still converts) and published it with seglog.WriteFile, O(n) per
// finalize.
func BenchmarkFinalizeSaveFile(b *testing.B) {
	db := New()
	for i := 0; i < 10_000; i++ {
		if err := db.Put(benchRecord(i)); err != nil {
			b.Fatal(err)
		}
	}
	save := func(w io.Writer) error {
		var doc struct {
			Records []Record `json:"records"`
		}
		for _, app := range db.Apps() {
			doc.Records = append(doc.Records, db.Runs(app)...)
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(doc)
	}
	path := filepath.Join(b.TempDir(), "db.json")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := db.Put(benchRecord(10_000 + i)); err != nil {
			b.Fatal(err)
		}
		if err := seglog.WriteFile(path, save); err != nil {
			b.Fatal(err)
		}
	}
}

// daemonRecord is benchRecord for one of 200 applications shaped like a
// record the daemon writes: a three-phase fingerprint and a full
// retraining reservoir (classify.DefaultTrainReservoir rows of the
// expert metrics), which makes up most of its ~18 KB body.
func daemonRecord(i int, rng *rand.Rand) Record {
	r := benchRecord(i)
	r.App = fmt.Sprintf("app-%03d", i%200)
	r.Fingerprint = &phase.Fingerprint{Phases: []phase.PhaseSig{
		{Class: appclass.CPU, DurFrac: 0.5, Centroid: []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}},
		{Class: appclass.IO, DurFrac: 0.3, Centroid: []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}},
		{Class: appclass.Idle, DurFrac: 0.2, Centroid: []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}},
	}}
	r.TrainMetrics = metrics.ExpertNames()
	r.TrainSamples = make([][]float64, 256)
	for j := range r.TrainSamples {
		row := make([]float64, len(r.TrainMetrics))
		for k := range row {
			row[k] = float64(rng.Intn(1_000_000)) / 100
		}
		r.TrainSamples[j] = row
	}
	return r
}

// BenchmarkFinalizeDictionary is a finish's store work against a
// 10k-record, 200-application store of daemon-shaped records: one
// fingerprinted append (with fsync) plus the fingerprint-dictionary
// read that matches the next run. The store keeps each decoded entry
// until the index names a different record, so the read decodes the one
// record the previous append added, not all 200 entries.
func BenchmarkFinalizeDictionary(b *testing.B) {
	dir := filepath.Join(b.TempDir(), "store")
	rng := rand.New(rand.NewSource(1))
	db, err := Open(dir, appstore.Options{NoFsync: true})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 10_000; i++ {
		if err := db.Put(daemonRecord(i, rng)); err != nil {
			b.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		b.Fatal(err)
	}
	if db, err = Open(dir, appstore.Options{}); err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	recs := make([]Record, 64)
	for i := range recs {
		recs[i] = daemonRecord(10_000+i, rng)
	}
	db.Fingerprints() // a running daemon's first finish has paid this
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := db.Put(recs[i%len(recs)]); err != nil {
			b.Fatal(err)
		}
		if fps := db.Fingerprints(); len(fps) != 200 {
			b.Fatalf("dictionary holds %d applications, want 200", len(fps))
		}
	}
}

// BenchmarkScanPage is the store work of one GET /v1/runs page: 50
// rows, newest first, over a 10k-record, 200-application store of
// daemon-shaped records, reopened from disk as the daemon opens it.
// Their meta headers carry the page fields, so a page reads no body.
func BenchmarkScanPage(b *testing.B) {
	dir := filepath.Join(b.TempDir(), "store")
	rng := rand.New(rand.NewSource(1))
	db, err := Open(dir, appstore.Options{NoFsync: true})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 10_000; i++ {
		if err := db.Put(daemonRecord(i, rng)); err != nil {
			b.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		b.Fatal(err)
	}
	if db, err = Open(dir, appstore.Options{}); err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, next, err := db.Scan(Filter{}, 0, 50)
		if err != nil || len(rows) != 50 || next == 0 {
			b.Fatalf("page of %d rows, next %d, err %v", len(rows), next, err)
		}
	}
}

// BenchmarkStoreOpen is the store open behind the daemon's set-up: a
// 10k-record, 200-application store of daemon-shaped records without
// training rows (the shape of the benchmark's prior store), reopened
// from disk. Open walks every segment and rebuilds the index.
func BenchmarkStoreOpen(b *testing.B) {
	dir := filepath.Join(b.TempDir(), "store")
	rng := rand.New(rand.NewSource(1))
	db, err := Open(dir, appstore.Options{NoFsync: true})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 10_000; i++ {
		r := daemonRecord(i, rng)
		r.TrainMetrics, r.TrainSamples = nil, nil
		if err := db.Put(r); err != nil {
			b.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := appstore.Open(dir, appstore.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if st.Len() != 10_000 {
			b.Fatalf("store holds %d records, want 10000", st.Len())
		}
		if err := st.Close(); err != nil {
			b.Fatal(err)
		}
	}
}
