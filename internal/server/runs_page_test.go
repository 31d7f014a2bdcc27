package server

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/appclass"
	"repro/internal/appdb"
	"repro/internal/appstore"
	"repro/internal/phase"
)

// fixtureRecord is record i of testdata/parent-store: varied classes,
// verdicts (UNKNOWN and none among them), gaps, phases with and without
// a fingerprint, dictionary matches and retained training rows.
func fixtureRecord(i int) appdb.Record {
	classes := []appclass.Class{appclass.CPU, appclass.IO, appclass.Net, appclass.Mem, appclass.Idle}
	c := classes[i%len(classes)]
	r := appdb.Record{
		App:           fmt.Sprintf("app-%c", 'a'+i%4),
		Class:         c,
		Composition:   map[appclass.Class]float64{c: 0.7, appclass.Idle: 0.3},
		ExecutionTime: time.Duration(37*i+11)*time.Second + time.Duration(i)*time.Millisecond,
		Samples:       7*i + 3,
		FinalizedAt:   int64(1_760_000_000+97*i)*int64(time.Second) + int64(i)*123_456,
		Verdict:       c,
		ModelID:       fmt.Sprintf("model%02d", i%3),
	}
	if c == appclass.Idle {
		r.Composition = map[appclass.Class]float64{appclass.Idle: 1}
	}
	if i%5 == 3 {
		r.Verdict = appclass.Unknown
		r.UnknownFraction = 0.55 + float64(i)/1000
	} else if i%3 == 0 {
		r.UnknownFraction = float64(i) / 97
	}
	if i%7 == 2 {
		r.Verdict = ""
	}
	if i%6 == 1 {
		r.Gaps, r.GapTime = i%4+1, time.Duration(i)*time.Second
	}
	if i%2 == 0 && i != 22 {
		ph := []phase.Phase{
			{Class: c, Start: 0, End: time.Duration(20+i) * time.Second, Snapshots: 4 + i%3,
				Composition: map[appclass.Class]float64{c: 1}, Centroid: []float64{float64(i) / 3, -1.25}},
			{Class: appclass.IO, Start: time.Duration(20+i) * time.Second, End: time.Duration(50+i) * time.Second, Snapshots: 6,
				Composition: map[appclass.Class]float64{appclass.IO: 1}, Centroid: []float64{0.5, float64(i) / 7}},
		}
		if i%4 == 2 {
			ph = ph[:1]
		}
		r.Phases = ph
		fp := phase.NewFingerprint(ph)
		r.Fingerprint = &fp
		if i%8 == 4 {
			r.MatchedApp, r.MatchScore = "app-c", 0.8125+float64(i)/1000
		}
	} else if i%3 == 1 {
		r.Phases = []phase.Phase{{Class: c, Start: 0, End: 5 * time.Second, Snapshots: 2,
			Composition: map[appclass.Class]float64{c: 1}, Centroid: []float64{1, 2}}}
	}
	if i%4 == 1 {
		r.TrainMetrics = []string{"cpu_user", "io_bi"}
		r.TrainSamples = [][]float64{{float64(i), 2.5}, {0.125, float64(i) * 3}}
	}
	return r
}

const fixtureRecords = 24

// copyParentStore copies the fixture store into a scratch directory:
// opening it starts a fresh segment, which must not land in testdata.
func copyParentStore(t *testing.T) string {
	t.Helper()
	dst := filepath.Join(t.TempDir(), "store")
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	src := filepath.Join("testdata", "parent-store", "store")
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestRunsPageParentStoreBodies pins /v1/runs and /v1/fingerprints to
// the bytes the daemon served before record kind 2, over the store that
// daemon wrote (kind-1 records, whose page fields come from the body),
// over the same records written now (kind 2, served from the index),
// and over the in-memory engine.
func TestRunsPageParentStoreBodies(t *testing.T) {
	lines, err := os.ReadFile(filepath.Join("testdata", "parent-store", "queries.txt"))
	if err != nil {
		t.Fatal(err)
	}
	type golden struct{ path, file string }
	var queries []golden
	for _, line := range strings.Split(strings.TrimSpace(string(lines)), "\n") {
		path, file, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("queries.txt line %q", line)
		}
		queries = append(queries, golden{path, file})
	}

	parent, err := appdb.Open(copyParentStore(t), appstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { parent.Close() })
	if parent.Len() != fixtureRecords {
		t.Fatalf("parent store holds %d records, want %d", parent.Len(), fixtureRecords)
	}
	current, err := appdb.Open(filepath.Join(t.TempDir(), "store"), appstore.Options{NoFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { current.Close() })
	memory := appdb.New()
	for i := 0; i < fixtureRecords; i++ {
		for _, db := range []*appdb.DB{current, memory} {
			if err := db.Put(fixtureRecord(i)); err != nil {
				t.Fatal(err)
			}
		}
	}

	for _, tc := range []struct {
		name string
		db   *appdb.DB
	}{{"parent-written", parent}, {"current-written", current}, {"memory", memory}} {
		t.Run(tc.name, func(t *testing.T) {
			s := newTestServer(t, Config{DB: tc.db})
			for _, q := range queries {
				want, err := os.ReadFile(filepath.Join("testdata", "parent-store", q.file))
				if err != nil {
					t.Fatal(err)
				}
				w := getJSON(t, s, q.path)
				if w.Code != 200 {
					t.Fatalf("GET %s: %d %s", q.path, w.Code, w.Body.String())
				}
				if !bytes.Equal(w.Body.Bytes(), want) {
					t.Errorf("GET %s differs from %s:\n got %s\nwant %s", q.path, q.file, w.Body.String(), want)
				}
			}
		})
	}
}

// TestRunsPageReadsNoBodies: a page of runs over records this daemon
// wrote is served from the store index, and repeated /v1/fingerprints
// requests are served from the decoded dictionary — neither moves
// appclassd_appdb_record_reads_total.
func TestRunsPageReadsNoBodies(t *testing.T) {
	db, err := appdb.Open(filepath.Join(t.TempDir(), "store"), appstore.Options{NoFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	for i := 0; i < 60; i++ {
		if err := db.Put(fixtureRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	s := newTestServer(t, Config{DB: db})
	reads := func() int64 {
		st, _ := db.StoreStats()
		return st.RecordReads
	}
	getJSON(t, s, "/v1/fingerprints") // decodes each dictionary entry once
	before := reads()
	for _, path := range []string{"/v1/runs", "/v1/runs?limit=50&cursor=55", "/v1/runs?app=app-a", "/v1/fingerprints", "/v1/fingerprints"} {
		if w := getJSON(t, s, path); w.Code != 200 {
			t.Fatalf("GET %s: %d %s", path, w.Code, w.Body.String())
		}
	}
	if got := reads(); got != before {
		t.Errorf("pages and dictionary reads read %d record bodies, want 0", got-before)
	}
	if !strings.Contains(getJSON(t, s, "/metricsz").Body.String(), fmt.Sprintf("appclassd_appdb_record_reads_total %d\n", before)) {
		t.Errorf("/metricsz record reads moved past %d", before)
	}
}
