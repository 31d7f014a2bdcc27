package appstore

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/appclass"
	"repro/internal/phase"
	"repro/internal/seglog"
)

// pageRecord is testRecord with every page field set on some records:
// phases with a fingerprint, a dictionary match, an unknown fraction.
func pageRecord(i int) Record {
	classes := []appclass.Class{appclass.CPU, appclass.IO, appclass.Net, appclass.Mem}
	r := testRecord(fmt.Sprintf("vm-%d", i%5), classes[i%len(classes)], i)
	r.UnknownFraction = float64(i%7) / 7
	if i%2 == 0 {
		r.Phases = []phase.Phase{{Class: r.Class, Snapshots: 3, Centroid: []float64{float64(i), 1}}}
		r.Fingerprint = testFingerprint()
		if i%4 == 0 {
			r.MatchedApp, r.MatchScore = "vm-0", 0.5+float64(i)/1000
		}
	}
	return r
}

// writeV1Store writes recs as kind-1 records (seq 1, 2, ...) into one
// version-1 segment: the layout of a store written before page fields.
func writeV1Store(t *testing.T, dir string, recs []Record) {
	t.Helper()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	buf := segFormat.EncodeHeader(segVersionV1, nil)
	for i := range recs {
		var start int
		var err error
		buf, start = seglog.BeginFrame(buf)
		if buf, err = appendPayload(buf, kindRecord, uint64(i+1), &recs[i]); err != nil {
			t.Fatal(err)
		}
		buf = seglog.EndFrame(buf, start)
	}
	if err := os.WriteFile(segFormat.Path(dir, 1), buf, 0o644); err != nil {
		t.Fatal(err)
	}
}

// wantPage is the newest-first page of rows recs[:n] render to.
func wantPage(recs []Record, limit int) []Row {
	var out []Row
	for i := len(recs) - 1; i >= 0 && len(out) < limit; i-- {
		out = append(out, RowOf(&recs[i]))
	}
	return out
}

// TestScanPageFromIndex: a 50-row page over kind-2 records is served
// from the index — no body read — and holds the rows the records
// render to.
func TestScanPageFromIndex(t *testing.T) {
	s := openTest(t, filepath.Join(t.TempDir(), "store"), Options{NoFsync: true})
	var recs []Record
	for i := 0; i < 60; i++ {
		recs = append(recs, pageRecord(i))
		if err := s.Append(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	before := s.Stats().RecordReads
	rows, next, err := s.Scan(Filter{}, 0, 50)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().RecordReads - before; got != 0 {
		t.Errorf("a 50-row page read %d bodies, want 0", got)
	}
	if next != 11 {
		t.Errorf("next cursor = %d, want 11", next)
	}
	if want := wantPage(recs, 50); !reflect.DeepEqual(rows, want) {
		t.Errorf("page rows differ from the records':\n got %+v\nwant %+v", rows[0], want[0])
	}
}

// TestScanKind1ReadsBodyPerRow opens a store written before page
// fields: open reads no body, a page reads one body per row and
// renders the same rows as kind 2 would, and the version-1 segment is
// never appended to — new records land in a fresh version-2 segment,
// and the mixed store survives compaction and reopen.
func TestScanKind1ReadsBodyPerRow(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	var recs []Record
	for i := 0; i < 60; i++ {
		recs = append(recs, pageRecord(i))
	}
	writeV1Store(t, dir, recs)
	v1, err := os.ReadFile(segFormat.Path(dir, 1))
	if err != nil {
		t.Fatal(err)
	}

	s := openTest(t, dir, Options{NoFsync: true})
	if got := s.Stats().RecordReads; got != 0 {
		t.Errorf("open read %d bodies, want 0", got)
	}
	rows, _, err := s.Scan(Filter{}, 0, 50)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().RecordReads; got != 50 {
		t.Errorf("a 50-row page over kind-1 records read %d bodies, want 50", got)
	}
	if want := wantPage(recs, 50); !reflect.DeepEqual(rows, want) {
		t.Errorf("kind-1 page rows differ from the records':\n got %+v\nwant %+v", rows[0], want[0])
	}

	recs = append(recs, pageRecord(60))
	if err := s.Append(&recs[60]); err != nil {
		t.Fatal(err)
	}
	if after, err := os.ReadFile(segFormat.Path(dir, 1)); err != nil || string(after) != string(v1) {
		t.Fatalf("version-1 segment changed by an append (err %v)", err)
	}
	f, err := os.Open(segFormat.Path(dir, 2))
	if err != nil {
		t.Fatal(err)
	}
	h, reason, err := segFormat.ReadHeader(f)
	f.Close()
	if err != nil || reason != "" || h.Version != segVersion {
		t.Fatalf("fresh segment header version %d (%q, err %v), want %d", h.Version, reason, err, segVersion)
	}

	// Compaction copies the kind-1 frames into a version-2 segment.
	if _, err := s.Prune(10); err != nil {
		t.Fatal(err)
	}
	var kept []Record
	for i := range recs {
		if i >= len(recs)-5*10 { // 5 applications, the newest 10 each
			kept = append(kept, recs[i])
		}
	}
	s.Close()
	s = openTest(t, dir, Options{NoFsync: true})
	rows, _, err = s.Scan(Filter{}, 0, MaxScanLimit)
	if err != nil {
		t.Fatal(err)
	}
	if want := wantPage(kept, MaxScanLimit); !reflect.DeepEqual(rows, want) {
		t.Errorf("rows after compaction and reopen differ: %d rows, want %d", len(rows), len(want))
	}
}

// TestDictionaryRows: the dictionary lists each application's newest
// fingerprinted run with its page row, sorted by application, and a
// call that finds every entry decoded reads no body.
func TestDictionaryRows(t *testing.T) {
	s := openTest(t, filepath.Join(t.TempDir(), "store"), Options{NoFsync: true})
	var recs []Record
	for i := 0; i < 23; i++ {
		recs = append(recs, pageRecord(i))
		if err := s.Append(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	ents, err := s.Dictionary()
	if err != nil {
		t.Fatal(err)
	}
	var want []DictEntry
	for app := 0; app < 5; app++ {
		for i := len(recs) - 1; i >= 0; i-- {
			if recs[i].App == fmt.Sprintf("vm-%d", app) && recs[i].Fingerprint != nil {
				want = append(want, DictEntry{Run: RowOf(&recs[i]), Fingerprint: *recs[i].Fingerprint})
				break
			}
		}
	}
	if !reflect.DeepEqual(ents, want) {
		t.Errorf("dictionary entries:\n got %+v\nwant %+v", ents, want)
	}
	before := s.Stats().RecordReads
	if _, err := s.Dictionary(); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().RecordReads - before; got != 0 {
		t.Errorf("a warm dictionary read %d bodies, want 0", got)
	}
}
