package appstore

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/appclass"
	"repro/internal/phase"
)

// testRecord builds a valid record; i varies the fields so records are
// distinguishable.
func testRecord(app string, c appclass.Class, i int) Record {
	return Record{
		App:           app,
		Class:         c,
		Composition:   map[appclass.Class]float64{c: 0.75, appclass.Idle: 0.25},
		ExecutionTime: time.Duration(i+1) * time.Second,
		Samples:       10 + i,
		FinalizedAt:   int64(1000 + i*100),
		Verdict:       c,
		ModelID:       fmt.Sprintf("m%d", i%2),
	}
}

func testFingerprint() *phase.Fingerprint {
	return &phase.Fingerprint{Phases: []phase.PhaseSig{
		{Class: appclass.CPU, DurFrac: 0.6, Centroid: []float64{1, 2}},
		{Class: appclass.IO, DurFrac: 0.4, Centroid: []float64{-1, 0.5}},
	}}
}

func openTest(t *testing.T, dir string, opt Options) *Store {
	t.Helper()
	if opt.Logf == nil {
		opt.Logf = t.Logf
	}
	s, err := Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	s := openTest(t, dir, Options{})
	want := testRecord("vm-1", appclass.CPU, 0)
	want.Fingerprint = testFingerprint()
	want.Phases = []phase.Phase{{Class: appclass.CPU, End: time.Minute, Snapshots: 7}}
	want.TrainMetrics = []string{"cpu_user", "bytes_in"}
	want.TrainSamples = [][]float64{{1, 2}, {3, 4}}
	if err := s.Append(&want); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get(1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}

	// And again after a reopen: the record survives on disk and the
	// rebuilt index still finds it.
	s.Close()
	s2 := openTest(t, dir, Options{})
	got, err = s2.Get(1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip after reopen mismatch:\n got %+v\nwant %+v", got, want)
	}
	if latest, err := s2.Latest("vm-1"); err != nil || !reflect.DeepEqual(latest, want) {
		t.Errorf("Latest after reopen = %+v, %v", latest, err)
	}
}

func TestReadAPI(t *testing.T) {
	s := openTest(t, filepath.Join(t.TempDir(), "store"), Options{})
	for i := 0; i < 5; i++ {
		r := testRecord("vm-a", appclass.CPU, i)
		if err := s.Append(&r); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		r := testRecord("vm-b", appclass.IO, i)
		if err := s.Append(&r); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Apps(); !reflect.DeepEqual(got, []string{"vm-a", "vm-b"}) {
		t.Errorf("Apps = %v", got)
	}
	if got := s.Len(); got != 8 {
		t.Errorf("Len = %d, want 8", got)
	}
	runs, err := s.Runs("vm-a")
	if err != nil || len(runs) != 5 {
		t.Fatalf("Runs(vm-a) = %d records, %v", len(runs), err)
	}
	for i, r := range runs {
		if r.Samples != 10+i {
			t.Errorf("Runs(vm-a)[%d].Samples = %d, want oldest-first order", i, r.Samples)
		}
	}
	sum, err := s.Summarize("vm-a")
	if err != nil {
		t.Fatal(err)
	}
	if sum.Runs != 5 || sum.Class != appclass.CPU {
		t.Errorf("Summarize = %+v", sum)
	}
	// Mean execution of 1..5 seconds is 3s.
	if sum.MeanExecution != 3*time.Second {
		t.Errorf("MeanExecution = %v, want 3s", sum.MeanExecution)
	}
	if got := sum.MeanComposition[appclass.CPU]; got < 0.74 || got > 0.76 {
		t.Errorf("MeanComposition[CPU] = %v", got)
	}
	if got := s.ByClass(appclass.CPU); !reflect.DeepEqual(got, []string{"vm-a"}) {
		t.Errorf("ByClass(CPU) = %v", got)
	}
	if got := s.ByClass(appclass.IO); !reflect.DeepEqual(got, []string{"vm-b"}) {
		t.Errorf("ByClass(IO) = %v", got)
	}
	// Total: vm-a 1+2+3+4+5, vm-b 1+2+3.
	if got := s.TotalExecution(); got != 21*time.Second {
		t.Errorf("TotalExecution = %v, want 21s", got)
	}
}

func TestFingerprintsDictionary(t *testing.T) {
	s := openTest(t, filepath.Join(t.TempDir(), "store"), Options{})
	r0 := testRecord("vm-a", appclass.CPU, 0)
	r0.Fingerprint = testFingerprint()
	r1 := testRecord("vm-a", appclass.CPU, 1) // newer, no fingerprint
	r2 := testRecord("vm-b", appclass.IO, 0)  // never fingerprinted
	for _, r := range []Record{r0, r1, r2} {
		r := r
		if err := s.Append(&r); err != nil {
			t.Fatal(err)
		}
	}
	fps, err := s.Fingerprints()
	if err != nil {
		t.Fatal(err)
	}
	if len(fps) != 1 {
		t.Fatalf("Fingerprints = %v, want exactly vm-a", fps)
	}
	if got := fps["vm-a"]; !reflect.DeepEqual(&got, r0.Fingerprint) {
		t.Errorf("dictionary entry = %+v", got)
	}
}

func TestScanFiltersAndPagination(t *testing.T) {
	s := openTest(t, filepath.Join(t.TempDir(), "store"), Options{})
	for i := 0; i < 10; i++ {
		app := "vm-a"
		class := appclass.CPU
		if i%2 == 1 {
			app, class = "vm-b", appclass.IO
		}
		r := testRecord(app, class, i)
		if err := s.Append(&r); err != nil {
			t.Fatal(err)
		}
	}

	// Newest-first, paginated in pages of 3 until exhausted.
	var all []Row
	cursor := uint64(0)
	pages := 0
	for {
		page, next, err := s.Scan(Filter{}, cursor, 3)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, page...)
		pages++
		if next == 0 {
			break
		}
		cursor = next
	}
	if len(all) != 10 || pages < 4 {
		t.Fatalf("paginated scan: %d records in %d pages", len(all), pages)
	}
	for i := 1; i < len(all); i++ {
		if all[i].FinalizedAt > all[i-1].FinalizedAt {
			t.Fatalf("scan not newest-first at %d", i)
		}
	}

	byApp, _, err := s.Scan(Filter{App: "vm-b"}, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(byApp) != 5 {
		t.Errorf("Scan(App=vm-b) = %d records, want 5", len(byApp))
	}
	byClass, _, err := s.Scan(Filter{Class: appclass.CPU}, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(byClass) != 5 {
		t.Errorf("Scan(Class=CPU) = %d records, want 5", len(byClass))
	}
	byVerdict, _, err := s.Scan(Filter{Verdict: appclass.IO}, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(byVerdict) != 5 {
		t.Errorf("Scan(Verdict=IO) = %d records, want 5", len(byVerdict))
	}
	byModel, _, err := s.Scan(Filter{Model: "m0"}, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(byModel) != 5 {
		t.Errorf("Scan(Model=m0) = %d records, want 5", len(byModel))
	}
	// FinalizedAt runs 1000..1900 in steps of 100; [1200,1500] holds 4.
	byTime, _, err := s.Scan(Filter{Since: 1200, Until: 1500}, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(byTime) != 4 {
		t.Errorf("Scan(Since/Until) = %d records, want 4", len(byTime))
	}
	combined, _, err := s.Scan(Filter{App: "vm-a", Class: appclass.IO}, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(combined) != 0 {
		t.Errorf("Scan(App=vm-a, Class=IO) = %d records, want 0", len(combined))
	}
}

func TestScanCursorStableUnderAppend(t *testing.T) {
	s := openTest(t, filepath.Join(t.TempDir(), "store"), Options{})
	for i := 0; i < 6; i++ {
		r := testRecord("vm", appclass.CPU, i)
		if err := s.Append(&r); err != nil {
			t.Fatal(err)
		}
	}
	page1, next, err := s.Scan(Filter{}, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	// A record appended mid-scan must not shift the open cursor.
	r := testRecord("vm", appclass.CPU, 99)
	if err := s.Append(&r); err != nil {
		t.Fatal(err)
	}
	page2, _, err := s.Scan(Filter{}, next, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(page1) != 3 || len(page2) != 3 {
		t.Fatalf("pages = %d + %d records, want 3 + 3", len(page1), len(page2))
	}
	for _, rec := range page2 {
		if rec.Samples >= 10+3 {
			t.Errorf("second page contains record %d from the first page's range", rec.Samples)
		}
	}
}

func TestRotationAndReopen(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	// Tiny segments force rotation every couple of records.
	s := openTest(t, dir, Options{SegmentBytes: 600})
	const n = 20
	for i := 0; i < n; i++ {
		r := testRecord("vm", appclass.CPU, i)
		if err := s.Append(&r); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Segments < 3 {
		t.Fatalf("Stats.Segments = %d, want rotation to have produced several", st.Segments)
	}
	if st.LiveRecords != n {
		t.Errorf("Stats.LiveRecords = %d, want %d", st.LiveRecords, n)
	}
	s.Close()
	s2 := openTest(t, dir, Options{SegmentBytes: 600})
	if got := s2.Len(); got != n {
		t.Errorf("Len after reopen = %d, want %d", got, n)
	}
	runs, err := s2.Runs("vm")
	if err != nil || len(runs) != n {
		t.Fatalf("Runs after reopen = %d, %v", len(runs), err)
	}
	for i, r := range runs {
		if r.Samples != 10+i {
			t.Fatalf("record order broken after reopen at %d", i)
		}
	}
	// New appends continue with fresh sequence numbers.
	r := testRecord("vm", appclass.CPU, n)
	if err := s2.Append(&r); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Get(uint64(n + 1)); err != nil {
		t.Errorf("seq continuity broken after reopen: %v", err)
	}
}

// TestRunsPartialOnUnreadableSegment deletes a closed segment out from
// under an open store and asserts Runs returns the readable records
// plus an error naming the loss — not a silent nil that looks like an
// empty history.
func TestRunsPartialOnUnreadableSegment(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	s := openTest(t, dir, Options{SegmentBytes: 600})
	const n = 20
	for i := 0; i < n; i++ {
		r := testRecord("vm", appclass.CPU, i)
		if i == 0 {
			// The only fingerprinted record lands in the first segment, the
			// one about to go missing — the dictionary read must then fail
			// loudly, not shrink silently.
			r.Fingerprint = testFingerprint()
		}
		if err := s.Append(&r); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	s2 := openTest(t, dir, Options{SegmentBytes: 600})
	if err := os.Remove(filepath.Join(dir, "store-00000001.seg")); err != nil {
		t.Fatal(err)
	}
	runs, err := s2.Runs("vm")
	if err == nil {
		t.Fatal("Runs with a missing segment returned no error")
	}
	if len(runs) == 0 || len(runs) >= n {
		t.Errorf("Runs returned %d records, want a partial result between 1 and %d", len(runs), n-1)
	}
	if _, err := s2.Fingerprints(); err == nil {
		t.Error("Fingerprints with its dictionary entry unreadable returned no error")
	}
}

func TestPrune(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	s := openTest(t, dir, Options{SegmentBytes: 600})
	for i := 0; i < 10; i++ {
		r := testRecord("vm", appclass.CPU, i)
		if err := s.Append(&r); err != nil {
			t.Fatal(err)
		}
	}
	dropped, err := s.Prune(3)
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 7 {
		t.Fatalf("Prune dropped %d, want 7", dropped)
	}
	runs, err := s.Runs("vm")
	if err != nil || len(runs) != 3 {
		t.Fatalf("Runs after prune = %d, %v", len(runs), err)
	}
	// The three newest survive.
	for i, r := range runs {
		if r.Samples != 10+7+i {
			t.Errorf("prune kept the wrong records: got Samples=%d at %d", r.Samples, i)
		}
	}
	st := s.Stats()
	if st.Compactions == 0 {
		t.Error("prune over multiple segments did not compact")
	}
	if st.PrunedRecords != 7 {
		t.Errorf("Stats.PrunedRecords = %d, want 7", st.PrunedRecords)
	}
	// State survives reopen.
	s.Close()
	s2 := openTest(t, dir, Options{SegmentBytes: 600})
	runs, err = s2.Runs("vm")
	if err != nil || len(runs) != 3 {
		t.Fatalf("Runs after prune+reopen = %d, %v", len(runs), err)
	}
}

func TestPruneTombstoneBeforeCompaction(t *testing.T) {
	// With everything in the single active segment, Prune cannot compact
	// (the active segment is immutable only after rotation) — the dead
	// records must still disappear from every read path and stay dead
	// across a reopen via the tombstone sidecar.
	dir := filepath.Join(t.TempDir(), "store")
	s := openTest(t, dir, Options{})
	for i := 0; i < 5; i++ {
		r := testRecord("vm", appclass.CPU, i)
		if err := s.Append(&r); err != nil {
			t.Fatal(err)
		}
	}
	if dropped, err := s.Prune(2); err != nil || dropped != 3 {
		t.Fatalf("Prune = %d, %v", dropped, err)
	}
	if got := s.Len(); got != 2 {
		t.Errorf("Len after prune = %d, want 2", got)
	}
	s.Close()
	s2 := openTest(t, dir, Options{})
	if got := s2.Len(); got != 2 {
		t.Errorf("Len after prune+reopen = %d, want 2 (tombstones lost?)", got)
	}
}

func TestRetentionByAge(t *testing.T) {
	now := time.Unix(10_000, 0)
	dir := filepath.Join(t.TempDir(), "store")
	s := openTest(t, dir, Options{
		SegmentBytes: 600,
		RetainAge:    time.Hour,
		PruneFloor:   1,
		Now:          func() time.Time { return now },
	})
	// Old records (well past the hour) plus one recent per app.
	for i := 0; i < 8; i++ {
		r := testRecord("vm", appclass.CPU, i)
		r.FinalizedAt = now.Add(-2 * time.Hour).UnixNano()
		if err := s.Append(&r); err != nil {
			t.Fatal(err)
		}
	}
	fresh := testRecord("vm", appclass.CPU, 8)
	fresh.FinalizedAt = now.Add(-time.Minute).UnixNano()
	if err := s.Append(&fresh); err != nil {
		t.Fatal(err)
	}
	// Retention runs on rotation; push appends until it has fired.
	for i := 9; i < 20; i++ {
		r := testRecord("vm", appclass.CPU, i)
		r.FinalizedAt = now.Add(-time.Minute).UnixNano()
		if err := s.Append(&r); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.PrunedRecords == 0 {
		t.Fatal("age retention never fired despite rotations")
	}
	runs, err := s.Runs("vm")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range runs {
		if r.FinalizedAt < now.Add(-time.Hour).UnixNano() {
			t.Errorf("expired record survived: FinalizedAt=%d", r.FinalizedAt)
		}
	}
}

func TestRetentionByBytesKeepsFloor(t *testing.T) {
	now := time.Unix(10_000, 0)
	dir := filepath.Join(t.TempDir(), "store")
	s := openTest(t, dir, Options{
		SegmentBytes: 600,
		MaxBytes:     2000,
		PruneFloor:   2,
		Now:          func() time.Time { return now },
	})
	// vm-rare writes two early records (one fingerprinted) then goes
	// quiet; vm-busy floods the store far past MaxBytes.
	fp := testRecord("vm-rare", appclass.IO, 0)
	fp.Fingerprint = testFingerprint()
	if err := s.Append(&fp); err != nil {
		t.Fatal(err)
	}
	r2 := testRecord("vm-rare", appclass.IO, 1)
	if err := s.Append(&r2); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		r := testRecord("vm-busy", appclass.CPU, i)
		if err := s.Append(&r); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.PrunedRecords == 0 {
		t.Fatal("byte-cap retention never fired")
	}
	// The pruning floor protects vm-rare's records even though they are
	// the oldest in the store.
	runs, err := s.Runs("vm-rare")
	if err != nil || len(runs) != 2 {
		t.Fatalf("vm-rare has %d records after retention, want its floor of 2 (%v)", len(runs), err)
	}
	fps, err := s.Fingerprints()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := fps["vm-rare"]; !ok {
		t.Error("retention evicted a fingerprint-dictionary record")
	}
}

func TestLegacyMigrationInPlace(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "appdb.json")
	// A legacy whole-file JSON database.
	legacy := legacyDoc{Records: []Record{
		testRecord("vm-a", appclass.CPU, 0),
		testRecord("vm-b", appclass.IO, 1),
	}}
	writeJSONFile(t, path, legacy)

	s := openTest(t, path, Options{})
	if got := s.Len(); got != 2 {
		t.Fatalf("Len after migration = %d, want 2", got)
	}
	got, err := s.Latest("vm-a")
	if err != nil || !reflect.DeepEqual(got, legacy.Records[0]) {
		t.Errorf("migrated record mismatch: %+v, %v", got, err)
	}
	// The original file moved aside, the store dir stands in its place.
	if fi, err := os.Stat(path); err != nil || !fi.IsDir() {
		t.Errorf("store path is not a directory after migration: %v %v", fi, err)
	}
	if _, err := os.Stat(path + ".legacy"); err != nil {
		t.Errorf("legacy backup missing: %v", err)
	}
	// Second open must not re-migrate.
	s.Close()
	s2 := openTest(t, path, Options{})
	if got := s2.Len(); got != 2 {
		t.Errorf("Len after second open = %d, want 2 (double migration?)", got)
	}
}

func TestOpenLargeStoreIsFast(t *testing.T) {
	if testing.Short() {
		t.Skip("bulk store build in -short mode")
	}
	dir := filepath.Join(t.TempDir(), "store")
	s := openTest(t, dir, Options{NoFsync: true})
	const n = 50_000
	for i := 0; i < n; i++ {
		r := testRecord(fmt.Sprintf("vm-%d", i%100), appclass.CPU, i)
		if err := s.Append(&r); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	start := time.Now()
	s2 := openTest(t, dir, Options{NoFsync: true})
	elapsed := time.Since(start)
	if got := s2.Len(); got != n {
		t.Fatalf("Len = %d, want %d", got, n)
	}
	// 50k records must open well under a second — the 1M-record target
	// of "a few seconds" with 20× margin.
	if elapsed > 2*time.Second {
		t.Errorf("opening %d records took %v", n, elapsed)
	}
	t.Logf("opened %d records in %v", n, elapsed)
}

func writeJSONFile(t *testing.T, path string, doc any) {
	t.Helper()
	data, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}
