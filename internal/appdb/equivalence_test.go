package appdb

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/appclass"
	"repro/internal/appstore"
	"repro/internal/phase"
)

// traceRecords is a realistic finalize sequence: several applications,
// mixed classes, fingerprints, verdicts, training reservoirs, gaps —
// every field a real daemon finalize stamps.
func traceRecords() []Record {
	classes := []appclass.Class{appclass.CPU, appclass.IO, appclass.Net, appclass.Mem, appclass.Idle}
	var out []Record
	for i := 0; i < 25; i++ {
		c := classes[i%len(classes)]
		comp := map[appclass.Class]float64{c: 0.8, appclass.Idle: 0.2}
		if c == appclass.Idle {
			comp = map[appclass.Class]float64{appclass.Idle: 1}
		}
		r := Record{
			App:             fmt.Sprintf("vm-%d", i%4),
			Class:           c,
			Composition:     comp,
			ExecutionTime:   time.Duration(i+1) * 7 * time.Second,
			Samples:         50 + i,
			FinalizedAt:     int64(1_700_000_000_000_000_000 + i*1_000_000_000),
			UnknownFraction: float64(i%10) / 20,
			Verdict:         c,
			ModelID:         "abcd1234",
		}
		if i%2 == 0 {
			r.Gaps, r.GapTime = 1, 3*time.Second
		}
		if i%5 == 3 {
			r.Fingerprint = &phase.Fingerprint{Phases: []phase.PhaseSig{
				{Class: c, DurFrac: 0.7, Centroid: []float64{float64(i), 1}},
				{Class: appclass.Idle, DurFrac: 0.3, Centroid: []float64{0, 0}},
			}}
			r.MatchedApp = fmt.Sprintf("vm-%d", (i+1)%4)
			r.MatchScore = 0.85
		}
		if i%7 == 0 {
			r.TrainMetrics = []string{"cpu_user", "bytes_in"}
			r.TrainSamples = [][]float64{{float64(i), 2}, {3, 4}}
		}
		out = append(out, r)
	}
	return out
}

// TestEngineEquivalence finalizes the same trace of records through the
// in-memory engine and the segmented store and asserts every read API
// answers identically: the engine is invisible to callers (server
// finalize, placement, retraining, the fingerprint dictionary).
func TestEngineEquivalence(t *testing.T) {
	recs := traceRecords()

	// Reference: the in-memory engine.
	old := New()
	for _, r := range recs {
		if err := old.Put(r); err != nil {
			t.Fatal(err)
		}
	}

	// The same finalize sequence appended to the segmented store, closed
	// and reopened so reads come off disk.
	storePath := filepath.Join(t.TempDir(), "store")
	nu, err := Open(storePath, appstore.Options{SegmentBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := nu.Put(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := nu.Close(); err != nil {
		t.Fatal(err)
	}
	nu, err = Open(storePath, appstore.Options{SegmentBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	defer nu.Close()

	if got, want := nu.Apps(), old.Apps(); !reflect.DeepEqual(got, want) {
		t.Errorf("Apps: store %v, memory %v", got, want)
	}
	if got, want := nu.Len(), old.Len(); got != want {
		t.Errorf("Len: store %d, memory %d", got, want)
	}
	for _, app := range old.Apps() {
		if got, want := nu.Runs(app), old.Runs(app); !reflect.DeepEqual(got, want) {
			t.Errorf("Runs(%s) differ:\nstore %+v\nmemory %+v", app, got, want)
		}
		gl, el := nu.Latest(app)
		wl, ew := old.Latest(app)
		if el != nil || ew != nil || !reflect.DeepEqual(gl, wl) {
			t.Errorf("Latest(%s): store %+v (%v), memory %+v (%v)", app, gl, el, wl, ew)
		}
		gs, err1 := nu.Summarize(app)
		ws, err2 := old.Summarize(app)
		if err1 != nil || err2 != nil || !reflect.DeepEqual(gs, ws) {
			t.Errorf("Summarize(%s): store %+v (%v), memory %+v (%v)", app, gs, err1, ws, err2)
		}
	}
	if got, want := nu.Fingerprints(), old.Fingerprints(); !reflect.DeepEqual(got, want) {
		t.Errorf("Fingerprints: store %v, memory %v", got, want)
	}
	if got, want := nu.Dictionary(), old.Dictionary(); !reflect.DeepEqual(got, want) {
		t.Errorf("Dictionary: store %+v, memory %+v", got, want)
	}
	for _, r := range recs {
		for _, at := range []int64{r.FinalizedAt, r.FinalizedAt + 1} {
			if got, want := nu.HasRun(r.App, at), old.HasRun(r.App, at); got != want {
				t.Errorf("HasRun(%s, %d): store %v, memory %v", r.App, at, got, want)
			}
		}
	}
	for _, c := range appclass.All() {
		if got, want := nu.ByClass(c), old.ByClass(c); !reflect.DeepEqual(got, want) {
			t.Errorf("ByClass(%s): store %v, memory %v", c, got, want)
		}
	}
	if got, want := nu.ClassCounts(), old.ClassCounts(); !reflect.DeepEqual(got, want) {
		t.Errorf("ClassCounts: store %v, memory %v", got, want)
	}
	if got, want := nu.TotalExecution(), old.TotalExecution(); got != want {
		t.Errorf("TotalExecution: store %v, memory %v", got, want)
	}

	// Scan pages agree record-for-record across both engines.
	for _, f := range []Filter{
		{},
		{App: "vm-1"},
		{Class: appclass.CPU},
		{Verdict: appclass.IO},
		{Since: 1_700_000_005_000_000_000, Until: 1_700_000_015_000_000_000},
	} {
		var fromStore, fromMem []Row
		for cursor := uint64(0); ; {
			page, next, err := nu.Scan(f, cursor, 4)
			if err != nil {
				t.Fatal(err)
			}
			fromStore = append(fromStore, page...)
			if next == 0 {
				break
			}
			cursor = next
		}
		for cursor := uint64(0); ; {
			page, next, err := old.Scan(f, cursor, 4)
			if err != nil {
				t.Fatal(err)
			}
			fromMem = append(fromMem, page...)
			if next == 0 {
				break
			}
			cursor = next
		}
		// Both engines keep the global finalize order, so the pages
		// agree row for row.
		if !reflect.DeepEqual(fromStore, fromMem) {
			t.Errorf("Scan(%+v) differs:\nstore %+v\nmemory %+v", f, fromStore, fromMem)
		}
	}
}

// writeLegacy writes recs as a legacy whole-file JSON database, the
// one-way input Open converts.
func writeLegacy(t *testing.T, path string, recs []Record) {
	t.Helper()
	b, err := json.Marshal(map[string][]Record{"records": recs})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestOpenMigratesLegacyFile drives the transparent upgrade through the
// appdb API: Open on a path holding a legacy JSON database converts it
// and serves identical records.
func TestOpenMigratesLegacyFile(t *testing.T) {
	recs := traceRecords()
	old := New()
	for _, r := range recs {
		if err := old.Put(r); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(t.TempDir(), "appdb.json")
	writeLegacy(t, path, recs)
	db, err := Open(path, appstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if db.Store() == nil {
		t.Fatal("Open returned a memory-backed DB")
	}
	for _, app := range old.Apps() {
		if got, want := db.Runs(app), old.Runs(app); !reflect.DeepEqual(got, want) {
			t.Errorf("Runs(%s) differ after migration", app)
		}
	}
	if _, ok := db.StoreStats(); !ok {
		t.Error("StoreStats not available on store-backed DB")
	}
}

// TestFingerprintsMatchMemoryEngineUnderChurn feeds the in-memory
// engine and the segmented store the same seeded appends, prunes,
// compactions and reopens: after every step the store's cached
// fingerprint dictionary must equal the memory engine's.
func TestFingerprintsMatchMemoryEngineUnderChurn(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	opt := appstore.Options{SegmentBytes: 2048, NoFsync: true}
	mem := New()
	st, err := Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { st.Close() }()
	rng := rand.New(rand.NewSource(5))
	for step := 0; step < 400; step++ {
		switch p := rng.Intn(100); {
		case p < 85:
			r := traceRecords()[0]
			r.App = fmt.Sprintf("vm-%d", rng.Intn(20))
			r.MatchedApp, r.MatchScore = "", 0
			if rng.Intn(2) == 0 {
				r.Fingerprint = &phase.Fingerprint{Phases: []phase.PhaseSig{
					{Class: appclass.CPU, DurFrac: 1, Centroid: []float64{float64(step), rng.Float64()}},
				}}
			}
			for _, db := range []*DB{mem, st} {
				if err := db.Put(r); err != nil {
					t.Fatal(err)
				}
			}
		case p < 93:
			keep := 1 + rng.Intn(3)
			if got, want := st.Prune(keep), mem.Prune(keep); got != want {
				t.Fatalf("step %d: Prune(%d) dropped %d from the store, %d from memory", step, keep, got, want)
			}
		case p < 97:
			if err := st.Store().Compact(); err != nil {
				t.Fatal(err)
			}
		default:
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			if st, err = Open(dir, opt); err != nil {
				t.Fatal(err)
			}
		}
		if got, want := st.Fingerprints(), mem.Fingerprints(); !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d: store dictionary differs from the memory engine's:\nstore %v\nmem   %v", step, got, want)
		}
		if got, want := st.Dictionary(), mem.Dictionary(); !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d: store dictionary entries differ from the memory engine's:\nstore %+v\nmem   %+v", step, got, want)
		}
	}
}
