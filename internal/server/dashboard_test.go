package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/appclass"
	"repro/internal/appdb"
	"repro/internal/appstore"
)

// seedRuns puts n finalized records into the server's database, newest
// last, cycling apps and classes so filters have something to select.
func seedRuns(t *testing.T, db *appdb.DB, n int) {
	t.Helper()
	classes := appclass.All()
	for i := 0; i < n; i++ {
		c := classes[i%len(classes)]
		rec := appdb.Record{
			App:           fmt.Sprintf("app-%d", i%3),
			Class:         c,
			Composition:   map[appclass.Class]float64{c: 1},
			ExecutionTime: time.Duration(i+1) * time.Second,
			Samples:       i + 1,
			FinalizedAt:   int64(1_700_000_000+i) * int64(time.Second),
			Verdict:       c,
			ModelID:       "cafe0123beef",
		}
		if err := db.Put(rec); err != nil {
			t.Fatalf("seed put %d: %v", i, err)
		}
	}
}

func getRuns(t *testing.T, h http.Handler, query string) (int, map[string]any) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, "/v1/runs"+query, nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	var body map[string]any
	if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil {
		t.Fatalf("GET /v1/runs%s: bad JSON: %v\n%s", query, err, w.Body.String())
	}
	return w.Code, body
}

func runApps(body map[string]any) []string {
	var apps []string
	runs, _ := body["runs"].([]any)
	for _, r := range runs {
		row := r.(map[string]any)
		apps = append(apps, row["app"].(string))
	}
	return apps
}

func TestRunsEndpointPagination(t *testing.T) {
	s := newTestServer(t, Config{})
	seedRuns(t, s.DB(), 12)
	h := s.Handler()

	// First page: newest first.
	code, body := getRuns(t, h, "?limit=5")
	if code != 200 {
		t.Fatalf("page 1 status = %d", code)
	}
	if n := body["count"].(float64); n != 5 {
		t.Fatalf("page 1 count = %v, want 5", n)
	}
	first := body["runs"].([]any)[0].(map[string]any)
	if got := first["samples"].(float64); got != 12 {
		t.Fatalf("newest record samples = %v, want 12", got)
	}
	cursor := body["next_cursor"].(float64)
	if cursor == 0 {
		t.Fatal("page 1 next_cursor = 0, want resumable cursor")
	}

	// Walk the remaining pages; 12 records at limit 5 is 5+5+2.
	total := 5
	for cursor != 0 {
		code, body = getRuns(t, h, fmt.Sprintf("?limit=5&cursor=%d", uint64(cursor)))
		if code != 200 {
			t.Fatalf("page status = %d", code)
		}
		total += int(body["count"].(float64))
		cursor = body["next_cursor"].(float64)
	}
	if total != 12 {
		t.Fatalf("paginated total = %d, want 12", total)
	}
}

func TestRunsEndpointFilters(t *testing.T) {
	s := newTestServer(t, Config{})
	seedRuns(t, s.DB(), 10)
	h := s.Handler()

	code, body := getRuns(t, h, "?app=app-1")
	if code != 200 {
		t.Fatalf("app filter status = %d", code)
	}
	for _, app := range runApps(body) {
		if app != "app-1" {
			t.Fatalf("app filter leaked %q", app)
		}
	}
	if len(runApps(body)) == 0 {
		t.Fatal("app filter returned nothing")
	}

	code, body = getRuns(t, h, "?class=cpu")
	if code != 200 {
		t.Fatalf("class filter status = %d", code)
	}
	for _, r := range body["runs"].([]any) {
		if cls := r.(map[string]any)["class"].(string); cls != "cpu" {
			t.Fatalf("class filter leaked %q", cls)
		}
	}

	// Time-window filter: seeds finalize at 1_700_000_000+i seconds.
	code, body = getRuns(t, h, "?since=1700000008")
	if code != 200 {
		t.Fatalf("since filter status = %d", code)
	}
	if n := body["count"].(float64); n != 2 {
		t.Fatalf("since filter count = %v, want 2", n)
	}

	for _, q := range []string{
		"?class=bogus", "?verdict=bogus", "?since=not-a-time",
		"?until=not-a-time", "?cursor=-1", "?limit=0", "?limit=nope",
	} {
		if code, _ := getRuns(t, h, q); code != 400 {
			t.Errorf("GET /v1/runs%s status = %d, want 400", q, code)
		}
	}

	// "unknown" is not a trainable class but is a legal verdict filter.
	if code, _ := getRuns(t, h, "?verdict=unknown"); code != 200 {
		t.Errorf("verdict=unknown status = %d, want 200", code)
	}
}

func TestStatusEndpoint(t *testing.T) {
	s := newTestServer(t, Config{})
	seedRuns(t, s.DB(), 3)
	h := s.Handler()

	req := httptest.NewRequest(http.MethodGet, "/v1/status", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != 200 {
		t.Fatalf("GET /v1/status = %d", w.Code)
	}
	var st map[string]any
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatalf("status JSON: %v", err)
	}
	m := st["metrics"].(map[string]any)
	if m["appclassd_appdb_live_records"].(float64) != 3 {
		t.Fatalf("appclassd_appdb_live_records = %v, want 3", m["appclassd_appdb_live_records"])
	}
	if m["appclassd_appdb_apps"].(float64) != 3 {
		t.Fatalf("appclassd_appdb_apps = %v, want 3", m["appclassd_appdb_apps"])
	}
	if st["durability"].(string) != "none" {
		t.Fatalf("durability = %v, want none", st["durability"])
	}
	if m["appclassd_polls_total"].(float64) != 0 {
		t.Fatalf("appclassd_polls_total = %v, want 0 (push-only)", m["appclassd_polls_total"])
	}
	if _, ok := m["appclassd_appdb_segments"]; ok {
		t.Fatal("status reported store state for a memory-backed DB")
	}
}

func TestStatusEndpointStoreBacked(t *testing.T) {
	db, err := appdb.Open(t.TempDir()+"/store", appstore.Options{})
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	t.Cleanup(func() { db.Close() })
	s := newTestServer(t, Config{DB: db})
	seedRuns(t, db, 4)

	req := httptest.NewRequest(http.MethodGet, "/v1/status", nil)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	var st map[string]any
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatalf("status JSON: %v", err)
	}
	m := st["metrics"].(map[string]any)
	if _, ok := m["appclassd_appdb_segments"]; !ok {
		t.Fatalf("status missing store state: %s", w.Body.String())
	}
	if m["appclassd_appdb_live_records"].(float64) != 4 {
		t.Fatalf("appclassd_appdb_live_records = %v, want 4", m["appclassd_appdb_live_records"])
	}
	if m["appclassd_appdb_segments"].(float64) < 1 {
		t.Fatalf("appclassd_appdb_segments = %v, want >= 1", m["appclassd_appdb_segments"])
	}
}

func TestDashboardAssetsGated(t *testing.T) {
	// Off by default: the asset mount must not exist.
	s := newTestServer(t, Config{})
	req := httptest.NewRequest(http.MethodGet, "/dashboard/", nil)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if w.Code != 404 {
		t.Fatalf("dashboard disabled: GET /dashboard/ = %d, want 404", w.Code)
	}

	s2 := newTestServer(t, Config{Dashboard: true})
	h := s2.Handler()
	// (index.html itself 301s to ./ per http.FileServer convention.)
	for _, path := range []string{"/dashboard/", "/dashboard/app.js", "/dashboard/style.css"} {
		req := httptest.NewRequest(http.MethodGet, path, nil)
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != 200 {
			t.Errorf("GET %s = %d, want 200", path, w.Code)
		}
		if w.Body.Len() == 0 {
			t.Errorf("GET %s returned empty body", path)
		}
	}

	// The index must reference its script and the sessions table the
	// smoke test greps for.
	req = httptest.NewRequest(http.MethodGet, "/dashboard/", nil)
	w = httptest.NewRecorder()
	h.ServeHTTP(w, req)
	page := w.Body.String()
	for _, want := range []string{"app.js", "style.css", `id="sessions"`, `id="runs"`} {
		if !strings.Contains(page, want) {
			t.Errorf("dashboard index missing %q", want)
		}
	}

	// Bare /dashboard redirects into the mount.
	req = httptest.NewRequest(http.MethodGet, "/dashboard", nil)
	w = httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusMovedPermanently && w.Code != http.StatusPermanentRedirect && w.Code != http.StatusFound {
		t.Errorf("GET /dashboard = %d, want redirect", w.Code)
	}
}

func TestFinalizeStampsAndMeasures(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()

	w := postJSON(t, h, "/v1/ingest", map[string]any{
		"snapshots": []any{zeroSnapshot("stamp-vm", 0), zeroSnapshot("stamp-vm", 1)},
	})
	if w.Code != 200 {
		t.Fatalf("ingest = %d: %s", w.Code, w.Body.String())
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/vms/stamp-vm/finish", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != 200 {
		t.Fatalf("finish = %d: %s", rec.Code, rec.Body.String())
	}

	r, err := s.DB().Latest("stamp-vm")
	if err != nil {
		t.Fatalf("latest: %v", err)
	}
	if r.FinalizedAt == 0 {
		t.Fatal("finalized record has no FinalizedAt stamp")
	}
	if got := s.counters.finalizeAppends.Load(); got != 1 {
		t.Fatalf("finalizeAppends = %d, want 1", got)
	}

	// The stamped record must be visible through the query API.
	code, body := getRuns(t, h, "?app=stamp-vm")
	if code != 200 || body["count"].(float64) != 1 {
		t.Fatalf("runs for stamp-vm: code=%d body=%v", code, body)
	}
	row := body["runs"].([]any)[0].(map[string]any)
	if row["finalized_at"].(string) == "" {
		t.Fatal("run row missing finalized_at")
	}
}
