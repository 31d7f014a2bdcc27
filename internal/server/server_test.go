package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/appclass"
	"repro/internal/appdb"
	"repro/internal/appstore"
	"repro/internal/classify"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/testbed"
	"repro/internal/workload"
)

// trainedClassifier trains the classification center once for the whole
// package; training profiles five applications on the simulated testbed
// and is by far the slowest step.
var (
	trainOnce      sync.Once
	trainedService *core.Service
	trainErr       error
)

func classifier(t *testing.T) *classify.Classifier {
	t.Helper()
	trainOnce.Do(func() {
		trainedService, trainErr = core.NewService(core.Options{Seed: 1})
	})
	if trainErr != nil {
		t.Fatalf("train: %v", trainErr)
	}
	return trainedService.Classifier()
}

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Classifier == nil {
		cfg.Classifier = classifier(t)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return s
}

func zeroSnapshot(vm string, at float64) map[string]any {
	return map[string]any{
		"vm":     vm,
		"time_s": at,
		"values": make([]float64, metrics.DefaultSchema().Len()),
	}
}

func postJSON(t *testing.T, h http.Handler, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(b))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func TestHandlerStatusCodes(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()

	// errs is how much the request moves appclassd_ingest_errors_total:
	// every rejected ingest batch counts once.
	tests := []struct {
		name   string
		method string
		path   string
		body   string
		want   int
		errs   int64
	}{
		{"ingest happy path", "POST", "/v1/ingest",
			mustJSON(map[string]any{"snapshots": []any{zeroSnapshot("vm-ok", 0)}}), 200, 0},
		{"malformed body", "POST", "/v1/ingest", "{not json", 400, 1},
		{"empty batch", "POST", "/v1/ingest", `{"snapshots":[]}`, 400, 1},
		{"missing vm name", "POST", "/v1/ingest",
			mustJSON(map[string]any{"snapshots": []any{map[string]any{"time_s": 0, "values": []float64{1}}}}), 400, 1},
		{"wrong value count", "POST", "/v1/ingest",
			mustJSON(map[string]any{"snapshots": []any{map[string]any{"vm": "v", "values": []float64{1, 2}}}}), 400, 1},
		{"neither values nor metrics", "POST", "/v1/ingest",
			mustJSON(map[string]any{"snapshots": []any{map[string]any{"vm": "v"}}}), 400, 1},
		{"unknown metric name", "POST", "/v1/ingest",
			mustJSON(map[string]any{"snapshots": []any{map[string]any{"vm": "v", "metrics": map[string]float64{"bogus": 1}}}}), 400, 1},
		{"vm name over the wire limit", "POST", "/v1/ingest",
			mustJSON(map[string]any{"snapshots": []any{zeroSnapshot(strings.Repeat("v", 2000), 0)}}), 400, 1},
		{"time beyond int64 nanoseconds", "POST", "/v1/ingest",
			mustJSON(map[string]any{"snapshots": []any{zeroSnapshot("v", 1e12)}}), 400, 1},
		{"unknown vm", "GET", "/v1/vms/nope", "", 404, 0},
		{"finish unknown vm", "POST", "/v1/vms/nope/finish", "", 404, 0},
		{"method not allowed on ingest", "GET", "/v1/ingest", "", 405, 0},
		{"method not allowed on vms", "POST", "/v1/vms", "", 405, 0},
		{"method not allowed on finish", "GET", "/v1/vms/x/finish", "", 405, 0},
		{"vms list", "GET", "/v1/vms", "", 200, 0},
		{"classes", "GET", "/v1/classes", "", 200, 0},
		{"healthz", "GET", "/healthz", "", 200, 0},
		{"metricsz", "GET", "/metricsz", "", 200, 0},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			before := s.counters.ingestErrors.Load()
			req := httptest.NewRequest(tc.method, tc.path, strings.NewReader(tc.body))
			w := httptest.NewRecorder()
			h.ServeHTTP(w, req)
			if w.Code != tc.want {
				t.Errorf("%s %s = %d, want %d (body %s)", tc.method, tc.path, w.Code, tc.want, w.Body.String())
			}
			if d := s.counters.ingestErrors.Load() - before; d != tc.errs {
				t.Errorf("%s %s moved ingest errors by %d, want %d", tc.method, tc.path, d, tc.errs)
			}
		})
	}
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return string(b)
}

// TestIngestBatchIsAtomic verifies a batch with one invalid snapshot
// applies nothing.
func TestIngestBatchIsAtomic(t *testing.T) {
	s := newTestServer(t, Config{})
	body := map[string]any{"snapshots": []any{
		zeroSnapshot("vm-atomic", 0),
		map[string]any{"vm": "vm-atomic", "values": []float64{1, 2, 3}},
	}}
	w := postJSON(t, s.Handler(), "/v1/ingest", body)
	if w.Code != 400 {
		t.Fatalf("mixed batch = %d, want 400", w.Code)
	}
	if _, ok := s.reg.get("vm-atomic"); ok {
		t.Error("invalid batch still created a session")
	}
}

// TestMetricsMapModeMatchesValuesMode ingests the same snapshot via the
// ordered-array and named-map encodings and expects identical classes.
func TestMetricsMapModeMatchesValuesMode(t *testing.T) {
	s := newTestServer(t, Config{})
	trace := profiledTrace(t, "XSpim")
	snap := trace.At(trace.Len() / 2)
	names := trace.Schema().Names()
	byName := make(map[string]float64, len(names))
	for j, n := range names {
		byName[n] = snap.Values[j]
	}
	w := postJSON(t, s.Handler(), "/v1/ingest", map[string]any{"snapshots": []any{
		map[string]any{"vm": "by-values", "time_s": 1, "values": snap.Values},
		map[string]any{"vm": "by-name", "time_s": 1, "metrics": byName},
	}})
	if w.Code != 200 {
		t.Fatalf("ingest = %d: %s", w.Code, w.Body.String())
	}
	var resp ingestResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Accepted != 2 || len(resp.Results) != 2 {
		t.Fatalf("accepted %d results %d", resp.Accepted, len(resp.Results))
	}
	if resp.Results[0].Class != resp.Results[1].Class {
		t.Errorf("values-mode class %q != metrics-mode class %q", resp.Results[0].Class, resp.Results[1].Class)
	}
}

var (
	traceCache = map[string]*metrics.Trace{}
	traceMu    sync.Mutex
)

func profiledTrace(t *testing.T, app string) *metrics.Trace {
	t.Helper()
	traceMu.Lock()
	defer traceMu.Unlock()
	if tr, ok := traceCache[app]; ok {
		return tr
	}
	entry, err := workload.Find(app)
	if err != nil {
		t.Fatal(err)
	}
	res, err := testbed.ProfileEntry(entry, 7)
	if err != nil {
		t.Fatalf("profile %s: %v", app, err)
	}
	traceCache[app] = res.Trace
	return res.Trace
}

// TestServerMatchesBatchClassifier is the acceptance path: a profiled
// trace replayed over the HTTP push API must end with the same class
// and composition as the one-shot batch classifier, and finishing the
// session must land that record in the application database.
func TestServerMatchesBatchClassifier(t *testing.T) {
	cl := classifier(t)
	trace := profiledTrace(t, "Stream")
	want, err := cl.ClassifyTrace(trace)
	if err != nil {
		t.Fatalf("batch classify: %v", err)
	}

	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	vm := "stream-vm"
	const batchSize = 25
	for start := 0; start < trace.Len(); start += batchSize {
		end := start + batchSize
		if end > trace.Len() {
			end = trace.Len()
		}
		var snaps []any
		for i := start; i < end; i++ {
			sn := trace.At(i)
			snaps = append(snaps, map[string]any{"vm": vm, "time_s": sn.Time.Seconds(), "values": sn.Values})
		}
		b, _ := json.Marshal(map[string]any{"snapshots": snaps})
		resp, err := http.Post(ts.URL+"/v1/ingest", "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != 200 {
			t.Fatalf("ingest batch at %d: status %d", start, resp.StatusCode)
		}
		resp.Body.Close()
	}

	// Query the live session and compare against the batch result.
	resp, err := http.Get(ts.URL + "/v1/vms/" + vm)
	if err != nil {
		t.Fatal(err)
	}
	var detail struct {
		Class       string             `json:"class"`
		Snapshots   int                `json:"snapshots"`
		Composition map[string]float64 `json:"composition"`
		Stages      []stageJSON        `json:"stages"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&detail); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if detail.Class != string(want.Class) {
		t.Errorf("daemon class %q, batch class %q", detail.Class, want.Class)
	}
	if detail.Snapshots != trace.Len() {
		t.Errorf("daemon saw %d snapshots, trace has %d", detail.Snapshots, trace.Len())
	}
	for c, f := range want.Composition {
		if got := detail.Composition[string(c)]; math.Abs(got-f) > 1e-9 {
			t.Errorf("composition[%s] = %v, batch %v", c, got, f)
		}
	}
	if len(detail.Stages) == 0 {
		t.Error("no stage history reported")
	}

	// Finish the session: the record must reach the database with the
	// same class and the session must disappear.
	resp, err = http.Post(ts.URL+"/v1/vms/"+vm+"/finish", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var fin finishResponse
	if err := json.NewDecoder(resp.Body).Decode(&fin); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if fin.Class != string(want.Class) || fin.Samples != trace.Len() {
		t.Errorf("finish record class %q samples %d, want %q %d", fin.Class, fin.Samples, want.Class, trace.Len())
	}
	rec, err := s.DB().Latest(vm)
	if err != nil {
		t.Fatalf("db record: %v", err)
	}
	if rec.Class != want.Class {
		t.Errorf("db class %q, want %q", rec.Class, want.Class)
	}
	if s.Sessions() != 0 {
		t.Errorf("%d sessions live after finish", s.Sessions())
	}
	resp, err = http.Get(ts.URL + "/v1/vms/" + vm)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Errorf("finished vm still served: %d", resp.StatusCode)
	}
}

// TestConcurrentIngest hammers the daemon from 50 goroutines with
// overlapping VM names; run under -race this exercises the striped
// registry and per-session locking.
func TestConcurrentIngest(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const (
		goroutines = 50
		perG       = 8
		vmPool     = 10
	)
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			vm := fmt.Sprintf("vm-%d", g%vmPool)
			for i := 0; i < perG; i++ {
				b, _ := json.Marshal(map[string]any{"snapshots": []any{zeroSnapshot(vm, float64(g*perG+i))}})
				resp, err := http.Post(ts.URL+"/v1/ingest", "application/json", bytes.NewReader(b))
				if err != nil {
					errc <- err
					return
				}
				if resp.StatusCode != 200 {
					errc <- fmt.Errorf("vm %s: status %d", vm, resp.StatusCode)
					resp.Body.Close()
					return
				}
				resp.Body.Close()
				// Interleave reads with writes.
				if i%3 == 0 {
					r, err := http.Get(ts.URL + "/v1/vms/" + vm)
					if err != nil {
						errc <- err
						return
					}
					r.Body.Close()
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	if got := s.counters.ingested.Load(); got != goroutines*perG {
		t.Errorf("ingested %d snapshots, want %d", got, goroutines*perG)
	}
	if got := s.Sessions(); got != vmPool {
		t.Errorf("%d sessions, want %d", got, vmPool)
	}
	total := 0
	for _, sess := range s.reg.all() {
		sess.mu.Lock()
		total += sess.online.Seen()
		sess.mu.Unlock()
	}
	if total != goroutines*perG {
		t.Errorf("sessions hold %d snapshots, want %d", total, goroutines*perG)
	}
}

// fakeClock is a mutable wall clock for eviction tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func TestIdleEvictionFinalizesToDB(t *testing.T) {
	clk := &fakeClock{t: time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC)}
	s := newTestServer(t, Config{IdleTTL: time.Minute, Now: clk.now})

	w := postJSON(t, s.Handler(), "/v1/ingest", map[string]any{"snapshots": []any{
		zeroSnapshot("old-vm", 0), zeroSnapshot("old-vm", 5),
	}})
	if w.Code != 200 {
		t.Fatalf("ingest: %d %s", w.Code, w.Body.String())
	}
	clk.advance(30 * time.Second)
	w = postJSON(t, s.Handler(), "/v1/ingest", map[string]any{"snapshots": []any{zeroSnapshot("fresh-vm", 0)}})
	if w.Code != 200 {
		t.Fatalf("ingest: %d", w.Code)
	}

	// 31s later old-vm is 61s idle (past TTL), fresh-vm 31s (within).
	clk.advance(31 * time.Second)
	if n := s.EvictIdle(); n != 1 {
		t.Fatalf("evicted %d sessions, want 1", n)
	}
	if _, ok := s.reg.get("old-vm"); ok {
		t.Error("old-vm still live after eviction")
	}
	if _, ok := s.reg.get("fresh-vm"); !ok {
		t.Error("fresh-vm was evicted early")
	}
	rec, err := s.DB().Latest("old-vm")
	if err != nil {
		t.Fatalf("evicted session not in db: %v", err)
	}
	if rec.Samples != 2 || rec.ExecutionTime != 5*time.Second {
		t.Errorf("record samples=%d exec=%v, want 2, 5s", rec.Samples, rec.ExecutionTime)
	}
	if s.counters.evictions.Load() != 1 {
		t.Errorf("evictions counter = %d", s.counters.evictions.Load())
	}
}

// TestFinishRepliesWithTheStoredRecord: a finish answers from the
// record it stored and reads no stored body to do so; a finish whose
// record was not stored answers 500, never with the application's
// previous record.
func TestFinishRepliesWithTheStoredRecord(t *testing.T) {
	db, err := appdb.Open(filepath.Join(t.TempDir(), "store"), appstore.Options{NoFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	s := newTestServer(t, Config{DB: db})
	h := s.Handler()

	pushSpan(t, h, "a", profiledTrace(t, "PostMark"), 0, 30)
	w := postJSON(t, h, "/v1/vms/a/finish", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("first finish: %d %s", w.Code, w.Body.String())
	}
	var fin finishResponse
	decodeJSON(t, w, &fin)
	stored, err := db.Latest("a")
	if err != nil {
		t.Fatal(err)
	}
	if fin.Samples != 30 || fin.Class != string(stored.Class) || fin.HistoricalRuns != 1 ||
		fin.ExecutionSecs != stored.ExecutionTime.Seconds() || fin.Verdict != string(stored.Verdict) ||
		fin.Phases != len(stored.Phases) || !reflect.DeepEqual(fin.Composition, stored.Composition) {
		t.Fatalf("finish reply %+v does not match the stored record %+v", fin, stored)
	}
	if st, _ := db.StoreStats(); st.RecordReads != 1 {
		t.Fatalf("record bodies read = %d, want 1 (the check above; the finish reads none)", st.RecordReads)
	}

	pushSpan(t, h, "a", profiledTrace(t, "SPECseis96_C"), 0, 7)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	w = postJSON(t, h, "/v1/vms/a/finish", nil)
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("finish with the store closed: %d %s, want 500", w.Code, w.Body.String())
	}
	if n := s.counters.finalizeErrors.Load(); n != 1 {
		t.Fatalf("finalize errors = %d, want 1", n)
	}
}

func TestShutdownFlushesAllSessions(t *testing.T) {
	s, err := New(Config{Classifier: classifier(t)})
	if err != nil {
		t.Fatal(err)
	}
	for _, vm := range []string{"a", "b", "c"} {
		w := postJSON(t, s.Handler(), "/v1/ingest", map[string]any{"snapshots": []any{zeroSnapshot(vm, 0)}})
		if w.Code != 200 {
			t.Fatalf("ingest %s: %d", vm, w.Code)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if s.Sessions() != 0 {
		t.Errorf("%d sessions live after shutdown", s.Sessions())
	}
	if got := s.DB().Len(); got != 3 {
		t.Errorf("db has %d records after flush, want 3", got)
	}
	// Idempotent.
	if err := s.Shutdown(ctx); err != nil {
		t.Errorf("second shutdown: %v", err)
	}
}

func TestMetricszExposesCounters(t *testing.T) {
	s := newTestServer(t, Config{})
	w := postJSON(t, s.Handler(), "/v1/ingest", map[string]any{"snapshots": []any{zeroSnapshot("m-vm", 0)}})
	if w.Code != 200 {
		t.Fatalf("ingest: %d", w.Code)
	}
	req := httptest.NewRequest(http.MethodGet, "/metricsz", nil)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	body := rec.Body.String()
	for _, want := range []string{
		"appclassd_snapshots_ingested_total 1",
		"appclassd_sessions_active 1",
		`appclassd_shard_sessions{shard="0"}`,
		"appclassd_classifications_total{class=",
		"appclassd_uptime_seconds",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metricsz missing %q", want)
		}
	}
	if got := rec.Header().Get("Content-Type"); !strings.HasPrefix(got, "text/plain") {
		t.Errorf("metricsz content type %q", got)
	}
}

func TestClassesEndpointCountsLiveVMs(t *testing.T) {
	s := newTestServer(t, Config{})
	for i := 0; i < 3; i++ {
		w := postJSON(t, s.Handler(), "/v1/ingest", map[string]any{"snapshots": []any{
			zeroSnapshot(fmt.Sprintf("cls-vm-%d", i), 0),
		}})
		if w.Code != 200 {
			t.Fatalf("ingest: %d", w.Code)
		}
	}
	req := httptest.NewRequest(http.MethodGet, "/v1/classes", nil)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	var out struct {
		VMs     int            `json:"vms"`
		Classes map[string]int `json:"classes"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out.VMs != 3 {
		t.Errorf("classes reports %d vms, want 3", out.VMs)
	}
	total := 0
	for c, n := range out.Classes {
		if _, err := appclass.Parse(c); err != nil {
			t.Errorf("unknown class %q in /v1/classes", c)
		}
		total += n
	}
	if total != 3 {
		t.Errorf("class counts sum to %d, want 3", total)
	}
}

func TestNewRejectsNilClassifier(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("nil classifier: want error")
	}
}
