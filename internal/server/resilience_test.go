package server

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/wal"
)

func TestAdmissionBudget(t *testing.T) {
	a := admission{maxBytes: 100, maxRequests: 2}
	if !a.tryAdmit(60) {
		t.Fatal("first 60-byte request refused under an empty budget")
	}
	if a.tryAdmit(50) {
		t.Fatal("110 in-flight bytes admitted over a 100-byte budget")
	}
	if !a.tryAdmit(40) {
		t.Fatal("second request refused with budget to spare")
	}
	if a.tryAdmit(0) {
		t.Fatal("third request admitted over a 2-request budget")
	}
	a.release(60)
	if !a.tryAdmit(10) {
		t.Fatal("request refused after a release freed the budget")
	}
	b, r := a.inflight()
	if b != 50 || r != 2 {
		t.Errorf("inflight = %d bytes, %d requests; want 50 and 2", b, r)
	}
	a.release(40)
	a.release(10)
	b, r = a.inflight()
	if b != 0 || r != 0 {
		t.Errorf("inflight after all releases = %d bytes, %d requests; want 0 and 0", b, r)
	}

	// Failed admissions must not leak reservations.
	var leak admission
	leak.maxBytes, leak.maxRequests = 10, 10
	for i := 0; i < 100; i++ {
		leak.tryAdmit(1000)
	}
	if b, r := leak.inflight(); b != 0 || r != 0 {
		t.Errorf("rejected admissions leaked %d bytes, %d requests", b, r)
	}

	// Zero limits disable the corresponding budget.
	var open admission
	if !open.tryAdmit(1 << 40) {
		t.Error("unlimited admission refused a request")
	}
}

func TestIngestShedsOverBudget(t *testing.T) {
	s := newTestServer(t, Config{MaxInflightBytes: 1})
	h := s.Handler()
	w := postJSON(t, h, "/v1/ingest", map[string]any{
		"snapshots": []map[string]any{zeroSnapshot("vm-shed", 0)},
	})
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("over-budget ingest = %d, want 429", w.Code)
	}
	if got := w.Header().Get("Retry-After"); got == "" {
		t.Error("shed response has no Retry-After header")
	}
	if got := s.counters.shedRequests.Load(); got != 1 {
		t.Errorf("shedRequests = %d, want 1", got)
	}
	if got := s.Sessions(); got != 0 {
		t.Errorf("shed request created %d sessions", got)
	}
	// Nothing stays reserved after the shed.
	if b, r := s.admit.inflight(); b != 0 || r != 0 {
		t.Errorf("inflight after shed = %d bytes, %d requests; want 0 and 0", b, r)
	}
}

func TestIngestDeadlineShedsBetweenGroups(t *testing.T) {
	clock := time.Unix(1_700_000_000, 0)
	s := newTestServer(t, Config{
		IngestTimeout: 500 * time.Millisecond,
		Now: func() time.Time {
			// Every observation of the clock advances it a full second, so
			// the deadline computed on entry has always passed by the first
			// between-groups check.
			clock = clock.Add(time.Second)
			return clock
		},
	})
	w := postJSON(t, s.Handler(), "/v1/ingest", map[string]any{
		"snapshots": []map[string]any{zeroSnapshot("vm-slow", 0)},
	})
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("expired ingest deadline = %d, want 503", w.Code)
	}
	if got := s.counters.deadlineExceeded.Load(); got != 1 {
		t.Errorf("deadlineExceeded = %d, want 1", got)
	}
}

func TestReadyzWithoutJournal(t *testing.T) {
	s := newTestServer(t, Config{})
	req := httptest.NewRequest(http.MethodGet, "/readyz", nil)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Errorf("readyz without a journal = %d, want 200", w.Code)
	}
}

// TestDegradedDurabilityLifecycle drives the full degraded-mode arc:
// a journal fault flips the daemon into memory-only ingest (no 5xx to
// clients), /readyz goes 503 while /healthz stays 200, and once the
// fault heals a rate-limited probe re-arms the journal and readiness
// returns.
func TestDegradedDurabilityLifecycle(t *testing.T) {
	fs := faultinject.NewFS()
	clock := time.Unix(1_700_000_000, 0)
	now := func() time.Time { return clock }
	j, err := wal.Open(wal.Config{
		Dir:             t.TempDir(),
		Fsync:           wal.FsyncNever,
		Now:             now,
		OpenSegmentFile: fs.OpenSegmentFile,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Registered before newTestServer's shutdown cleanup, so LIFO order
	// closes the journal only after the server has flushed sessions.
	t.Cleanup(func() { j.Close() })
	s := newTestServer(t, Config{
		Journal:            j,
		DegradeOnWALError:  true,
		DegradedProbeEvery: 5 * time.Second,
		Now:                now,
	})
	h := s.Handler()
	ingest := func(vm string, at float64) int {
		t.Helper()
		w := postJSON(t, h, "/v1/ingest", map[string]any{
			"snapshots": []map[string]any{zeroSnapshot(vm, at)},
		})
		return w.Code
	}

	if code := ingest("vm-a", 0); code != http.StatusOK {
		t.Fatalf("healthy ingest = %d, want 200", code)
	}
	if s.DurabilityDegraded() {
		t.Fatal("daemon degraded before any fault")
	}

	// The disk fills: ingest must keep succeeding, memory-only.
	fs.FailWrites(syscall.ENOSPC)
	fs.FailOpens(syscall.ENOSPC)
	clock = clock.Add(time.Second)
	if code := ingest("vm-a", 5); code != http.StatusOK {
		t.Fatalf("ingest during WAL fault = %d, want 200 (degraded, not failing)", code)
	}
	if !s.DurabilityDegraded() {
		t.Fatal("journal fault did not enter degraded mode")
	}
	if got := s.counters.degradedEntries.Load(); got != 1 {
		t.Errorf("degradedEntries = %d, want 1", got)
	}

	// Liveness vs readiness split.
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if w.Code != http.StatusOK {
		t.Errorf("healthz while degraded = %d, want 200 (liveness)", w.Code)
	}
	if !strings.Contains(w.Body.String(), `"degraded"`) {
		t.Errorf("healthz body does not report degraded durability: %s", w.Body.String())
	}
	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if w.Code != http.StatusServiceUnavailable {
		t.Errorf("readyz while degraded = %d, want 503", w.Code)
	}
	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/metricsz", nil))
	if !strings.Contains(w.Body.String(), "appclassd_durability_degraded 1") {
		t.Error("metricsz does not show appclassd_durability_degraded 1")
	}

	// More ingest while degraded: still 200, and no probe until the
	// rate limit elapses.
	clock = clock.Add(time.Second)
	if code := ingest("vm-a", 10); code != http.StatusOK {
		t.Fatalf("second degraded ingest = %d, want 200", code)
	}

	// The fault heals; after DegradedProbeEvery the next batch probes,
	// revives the journal, and restores readiness.
	fs.FailWrites(nil)
	fs.FailOpens(nil)
	clock = clock.Add(6 * time.Second)
	if code := ingest("vm-a", 15); code != http.StatusOK {
		t.Fatalf("probing ingest = %d, want 200", code)
	}
	if s.DurabilityDegraded() {
		t.Fatal("daemon still degraded after the journal healed and a probe ran")
	}
	if got := s.counters.degradedExits.Load(); got != 1 {
		t.Errorf("degradedExits = %d, want 1", got)
	}
	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if w.Code != http.StatusOK {
		t.Errorf("readyz after recovery = %d, want 200", w.Code)
	}
	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/metricsz", nil))
	body := w.Body.String()
	if !strings.Contains(body, "appclassd_durability_degraded 0") {
		t.Error("metricsz does not show appclassd_durability_degraded 0 after recovery")
	}
	if !strings.Contains(body, "appclassd_durability_degraded_entries_total 1") ||
		!strings.Contains(body, "appclassd_durability_degraded_exits_total 1") {
		t.Errorf("metricsz missing degraded entry/exit counters:\n%s", body)
	}
}

// TestJournalErrorWithoutDegradeStillFails pins the default contract:
// without DegradeOnWALError, a journal fault rejects the batch so no
// acknowledged state can outrun the journal.
func TestJournalErrorWithoutDegradeStillFails(t *testing.T) {
	fs := faultinject.NewFS()
	j, err := wal.Open(wal.Config{
		Dir:             t.TempDir(),
		Fsync:           wal.FsyncNever,
		OpenSegmentFile: fs.OpenSegmentFile,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	s := newTestServer(t, Config{Journal: j})
	fs.FailWrites(syscall.ENOSPC)
	fs.FailOpens(syscall.ENOSPC)
	w := postJSON(t, s.Handler(), "/v1/ingest", map[string]any{
		"snapshots": []map[string]any{zeroSnapshot("vm-a", 0)},
	})
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("journal fault without degrade = %d, want 500", w.Code)
	}
	if s.DurabilityDegraded() {
		t.Error("degraded mode entered without DegradeOnWALError")
	}
	// The rejected batch must not have been classified: no acknowledged
	// state outruns the journal.
	if sess, ok := s.reg.get("vm-a"); ok {
		sess.mu.Lock()
		seen := sess.online.Seen()
		sess.mu.Unlock()
		if seen != 0 {
			t.Errorf("rejected batch recorded %d snapshots", seen)
		}
	}
	// Heal before cleanup so shutdown can finalize cleanly.
	fs.FailWrites(nil)
	fs.FailOpens(nil)
	if err := j.Revive(); err != nil {
		t.Fatalf("revive for cleanup: %v", err)
	}
}

// TestOverlongVMNameIsClientError: a JSON VM name the journal cannot
// hold is rejected with 400 before anything is applied, so it can
// neither fail the journal nor, under DegradeOnWALError, degrade the
// daemon.
func TestOverlongVMNameIsClientError(t *testing.T) {
	j, err := wal.Open(wal.Config{Dir: t.TempDir(), Fsync: wal.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	s := newTestServer(t, Config{Journal: j, DegradeOnWALError: true})
	h := s.Handler()
	w := postJSON(t, h, "/v1/ingest", map[string]any{
		"snapshots": []map[string]any{zeroSnapshot(strings.Repeat("v", 2000), 0)},
	})
	if w.Code != http.StatusBadRequest {
		t.Fatalf("2000-byte vm name = %d, want 400: %s", w.Code, w.Body.String())
	}
	if n := s.counters.journalErrors.Load(); n != 0 {
		t.Errorf("journalErrors = %d, want 0", n)
	}
	if n := s.Sessions(); n != 0 {
		t.Errorf("rejected batch created %d sessions", n)
	}
	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if w.Code != http.StatusOK {
		t.Errorf("readyz after a rejected name = %d, want 200", w.Code)
	}
}

func TestResilienceMetricsExposition(t *testing.T) {
	s := newTestServer(t, Config{})
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/metricsz", nil))
	body := w.Body.String()
	for _, metric := range []string{
		"appclassd_poll_breaker_skipped_total",
		"appclassd_poll_breaker_opens_total",
		"appclassd_poll_breaker_state",
		"appclassd_poll_last_success_seconds",
		"appclassd_ingest_shed_total",
		"appclassd_ingest_deadline_exceeded_total",
		"appclassd_ingest_inflight_bytes",
		"appclassd_ingest_inflight_requests",
		"appclassd_sample_gaps_total",
		"appclassd_sample_gap_seconds_total",
	} {
		if !strings.Contains(body, metric) {
			t.Errorf("metricsz missing %s", metric)
		}
	}
}
