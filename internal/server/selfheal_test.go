package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/appdb"
	"repro/internal/appstore"
	"repro/internal/faultinject"
	"repro/internal/metrics"
	"repro/internal/modelreg"
	"repro/internal/resilience"
	"repro/internal/wal"
)

// doRequest serves one request through the handler and returns the
// recorder.
func doRequest(h http.Handler, req *http.Request) *httptest.ResponseRecorder {
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

// pushSpan ingests trace snapshots [from, to) for vm as batches of up
// to 8, asserting every push answers 200.
func pushSpan(t *testing.T, h http.Handler, vm string, trace *metrics.Trace, from, to int) {
	t.Helper()
	for from < to {
		end := from + 8
		if end > to {
			end = to
		}
		snaps := make([]map[string]any, 0, end-from)
		for i := from; i < end; i++ {
			sn := trace.At(i)
			snaps = append(snaps, map[string]any{
				"vm": vm, "time_s": sn.Time.Seconds(), "values": sn.Values,
			})
		}
		w := postJSON(t, h, "/v1/ingest", map[string]any{"snapshots": snaps})
		if w.Code != http.StatusOK {
			t.Fatalf("push [%d,%d) for %s answered %d: %s", from, end, vm, w.Code, w.Body.String())
		}
		from = end
	}
}

// waitFor polls cond until it holds or the deadline lapses.
func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out after %v waiting for %s", timeout, what)
}

// flipTail XORs a byte near the end of path — inside the last frame's
// payload, so the frame stays walkable but its CRC no longer matches.
func flipTail(t *testing.T, path string) {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() < 16 {
		t.Fatalf("segment %s too small to corrupt (%d bytes)", path, fi.Size())
	}
	if err := faultinject.FlipByte(path, fi.Size()-2, 0x40); err != nil {
		t.Fatal(err)
	}
}

func sortedGlob(t *testing.T, pattern string) []string {
	t.Helper()
	paths, err := filepath.Glob(pattern)
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(paths)
	return paths
}

func countEvents(t *testing.T, db *appdb.DB, typ string) []appdb.Event {
	t.Helper()
	evs, err := db.Events(0)
	if err != nil {
		t.Fatal(err)
	}
	var out []appdb.Event
	for _, e := range evs {
		if e.Type == typ {
			out = append(out, e)
		}
	}
	return out
}

// TestSelfHealingChaos is the PR's acceptance scenario, fully
// deterministic: a compactor that panics repeatedly (supervision
// escalates, readiness degrades, the task heals and readiness
// recovers), latent bit rot in one sealed journal segment and one
// closed application-database segment (the scrubber quarantines and
// repairs both with no live-record loss outside the damaged frames),
// and a bad model push whose open-set unknown rate spikes (probation
// auto-rolls back through the hot-swap path). The daemon answers
// pushes throughout and the finalized record survives untouched.
func TestSelfHealingChaos(t *testing.T) {
	cl := classifier(t)
	trace := profiledTrace(t, "Stream")
	want, err := cl.ClassifyTrace(trace)
	if err != nil {
		t.Fatal(err)
	}

	jdir := t.TempDir()
	j, err := wal.Open(wal.Config{Dir: jdir, Fsync: wal.FsyncNever, SegmentBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() }) // after the server's shutdown cleanup

	dbdir := t.TempDir() + "/store"
	db, err := appdb.Open(dbdir, appstore.Options{SegmentBytes: 256, NoFsync: true})
	if err != nil {
		t.Fatal(err)
	}

	chaos := faultinject.NewTaskChaos()
	s := newTestServer(t, Config{
		Journal:               j,
		DB:                    db,
		StoreMaintEvery:       250 * time.Millisecond,
		ProbationWindow:       time.Hour,
		ProbationMinSnapshots: 20,
		TaskMaxRestarts:       3,
		TaskBackoff:           resilience.Backoff{Base: time.Millisecond, Max: 4 * time.Millisecond},
		TaskIntercept:         chaos.Intercept,
	})
	h := s.Handler()

	// --- Ingest: three short filler sessions (they will populate the
	// closed store segments the bit rot lands in), then the full trace
	// on push-vm, finalized last so its record lives in the newest
	// segment, clear of the damage.
	filler := profiledTrace(t, "XSpim")
	fillerSpan := filler.Len()
	if fillerSpan > 12 {
		fillerSpan = 12
	}
	for i := 0; i < 3; i++ {
		vm := fmt.Sprintf("filler-%d", i)
		pushSpan(t, h, vm, filler, 0, fillerSpan)
		if w := postJSON(t, h, "/v1/vms/"+vm+"/finish", nil); w.Code != http.StatusOK {
			t.Fatalf("finish %s: %d %s", vm, w.Code, w.Body.String())
		}
	}
	pushSpan(t, h, "push-vm", trace, 0, trace.Len())
	wFin := postJSON(t, h, "/v1/vms/push-vm/finish", nil)
	if wFin.Code != http.StatusOK {
		t.Fatalf("finish push-vm: %d %s", wFin.Code, wFin.Body.String())
	}
	var fin finishResponse
	if err := json.Unmarshal(wFin.Body.Bytes(), &fin); err != nil {
		t.Fatal(err)
	}
	liveBefore := db.Store().Len()
	if liveBefore != 4 {
		t.Fatalf("finalized records = %d, want 4", liveBefore)
	}

	// --- Front 1: supervision. Script three consecutive panics into
	// the store-maintenance task; with TaskMaxRestarts=3 the third
	// escalates the task and readiness must report degraded until the
	// restarted task's first successful heartbeat clears it.
	chaos.PanicNext("store-maint", 3)
	s.StartStoreMaint()

	waitFor(t, 10*time.Second, "store-maint escalation to surface in readiness", func() bool {
		_, escalated := s.sup.Unhealthy()
		for _, name := range escalated {
			if name == "store-maint" {
				ready, reason := s.readiness()
				return !ready && strings.Contains(reason, "store-maint")
			}
		}
		return false
	})
	waitFor(t, 10*time.Second, "store-maint to heal and readiness to recover", func() bool {
		wedged, escalated := s.sup.Unhealthy()
		if len(wedged) > 0 || len(escalated) > 0 {
			return false
		}
		ready, _ := s.readiness()
		return ready
	})
	if got := chaos.InjectedPanics("store-maint"); got != 3 {
		t.Errorf("injected panics = %d, want 3", got)
	}
	if got := s.sup.Panics(); got != 3 {
		t.Errorf("supervisor captured %d panics, want 3", got)
	}
	if got := s.sup.Escalations(); got != 1 {
		t.Errorf("escalations = %d, want 1", got)
	}
	var maint *struct {
		restarts int64
		status   string
	}
	for _, ts := range s.sup.Snapshot() {
		if ts.Name == "store-maint" {
			maint = &struct {
				restarts int64
				status   string
			}{ts.Restarts, ts.Status}
		}
	}
	if maint == nil || maint.restarts != 3 || maint.status != "running" {
		t.Errorf("store-maint state = %+v, want 3 restarts and running", maint)
	}
	if evs := countEvents(t, db, "task_escalated"); len(evs) != 1 || evs[0].Detail["task"] != "store-maint" {
		t.Errorf("task_escalated events = %+v, want one for store-maint", evs)
	}

	// --- Front 2: storage scrubbing. Flip one payload byte in the
	// oldest sealed journal segment and the oldest closed store
	// segment, then drive scrub ticks across both stores. Nothing has
	// been checkpointed yet, so the journal repair must checkpoint
	// first (PreRepair), then quarantine and copy the survivors
	// forward.
	jsegs := sortedGlob(t, filepath.Join(jdir, "journal-*.wal"))
	if len(jsegs) < 2 {
		t.Fatalf("want >=2 journal segments, got %d", len(jsegs))
	}
	flipTail(t, jsegs[0])
	ssegs := sortedGlob(t, filepath.Join(dbdir, "store-*.seg"))
	if len(ssegs) < 2 {
		t.Fatalf("want >=2 store segments, got %d", len(ssegs))
	}
	flipTail(t, ssegs[0])

	ticks := len(jsegs) + len(ssegs) + 2
	for i := 0; i < ticks; i++ {
		s.scrubTick()
	}

	js := j.Stats()
	if js.ScrubRepairedSegments != 1 || js.ScrubQuarantined != 1 || js.ScrubLostRecords < 1 {
		t.Errorf("journal scrub stats = repaired %d quarantined %d lost %d, want 1/1/>=1",
			js.ScrubRepairedSegments, js.ScrubQuarantined, js.ScrubLostRecords)
	}
	if _, err := os.Stat(jsegs[0] + ".corrupt"); err != nil {
		t.Errorf("journal quarantine file missing: %v", err)
	}
	ss := db.Store().Stats()
	if ss.ScrubRepairedSegments != 1 || ss.ScrubQuarantined != 1 || ss.ScrubLostRecords != 1 {
		t.Errorf("store scrub stats = repaired %d quarantined %d lost %d, want 1/1/1",
			ss.ScrubRepairedSegments, ss.ScrubQuarantined, ss.ScrubLostRecords)
	}
	if _, err := os.Stat(ssegs[0] + ".corrupt"); err != nil {
		t.Errorf("store quarantine file missing: %v", err)
	}
	// Exactly the one record inside the damaged frame is gone; every
	// other finalized record survived the repair.
	if got := db.Store().Len(); got != liveBefore-1 {
		t.Errorf("live records after scrub = %d, want %d", got, liveBefore-1)
	}
	if evs := countEvents(t, db, "scrub_repair"); len(evs) != 2 {
		t.Errorf("scrub_repair events = %d, want 2 (journal + appdb): %+v", len(evs), evs)
	}

	// --- Front 3: promotion guardrails. Load a model whose open-set
	// slack is collapsed to near zero — it rejects essentially every
	// live snapshot as unknown — and promote it. The displaced model
	// shadow-guards in reverse; the unknown-rate spike must auto-roll
	// the swap back.
	boot := s.active.Load().model
	badParams := boot.Params
	badParams.OpenSetSlack = 0.001
	bad, err := modelreg.NewModel(cl, badParams, "chaos-test", 1)
	if err != nil {
		t.Fatal(err)
	}
	addModel(s, bad)
	if _, err := s.Promote(bad.ID); err != nil {
		t.Fatalf("promote bad model: %v", err)
	}
	pb := s.probation.Load()
	if pb == nil || pb.newID != bad.ID || pb.prevID != boot.ID {
		t.Fatalf("probation not armed after promote: %+v", pb)
	}

	// While the bad model is on probation the guard cannot be deleted
	// out from under it.
	req, _ := http.NewRequest(http.MethodDelete, "/v1/models/"+boot.ID, nil)
	if w := doRequest(h, req); w.Code != http.StatusConflict {
		t.Errorf("deleting the probation guard answered %d, want 409", w.Code)
	}

	probeSpan := trace.Len()
	if probeSpan > 40 {
		probeSpan = 40
	}
	pushSpan(t, h, "probe-vm", trace, 0, probeSpan)
	view := s.probation.Load().eval.view()
	if view.Snapshots < 20 {
		t.Fatalf("probation observed %d snapshots, want >=20", view.Snapshots)
	}
	if view.UnknownRateActive < 3*view.UnknownRateCandidate+0.05 {
		t.Fatalf("bad model unknown rate %.3f vs guard %.3f — scenario did not produce a spike",
			view.UnknownRateActive, view.UnknownRateCandidate)
	}
	s.checkProbation()

	if got := s.active.Load().model.ID; got != boot.ID {
		t.Fatalf("active model after breach = %s, want rollback to %s", got, boot.ID)
	}
	if got := s.counters.modelRollbacks.Load(); got != 1 {
		t.Errorf("model rollbacks = %d, want 1", got)
	}
	if s.probation.Load() != nil {
		t.Error("probation still armed after rollback")
	}
	evs := countEvents(t, db, "model_rollback")
	if len(evs) != 1 || evs[0].Detail["from"] != bad.ID || evs[0].Detail["to"] != boot.ID {
		t.Errorf("model_rollback events = %+v, want one from %s to %s", evs, bad.ID, boot.ID)
	}

	// --- End state: the daemon is live and the finalized record
	// matches both its at-finish composition and the fault-free batch
	// classifier, untouched by scrub repairs and the bad-model window.
	rec, err := db.Latest("push-vm")
	if err != nil {
		t.Fatalf("push-vm record lost: %v", err)
	}
	if string(rec.Class) != fin.Class || rec.Class != want.Class {
		t.Errorf("push-vm class = %s, finish said %s, batch classifier %s", rec.Class, fin.Class, want.Class)
	}
	for class, frac := range fin.Composition {
		if got := rec.Composition[class]; got != frac {
			t.Errorf("composition[%s] = %g, was %g at finish time", class, got, frac)
		}
	}

	readyReq, _ := http.NewRequest(http.MethodGet, "/readyz", nil)
	if w := doRequest(h, readyReq); w.Code != http.StatusOK {
		t.Errorf("/readyz after recovery = %d: %s", w.Code, w.Body.String())
	}
	metricsReq, _ := http.NewRequest(http.MethodGet, "/metricsz", nil)
	body := doRequest(h, metricsReq).Body.String()
	for _, line := range []string{
		"appclassd_model_rollbacks_total 1",
		`appclassd_task_restarts_total{task="store-maint"} 3`,
		"appclassd_task_escalations_total 1",
		"appclassd_journal_scrub_repaired_segments_total 1",
		"appclassd_appdb_scrub_repaired_segments_total 1",
	} {
		if !strings.Contains(body, line) {
			t.Errorf("metricsz missing %q", line)
		}
	}
}

// TestProbationPassesQuietly covers the happy half of guarded
// promotion: a healthy model rides out its window without a breach,
// graduates, and frees its guard for deletion.
func TestProbationPassesQuietly(t *testing.T) {
	cl := classifier(t)
	clk := &fakeClock{t: time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC)}
	db, err := appdb.Open(t.TempDir()+"/store", appstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{
		Now:                   clk.now,
		DB:                    db,
		ProbationWindow:       time.Minute,
		ProbationMinSnapshots: 10,
	})
	h := s.Handler()

	boot := s.active.Load().model
	goodParams := boot.Params
	goodParams.OpenSetQuantile = 0.98 // same behavior, different identity
	good, err := modelreg.NewModel(cl, goodParams, "test", 1)
	if err != nil {
		t.Fatal(err)
	}
	addModel(s, good)
	if _, err := s.Promote(good.ID); err != nil {
		t.Fatal(err)
	}
	if s.probation.Load() == nil {
		t.Fatal("probation not armed")
	}

	// Traffic both models agree on: no breach, window expires, pass.
	pushSpan(t, h, "agree-vm", profiledTrace(t, "Stream"), 0, 24)
	s.checkProbation()
	if s.probation.Load() == nil {
		t.Fatal("probation cleared before its deadline")
	}
	clk.advance(2 * time.Minute)
	s.checkProbation()
	if s.probation.Load() != nil {
		t.Error("probation still armed after its window passed")
	}
	if got := s.counters.probationPasses.Load(); got != 1 {
		t.Errorf("probation passes = %d, want 1", got)
	}
	if got := s.counters.modelRollbacks.Load(); got != 0 {
		t.Errorf("model rollbacks = %d, want 0", got)
	}
	if got := s.active.Load().model.ID; got != good.ID {
		t.Errorf("active model = %s, want %s", got, good.ID)
	}
	if evs := countEvents(t, db, "model_probation_passed"); len(evs) != 1 {
		t.Errorf("model_probation_passed events = %+v, want one", evs)
	}

	// The graduate released its guard: deletion now succeeds.
	req, _ := http.NewRequest(http.MethodDelete, "/v1/models/"+boot.ID, nil)
	if w := doRequest(h, req); w.Code != http.StatusOK {
		t.Errorf("deleting the retired guard after the pass = %d, want 200", w.Code)
	}
}
