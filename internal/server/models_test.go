package server

import (
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/appclass"
	"repro/internal/appdb"
	"repro/internal/classify"
	"repro/internal/metrics"
	"repro/internal/modelreg"
	"repro/internal/wal"
)

// sigValues is the expert-metric signature fixture the classify package
// trains its synthetic tests on: {cpu_system, cpu_user, bytes_in,
// bytes_out, io_bi, io_bo, swap_in, swap_out}.
func sigValues(c appclass.Class) []float64 {
	switch c {
	case appclass.CPU:
		return []float64{3, 95, 500, 500, 5, 5, 0, 0}
	case appclass.IO:
		return []float64{12, 8, 500, 500, 3000, 3000, 0, 0}
	case appclass.Net:
		return []float64{10, 8, 4e5, 8e6, 5, 5, 0, 0}
	case appclass.Mem:
		return []float64{5, 20, 500, 500, 5500, 5500, 5000, 5000}
	default: // idle
		return []float64{0.3, 0.5, 300, 300, 2, 2, 0, 0}
	}
}

// sigTrace builds an ExpertSchema trace of n noisy snapshots around a
// class signature.
func sigTrace(t *testing.T, c appclass.Class, n int, seed int64) *metrics.Trace {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	tr := metrics.NewTrace(metrics.ExpertSchema(), "vm1")
	sig := sigValues(c)
	for i := 0; i < n; i++ {
		vals := make([]float64, len(sig))
		for j, v := range sig {
			vals[j] = v * (1 + 0.15*rng.NormFloat64())
			if vals[j] < 0 {
				vals[j] = 0
			}
		}
		if err := tr.Append(metrics.Snapshot{
			Time: time.Duration(i*5) * time.Second, Node: "vm1", Values: vals,
		}); err != nil {
			t.Fatal(err)
		}
	}
	return tr
}

// altClassifier trains a second model over the identical expert-metric
// list from synthetic traces — cheap, deterministic, and guaranteed to
// vote differently than the testbed-trained package classifier often
// enough for shadow statistics to be nontrivial.
var (
	altOnce sync.Once
	altCl   *classify.Classifier
	altErr  error
)

func altClassifier(t *testing.T) *classify.Classifier {
	t.Helper()
	altOnce.Do(func() {
		var runs []classify.TrainingRun
		for i, c := range appclass.All() {
			runs = append(runs, classify.TrainingRun{Class: c, Trace: sigTrace(t, c, 50, int64(i+1))})
		}
		altCl, altErr = classify.Train(runs, classify.Config{})
	})
	if altErr != nil {
		t.Fatalf("train alt classifier: %v", altErr)
	}
	return altCl
}

func decodeGet(t *testing.T, h http.Handler, path string, out any) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != 200 {
		t.Fatalf("GET %s = %d: %s", path, w.Code, w.Body.String())
	}
	if err := json.Unmarshal(w.Body.Bytes(), out); err != nil {
		t.Fatalf("GET %s: decode: %v", path, err)
	}
}

// modelsResponse mirrors GET /v1/models.
type modelsResponse struct {
	Active string      `json:"active"`
	Models []modelJSON `json:"models"`
	Shadow *shadowView `json:"shadow"`
}

// TestModelLifecycleE2E is the acceptance path for the model-lifecycle
// subsystem: load a candidate over the API, shadow-classify live
// traffic and verify the disagreement report against an offline diff,
// atomically promote mid-stream with zero ingest failures, then crash
// and verify recovery under the new model succeeds while recovery
// against the old checkpoint is refused with a model-mismatch error
// unless forced.
func TestModelLifecycleE2E(t *testing.T) {
	dir := t.TempDir()
	modelDir := t.TempDir()
	schema := metrics.ExpertSchema()
	activeCl, candCl := classifier(t), altClassifier(t)
	if err := modelreg.SaveFile(filepath.Join(modelDir, "cand.json"), candCl); err != nil {
		t.Fatalf("SaveFile: %v", err)
	}

	a, err := New(Config{
		Classifier: activeCl, Journal: crashJournal(t, dir),
		Schema: schema, ModelDir: modelDir,
	})
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	bootID := a.ActiveModelID()

	// Phase 1: traffic before any candidate exists — must never appear
	// in shadow statistics.
	ioTrace := sigTrace(t, appclass.IO, 80, 11)
	cpuTrace := sigTrace(t, appclass.CPU, 60, 12)
	ingestTraceRange(t, a, "vm-alpha", ioTrace, 0, 40)

	// Load the candidate. The path is relative to ModelDir.
	w := postJSON(t, a.Handler(), "/v1/models", map[string]any{"path": "cand.json"})
	if w.Code != http.StatusCreated {
		t.Fatalf("load candidate = %d: %s", w.Code, w.Body.String())
	}
	var loaded modelJSON
	if err := json.Unmarshal(w.Body.Bytes(), &loaded); err != nil {
		t.Fatal(err)
	}
	if loaded.State != string(modelreg.StateCandidate) || loaded.ID == bootID {
		t.Fatalf("loaded candidate = %+v", loaded)
	}

	var mr modelsResponse
	decodeGet(t, a.Handler(), "/v1/models", &mr)
	if mr.Active != bootID || mr.Shadow == nil || mr.Shadow.Candidate != loaded.ID {
		t.Fatalf("models after load: active=%s shadow=%+v", mr.Active, mr.Shadow)
	}
	if mr.Shadow.Snapshots != 0 {
		t.Fatalf("shadow saw pre-load traffic: %d snapshots", mr.Shadow.Snapshots)
	}

	// Phase 2: traffic both models see. The shadow report must equal an
	// offline diff of the two classifiers over exactly these snapshots.
	ingestTraceRange(t, a, "vm-alpha", ioTrace, 40, 80)
	ingestTraceRange(t, a, "vm-beta", cpuTrace, 0, 40)

	type pair struct{ total, disagree int64 }
	wantDisagree := int64(0)
	wantPerClass := map[string]pair{}
	diff := func(tr *metrics.Trace, lo, hi int) {
		for i := lo; i < hi; i++ {
			vals := tr.At(i).Values
			av, err := activeCl.ClassifySnapshot(schema, vals)
			if err != nil {
				t.Fatal(err)
			}
			cv, err := candCl.ClassifySnapshot(schema, vals)
			if err != nil {
				t.Fatal(err)
			}
			p := wantPerClass[string(av)]
			p.total++
			if av != cv {
				wantDisagree++
				p.disagree++
			}
			wantPerClass[string(av)] = p
		}
	}
	diff(ioTrace, 40, 80)
	diff(cpuTrace, 0, 40)

	decodeGet(t, a.Handler(), "/v1/models", &mr)
	sv := mr.Shadow
	if sv == nil || sv.Snapshots != 80 {
		t.Fatalf("shadow after phase 2 = %+v, want 80 snapshots", sv)
	}
	if sv.Disagree != wantDisagree {
		t.Fatalf("shadow disagreements = %d, offline diff says %d", sv.Disagree, wantDisagree)
	}
	for cl, want := range wantPerClass {
		got := sv.PerClass[cl]
		if got.Snapshots != want.total || got.Disagree != want.disagree {
			t.Errorf("per-class %s = %+v, offline diff says %+v", cl, got, want)
		}
	}
	if len(sv.PerClass) != len(wantPerClass) {
		t.Errorf("per-class keys = %v, want %v", sv.PerClass, wantPerClass)
	}
	if delta := sv.UnknownRateCandidate - sv.UnknownRateActive; !floatsClose(delta, sv.UnknownRateDelta) {
		t.Errorf("unknown-rate delta %v inconsistent with rates %v/%v",
			sv.UnknownRateDelta, sv.UnknownRateActive, sv.UnknownRateCandidate)
	}

	// The shadow report is in /metricsz too.
	req := httptest.NewRequest(http.MethodGet, "/metricsz", nil)
	rec := httptest.NewRecorder()
	a.Handler().ServeHTTP(rec, req)
	body := rec.Body.String()
	for _, want := range []string{
		`appclassd_shadow_active 1`,
		`appclassd_shadow_snapshots{candidate="` + loaded.ID + `"} 80`,
		`appclassd_shadow_class_disagreements{candidate="` + loaded.ID + `"`,
		`appclassd_shadow_unknown_rate_delta{candidate="` + loaded.ID + `"}`,
		`appclassd_model_active_info{id="` + bootID + `"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metricsz missing %q", want)
		}
	}

	// Promote mid-stream: a writer hammers ingest throughout the swap;
	// no request may fail.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var badCode atomic2 // int64 via counters-free helper below
	gamma := sigTrace(t, appclass.Net, 400, 13)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			sn := gamma.At(i % gamma.Len())
			w := postJSON(t, a.Handler(), "/v1/ingest", map[string]any{"snapshots": []any{
				map[string]any{"vm": "vm-gamma", "time_s": float64(i), "values": sn.Values},
			}})
			if w.Code != 200 {
				badCode.store(int64(w.Code))
				return
			}
		}
	}()
	time.Sleep(10 * time.Millisecond)
	w = postJSON(t, a.Handler(), "/v1/models/"+loaded.ID+"/promote", nil)
	if w.Code != 200 {
		t.Fatalf("promote = %d: %s", w.Code, w.Body.String())
	}
	time.Sleep(10 * time.Millisecond)
	close(stop)
	wg.Wait()
	if c := badCode.load(); c != 0 {
		t.Fatalf("ingest returned %d during the hot swap", c)
	}

	// Post-swap: candidate is active, shadow is gone, live sessions
	// carry the new provenance without losing their accumulated state.
	mr = modelsResponse{}
	decodeGet(t, a.Handler(), "/v1/models", &mr)
	if mr.Active != loaded.ID || mr.Shadow != nil {
		t.Fatalf("models after promote: active=%s shadow=%v", mr.Active, mr.Shadow)
	}
	var vm struct {
		Snapshots int    `json:"snapshots"`
		Model     string `json:"model"`
	}
	decodeGet(t, a.Handler(), "/v1/vms/vm-alpha", &vm)
	if vm.Model != loaded.ID {
		t.Fatalf("vm-alpha provenance = %q, want %q", vm.Model, loaded.ID)
	}
	if vm.Snapshots != 80 {
		t.Fatalf("vm-alpha snapshots = %d after swap, want 80 (session must not drop)", vm.Snapshots)
	}

	// The promote checkpointed immediately; the newest checkpoint must
	// carry the new model's hash.
	cp, err := wal.LatestCheckpoint(dir)
	if err != nil || cp == nil {
		t.Fatalf("LatestCheckpoint: %v (cp=%v)", err, cp)
	}
	if cp.ModelHash != loaded.Hash {
		t.Fatalf("checkpoint hash = %s, want the promoted model's %s", cp.ModelHash, loaded.Hash)
	}

	// A little post-swap tail so recovery has journal records beyond the
	// checkpoint, then crash (no shutdown).
	ingestTraceRange(t, a, "vm-beta", cpuTrace, 40, 60)

	// Recovery under the new model succeeds and restores the sessions.
	b, err := New(Config{Classifier: candCl, Journal: crashJournal(t, dir), Schema: schema})
	if err != nil {
		t.Fatalf("server.New (new model): %v", err)
	}
	if b.ActiveModelID() != loaded.ID {
		t.Fatalf("rebooted daemon serves %s, want %s", b.ActiveModelID(), loaded.ID)
	}
	if _, err := b.Recover(); err != nil {
		t.Fatalf("recovery under the new model: %v", err)
	}
	if got := sessionView(t, b, "vm-beta").Total; got != 60 {
		t.Fatalf("recovered vm-beta has %d snapshots, want 60", got)
	}
	decodeGet(t, b.Handler(), "/v1/vms/vm-beta", &vm)
	if vm.Model != loaded.ID {
		t.Fatalf("recovered vm-beta provenance = %q, want %q", vm.Model, loaded.ID)
	}

	// Recovery against the old model is refused with the mismatch error.
	old, err := New(Config{Classifier: activeCl, Journal: crashJournal(t, dir), Schema: schema})
	if err != nil {
		t.Fatalf("server.New (old model): %v", err)
	}
	_, err = old.Recover()
	if err == nil {
		t.Fatal("recovery under the old model succeeded, want model-mismatch refusal")
	}
	if !strings.Contains(err.Error(), "-recover-force") || !strings.Contains(err.Error(), "model") {
		t.Fatalf("refusal error %q does not name the mismatch or the escape hatch", err)
	}

	// -recover-force discards the checkpoint's sessions but replays the
	// journal tail, so the old daemon comes up empty-handed but alive.
	forced, err := New(Config{Classifier: activeCl, Journal: crashJournal(t, dir), Schema: schema, RecoverForce: true})
	if err != nil {
		t.Fatalf("server.New (forced): %v", err)
	}
	if _, err := forced.Recover(); err != nil {
		t.Fatalf("forced recovery: %v", err)
	}
}

// atomic2 avoids importing sync/atomic twice under test-only names.
type atomic2 struct {
	mu sync.Mutex
	v  int64
}

func (a *atomic2) store(v int64) { a.mu.Lock(); a.v = v; a.mu.Unlock() }
func (a *atomic2) load() int64   { a.mu.Lock(); defer a.mu.Unlock(); return a.v }

func floatsClose(a, b float64) bool {
	d := a - b
	return d < 1e-9 && d > -1e-9
}

func TestModelEndpointsErrors(t *testing.T) {
	modelDir := t.TempDir()
	s := newTestServer(t, Config{Schema: metrics.ExpertSchema(), ModelDir: modelDir})
	h := s.Handler()
	active := s.ActiveModelID()

	// Path confinement: absolute and escaping paths are rejected without
	// touching the filesystem.
	for _, p := range []string{"/etc/passwd", "../outside.json", "a/../../x.json"} {
		w := postJSON(t, h, "/v1/models", map[string]any{"path": p})
		if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), "escapes") {
			t.Errorf("load %q = %d %s, want 400 escape refusal", p, w.Code, w.Body.String())
		}
	}
	if w := postJSON(t, h, "/v1/models", map[string]any{}); w.Code != http.StatusBadRequest {
		t.Errorf("load without path = %d, want 400", w.Code)
	}
	if w := postJSON(t, h, "/v1/models", map[string]any{"path": "missing.json"}); w.Code != http.StatusBadRequest {
		t.Errorf("load missing artifact = %d, want 400", w.Code)
	}

	// Loading an artifact identical to the active model is a conflict.
	if err := modelreg.SaveFile(filepath.Join(modelDir, "same.json"), classifier(t)); err != nil {
		t.Fatal(err)
	}
	if w := postJSON(t, h, "/v1/models", map[string]any{"path": "same.json"}); w.Code != http.StatusConflict {
		t.Errorf("load identical model = %d, want 409", w.Code)
	}

	// Promote: unknown id 404, active id 409.
	if w := postJSON(t, h, "/v1/models/deadbeef0000/promote", nil); w.Code != http.StatusNotFound {
		t.Errorf("promote unknown = %d, want 404", w.Code)
	}
	if w := postJSON(t, h, "/v1/models/"+active+"/promote", nil); w.Code != http.StatusConflict {
		t.Errorf("promote active = %d, want 409", w.Code)
	}

	// Delete: unknown 404, active 409, candidate stops its shadow.
	req := httptest.NewRequest(http.MethodDelete, "/v1/models/deadbeef0000", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusNotFound {
		t.Errorf("delete unknown = %d, want 404", w.Code)
	}
	req = httptest.NewRequest(http.MethodDelete, "/v1/models/"+active, nil)
	w = httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusConflict {
		t.Errorf("delete active = %d, want 409", w.Code)
	}

	if err := modelreg.SaveFile(filepath.Join(modelDir, "cand.json"), altClassifier(t)); err != nil {
		t.Fatal(err)
	}
	lw := postJSON(t, h, "/v1/models", map[string]any{"path": "cand.json"})
	if lw.Code != http.StatusCreated {
		t.Fatalf("load candidate = %d: %s", lw.Code, lw.Body.String())
	}
	var loaded modelJSON
	if err := json.Unmarshal(lw.Body.Bytes(), &loaded); err != nil {
		t.Fatal(err)
	}
	req = httptest.NewRequest(http.MethodDelete, "/v1/models/"+loaded.ID, nil)
	w = httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("delete candidate = %d: %s", w.Code, w.Body.String())
	}
	var mr modelsResponse
	decodeGet(t, h, "/v1/models", &mr)
	if mr.Shadow != nil {
		t.Fatal("shadow evaluation survived deleting the candidate")
	}
	for _, m := range mr.Models {
		if m.ID == loaded.ID {
			t.Fatal("deleted model still listed")
		}
	}
}

// candidate returns the model the shadow evaluates, nil with none
// staged.
func candidate(s *Server) *modelreg.Model {
	if se := s.shadow.Load(); se != nil {
		return se.model
	}
	return nil
}

// addModel makes m a known model that is not serving: loaded, as a
// candidate displaced by a later load leaves it.
func addModel(s *Server, m *modelreg.Model) {
	s.swapMu.Lock()
	s.models[m.ID] = m
	s.swapMu.Unlock()
}

// seedRetrainDB stamps labeled, sampled records into the server's
// application database, the way finalize does for real sessions.
func seedRetrainDB(t *testing.T, db *appdb.DB) {
	t.Helper()
	names := metrics.ExpertSchema().Names()
	rng := rand.New(rand.NewSource(5))
	for _, c := range []appclass.Class{appclass.CPU, appclass.IO, appclass.Net} {
		rows := make([][]float64, 20)
		sig := sigValues(c)
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
		if err := db.Put(appdb.Record{
			App: "app-" + string(c), Class: c, Verdict: c,
			ExecutionTime: time.Minute, Samples: 20,
			TrainMetrics: names, TrainSamples: rows,
		}); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
}

func TestRetrainOnceInstallsCandidate(t *testing.T) {
	s := newTestServer(t, Config{Schema: metrics.ExpertSchema()})

	// Too little labeled data: counted as an error, nothing installed.
	s.retrainOnce()
	if s.counters.retrainErrors.Load() != 1 || candidate(s) != nil {
		t.Fatalf("retrain on empty db: errors=%d candidate=%v",
			s.counters.retrainErrors.Load(), candidate(s))
	}

	seedRetrainDB(t, s.cfg.DB)
	s.retrainOnce()
	cand := candidate(s)
	if cand == nil {
		t.Fatal("retrain did not install a candidate")
	}
	if cand.Source != "retrain" {
		t.Fatalf("candidate source = %q, want retrain", cand.Source)
	}
	if s.shadow.Load() == nil {
		t.Fatal("retrain candidate has no shadow evaluation")
	}
	if s.counters.retrainRuns.Load() != 1 {
		t.Fatalf("retrainRuns = %d, want 1", s.counters.retrainRuns.Load())
	}

	// A second pass refits the identical model: no churn.
	s.retrainOnce()
	if got := candidate(s); got == nil || got.ID != cand.ID {
		t.Fatalf("idempotent retrain replaced the candidate: %v", got)
	}
}

func TestRetrainNeverDisplacesOperatorCandidate(t *testing.T) {
	modelDir := t.TempDir()
	outPath := filepath.Join(t.TempDir(), "refit.json")
	if err := modelreg.SaveFile(filepath.Join(modelDir, "op.json"), altClassifier(t)); err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{Schema: metrics.ExpertSchema(), ModelDir: modelDir, RetrainOut: outPath})
	if w := postJSON(t, s.Handler(), "/v1/models", map[string]any{"path": "op.json"}); w.Code != http.StatusCreated {
		t.Fatalf("load operator candidate: %d %s", w.Code, w.Body.String())
	}
	opCand := candidate(s)

	seedRetrainDB(t, s.cfg.DB)
	s.retrainOnce()
	if got := candidate(s); got == nil || got.ID != opCand.ID {
		t.Fatalf("background retrain displaced the operator candidate: %v", got)
	}
	// The refit is not lost: it landed on disk for later evaluation.
	if _, err := os.Stat(outPath); err != nil {
		t.Fatalf("retrain artifact not saved: %v", err)
	}
}

// TestFinalizeStampsTrainingSamples closes the online-retraining loop:
// a finished session's appdb record carries its model provenance and
// the retained training rows the retrainer feeds on.
func TestFinalizeStampsTrainingSamples(t *testing.T) {
	s := newTestServer(t, Config{Schema: metrics.ExpertSchema()})
	tr := sigTrace(t, appclass.CPU, 30, 21)
	ingestTraceRange(t, s, "vm-train", tr, 0, 30)
	if w := postJSON(t, s.Handler(), "/v1/vms/vm-train/finish", nil); w.Code != 200 {
		t.Fatalf("finish = %d: %s", w.Code, w.Body.String())
	}
	rec, err := s.cfg.DB.Latest("vm-train")
	if err != nil {
		t.Fatalf("Latest: %v", err)
	}
	if rec.ModelID != s.ActiveModelID() {
		t.Fatalf("record model = %q, want %q", rec.ModelID, s.ActiveModelID())
	}
	if len(rec.TrainSamples) == 0 || len(rec.TrainSamples) > classify.DefaultTrainReservoir {
		t.Fatalf("record retained %d rows, want 1..%d", len(rec.TrainSamples), classify.DefaultTrainReservoir)
	}
	if len(rec.TrainMetrics) != metrics.ExpertSchema().Len() {
		t.Fatalf("record sampled metrics = %v", rec.TrainMetrics)
	}
}

// TestModelListingDuringPromotes lists /v1/models while another
// goroutine promotes two models back and forth. Every listing must
// show both models and exactly one active row, the one the active
// field names; under -race it checks that the known models are only
// reached under swapMu.
func TestModelListingDuringPromotes(t *testing.T) {
	modelDir := t.TempDir()
	s := newTestServer(t, Config{Schema: metrics.ExpertSchema(), ModelDir: modelDir})
	h := s.Handler()
	ids := []string{loadModel(t, h, modelDir, "alt.json", altClassifier(t)).ID, s.ActiveModelID()}

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 20; i++ {
			if _, err := s.Promote(ids[i%2]); err != nil {
				t.Errorf("promote %s: %v", ids[i%2], err)
				return
			}
		}
	}()
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		active, rows := listModels(t, h)
		actives := 0
		for _, r := range rows {
			if r.state == string(modelreg.StateActive) {
				actives++
				if r.id != active {
					t.Fatalf("active row %s, active field %s", r.id, active)
				}
			}
		}
		if len(rows) != 2 || actives != 1 {
			t.Fatalf("listing during promotes: %+v", rows)
		}
	}
}
