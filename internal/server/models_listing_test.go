package server

import (
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"repro/internal/appclass"
	"repro/internal/appdb"
	"repro/internal/classify"
	"repro/internal/metrics"
	"repro/internal/modelreg"
)

// listedModel is the part of a GET /v1/models row the lifecycle pins.
type listedModel struct{ id, state, source, loadedAt string }

// listModels returns the active field and the rows of GET /v1/models.
func listModels(t *testing.T, h http.Handler) (string, []listedModel) {
	t.Helper()
	var mr modelsResponse
	decodeGet(t, h, "/v1/models", &mr)
	rows := make([]listedModel, len(mr.Models))
	for i, m := range mr.Models {
		rows[i] = listedModel{m.ID, m.State, m.Source, m.LoadedAt}
	}
	return mr.Active, rows
}

// loadModel saves cl under name in dir, loads it over the API and
// returns the created row.
func loadModel(t *testing.T, h http.Handler, dir, name string, cl *classify.Classifier) modelJSON {
	t.Helper()
	if err := modelreg.SaveFile(filepath.Join(dir, name), cl); err != nil {
		t.Fatal(err)
	}
	w := postJSON(t, h, "/v1/models", map[string]any{"path": name})
	if w.Code != http.StatusCreated {
		t.Fatalf("load %s = %d: %s", name, w.Code, w.Body.String())
	}
	var m modelJSON
	if err := json.Unmarshal(w.Body.Bytes(), &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// deleteModel discards a model over the API and returns the status.
func deleteModel(h http.Handler, id string) int {
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodDelete, "/v1/models/"+id, nil))
	return w.Code
}

// sigClassifier trains a model on sigTrace runs drawn from seed: the
// same expert metrics as the package classifier, another hash per seed.
func sigClassifier(t *testing.T, seed int64) *classify.Classifier {
	t.Helper()
	var runs []classify.TrainingRun
	for i, c := range appclass.All() {
		runs = append(runs, classify.TrainingRun{Class: c, Trace: sigTrace(t, c, 50, seed+int64(i))})
	}
	cl, err := classify.Train(runs, classify.Config{})
	if err != nil {
		t.Fatalf("train: %v", err)
	}
	return cl
}

// TestModelListingThroughLifecycle pins GET /v1/models after every
// step of a load, promote and delete sequence: the active field and
// each row's id, state, source, load time and place in the order
// (active, candidate, loaded, retired, then by ID).
func TestModelListingThroughLifecycle(t *testing.T) {
	modelDir := t.TempDir()
	clk := &fakeClock{t: time.Date(2026, 3, 1, 12, 0, 0, 0, time.UTC)}
	s := newTestServer(t, Config{Schema: metrics.ExpertSchema(), ModelDir: modelDir, Now: clk.now})
	h := s.Handler()
	boot := s.ActiveModelID()

	check := func(step, wantActive string, want ...listedModel) {
		t.Helper()
		active, rows := listModels(t, h)
		if active != wantActive || !slices.Equal(rows, want) {
			t.Fatalf("%s: active %s, rows %+v\nwant active %s, rows %+v", step, active, rows, wantActive, want)
		}
	}
	bootRow := func(state string) listedModel { return listedModel{boot, state, "boot", "2026-03-01T12:00:00Z"} }
	check("boot", boot, bootRow("active"))

	clk.advance(time.Minute)
	a := loadModel(t, h, modelDir, "a.json", altClassifier(t))
	aRow := func(state string) listedModel {
		return listedModel{a.ID, state, "file:" + filepath.Join(modelDir, "a.json"), "2026-03-01T12:01:00Z"}
	}
	check("load A", boot, bootRow("active"), aRow("candidate"))

	clk.advance(time.Minute)
	b := loadModel(t, h, modelDir, "b.json", sigClassifier(t, 500))
	bRow := func(state string) listedModel {
		return listedModel{b.ID, state, "file:" + filepath.Join(modelDir, "b.json"), "2026-03-01T12:02:00Z"}
	}
	check("load B", boot, bootRow("active"), bRow("candidate"), aRow("loaded"))

	if _, err := s.Promote(b.ID); err != nil {
		t.Fatalf("promote B: %v", err)
	}
	check("promote B", b.ID, bRow("active"), aRow("loaded"), bootRow("retired"))

	if code := deleteModel(h, a.ID); code != http.StatusOK {
		t.Fatalf("delete A = %d", code)
	}
	check("delete A", b.ID, bRow("active"), bootRow("retired"))

	if _, err := s.Promote(boot); err != nil {
		t.Fatalf("promote boot: %v", err)
	}
	check("promote boot back", boot, bootRow("active"), bRow("retired"))

	if code := deleteModel(h, b.ID); code != http.StatusOK {
		t.Fatalf("delete B = %d", code)
	}
	check("delete B", boot, bootRow("active"))
}

// TestModelBootHashPinned pins the boot model's identity. Every journal
// segment and checkpoint is stamped with it, and recovery refuses a
// journal written under another hash, so how New derives the boot
// params must not move it.
func TestModelBootHashPinned(t *testing.T) {
	cl := classifier(t)
	off := modelreg.Params{OpenSetQuantile: -1, OpenSetSlack: -1, SegWindow: -1, SegMinLen: -1, SegThreshold: -1}
	for _, tc := range []struct {
		name   string
		cfg    Config
		params modelreg.Params
	}{
		{"defaults", Config{Classifier: cl}, modelreg.DefaultParams()},
		{"segmentation and open-set off", Config{Classifier: cl, SegmentWindow: -1, UnknownSlack: -1}, off},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want, err := modelreg.NewModel(cl, tc.params, "boot", 0)
			if err != nil {
				t.Fatal(err)
			}
			s := newTestServer(t, tc.cfg)
			if got := s.activeModelHash(); got != want.Hash.String() {
				t.Fatalf("boot hash %s, want %s", got, want.Hash.String())
			}
			if got := s.ActiveModelID(); got != want.ID {
				t.Fatalf("boot id %s, want %s", got, want.ID)
			}
		})
	}
}

// TestModelReloadOfRetrainArtifactIsOperators covers an operator who
// loads the retrainer's own artifact: the listing then shows the
// operator's source, and the next refit leaves that candidate staged,
// as it does any operator-loaded candidate.
func TestModelReloadOfRetrainArtifactIsOperators(t *testing.T) {
	modelDir := t.TempDir()
	outPath := filepath.Join(modelDir, "refit.json")
	s := newTestServer(t, Config{Schema: metrics.ExpertSchema(), ModelDir: modelDir, RetrainOut: outPath})
	h := s.Handler()

	seedRetrainDB(t, s.cfg.DB)
	s.retrainOnce()
	se := s.shadow.Load()
	if se == nil || se.model.Source != "retrain" {
		t.Fatalf("retrain staged no candidate: %+v", se)
	}
	refit := se.model.ID

	w := postJSON(t, h, "/v1/models", map[string]any{"path": "refit.json"})
	if w.Code != http.StatusCreated {
		t.Fatalf("load refit.json = %d: %s", w.Code, w.Body.String())
	}
	_, rows := listModels(t, h)
	if len(rows) != 2 || rows[1].id != refit || rows[1].state != "candidate" || rows[1].source != "file:"+outPath {
		t.Fatalf("rows after re-load = %+v, want candidate %s from file:%s", rows, refit, outPath)
	}

	// More labeled runs: the next refit is another model.
	names := metrics.ExpertSchema().Names()
	rng := rand.New(rand.NewSource(9))
	for _, c := range []appclass.Class{appclass.Mem, appclass.Idle} {
		sig := sigValues(c)
		train := make([][]float64, 20)
		for i := range train {
			train[i] = make([]float64, len(sig))
			for j, v := range sig {
				train[i][j] = v * (1 + 0.1*rng.Float64())
			}
		}
		if err := s.cfg.DB.Put(appdb.Record{
			App: "app-" + string(c), Class: c, Verdict: c,
			ExecutionTime: time.Minute, Samples: 20,
			TrainMetrics: names, TrainSamples: train,
		}); err != nil {
			t.Fatal(err)
		}
	}
	s.retrainOnce()
	next, err := modelreg.LoadFile(outPath, modelreg.DefaultParams(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if next.ID == refit {
		t.Fatalf("second refit reproduced %s; the scenario needs another model", refit)
	}
	if se := s.shadow.Load(); se == nil || se.model.ID != refit {
		t.Fatalf("second refit displaced the operator-loaded candidate %s: %+v", refit, se)
	}
}
