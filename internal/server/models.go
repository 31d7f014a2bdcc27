package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/appclass"
	"repro/internal/classify"
	"repro/internal/metrics"
	"repro/internal/modelreg"
	"repro/internal/supervise"
)

// activeModel pairs the serving model with its calibrated open-set
// thresholds. The daemon swaps the whole pair atomically (one pointer
// store under the checkpoint quiesce), so no reader ever sees a model
// from one generation with thresholds from another.
type activeModel struct {
	model   *modelreg.Model
	openset *classify.OpenSet
}

// activeClassifier returns the classifier currently serving verdicts.
func (s *Server) activeClassifier() *classify.Classifier {
	return s.active.Load().model.Classifier
}

// activeOpenSet returns the serving open-set thresholds (nil with the
// open-set test disabled).
func (s *Server) activeOpenSet() *classify.OpenSet {
	return s.active.Load().openset
}

// ActiveModelID returns the short compatibility hash of the serving
// model.
func (s *Server) ActiveModelID() string {
	return s.active.Load().model.ID
}

// activeModelHash returns the full hex hash for checkpoint stamping.
func (s *Server) activeModelHash() string {
	return s.active.Load().model.Hash.String()
}

// calibrateFor derives open-set thresholds for a model under the
// daemon's serving params, logging loudly for every class calibration
// had to skip (fewer than two training points → infinite threshold,
// never flags unknown). Returns nil when the open-set test is disabled.
func (s *Server) calibrateFor(m *modelreg.Model) (*classify.OpenSet, error) {
	if m.Params.OpenSetSlack < 0 {
		return nil, nil
	}
	os, err := m.Classifier.CalibrateOpenSet(classify.OpenSetConfig{
		Quantile: m.Params.OpenSetQuantile,
		Slack:    m.Params.OpenSetSlack,
	})
	if err != nil {
		return nil, err
	}
	for cl, cerr := range os.SkippedClasses() {
		s.cfg.Logf("server: model %s: OPEN-SET CALIBRATION SKIPPED class %s: %v — the class will never flag unknown", m.ID, cl, cerr)
	}
	return os, nil
}

// shadowEval measures a candidate model against live traffic: every
// batch the active model classifies is also classified by the
// candidate, on its own scratch, and only the disagreement statistics
// escape — the candidate never touches verdicts, sessions, the journal,
// or the application database. Counters reset when a new candidate is
// installed.
type shadowEval struct {
	model   *modelreg.Model
	openset *classify.OpenSet
	// subset is the candidate's gather indices into the ingest schema.
	subset []int
	// scratch recycles per-goroutine classification buffers.
	scratch sync.Pool

	snaps         atomic.Int64 // snapshots shadow-classified
	disagree      atomic.Int64 // candidate voted differently than active
	candUnknown   atomic.Int64 // candidate open-set unknowns
	activeUnknown atomic.Int64 // active open-set unknowns over the same snapshots
	errors        atomic.Int64 // candidate classification errors
	nanos         atomic.Int64 // candidate classification time

	// perClass is keyed by the ACTIVE model's vote: "of the snapshots
	// active called cpu-intensive, how many did the candidate call
	// something else". Keys are fixed at construction (the active
	// model's class set plus every known class), so reads are lock-free.
	perClass map[appclass.Class]*classPair
}

type classPair struct {
	total    atomic.Int64
	disagree atomic.Int64
}

func newShadowEval(m *modelreg.Model, os *classify.OpenSet, schema *metrics.Schema) (*shadowEval, error) {
	subset, err := m.Classifier.GatherIndices(schema)
	if err != nil {
		return nil, fmt.Errorf("server: candidate %s does not fit the ingest schema: %w", m.ID, err)
	}
	se := &shadowEval{
		model:    m,
		openset:  os,
		subset:   subset,
		perClass: make(map[appclass.Class]*classPair),
	}
	se.scratch.New = func() any { return new(classify.Scratch) }
	for _, cl := range appclass.All() {
		se.perClass[cl] = new(classPair)
	}
	se.perClass[appclass.Unknown] = new(classPair)
	return se, nil
}

// observe shadow-classifies one batch the active model just served.
// activeClasses are the active votes (1:1 with snaps) and
// activeUnknownDelta how many of the batch's snapshots the active model
// counted unknown. Called outside every session and checkpoint lock.
func (se *shadowEval) observe(snaps []metrics.Snapshot, activeClasses []appclass.Class, activeUnknownDelta int) {
	t0 := time.Now()
	sc := se.scratch.Get().(*classify.Scratch)
	for i := range snaps {
		v, err := se.model.Classifier.ClassifySnapshotOpenSet(se.subset, snaps[i].Values, se.openset, sc)
		if err != nil {
			se.errors.Add(1)
			continue
		}
		se.snaps.Add(1)
		if v.Unknown {
			se.candUnknown.Add(1)
		}
		av := activeClasses[i]
		pair := se.perClass[av]
		if pair != nil {
			pair.total.Add(1)
		}
		if v.Class != av {
			se.disagree.Add(1)
			if pair != nil {
				pair.disagree.Add(1)
			}
		}
	}
	se.scratch.Put(sc)
	se.activeUnknown.Add(int64(activeUnknownDelta))
	se.nanos.Add(int64(time.Since(t0)))
}

// shadowView is the JSON/metrics snapshot of a shadow evaluation.
type shadowView struct {
	Candidate string `json:"candidate"`
	Snapshots int64  `json:"snapshots"`
	Disagree  int64  `json:"disagreements"`
	// DisagreementRate is Disagree / Snapshots.
	DisagreementRate float64 `json:"disagreement_rate"`
	// PerClass maps the active model's vote to how often the candidate
	// disagreed with it (classes with zero shadowed snapshots omitted).
	PerClass map[string]classPairView `json:"per_class,omitempty"`
	// UnknownRateActive/Candidate are open-set unknown fractions over
	// the shadowed snapshots; UnknownRateDelta is candidate - active.
	UnknownRateActive    float64 `json:"unknown_rate_active"`
	UnknownRateCandidate float64 `json:"unknown_rate_candidate"`
	UnknownRateDelta     float64 `json:"unknown_rate_delta"`
	// MeanLatencyNanos is the candidate's mean per-snapshot
	// classification cost.
	MeanLatencyNanos int64 `json:"mean_latency_ns"`
	Errors           int64 `json:"errors"`
}

type classPairView struct {
	Snapshots int64 `json:"snapshots"`
	Disagree  int64 `json:"disagreements"`
}

func (se *shadowEval) view() shadowView {
	v := shadowView{
		Candidate: se.model.ID,
		Snapshots: se.snaps.Load(),
		Disagree:  se.disagree.Load(),
		Errors:    se.errors.Load(),
		PerClass:  make(map[string]classPairView),
	}
	if v.Snapshots > 0 {
		v.DisagreementRate = float64(v.Disagree) / float64(v.Snapshots)
		v.UnknownRateActive = float64(se.activeUnknown.Load()) / float64(v.Snapshots)
		v.UnknownRateCandidate = float64(se.candUnknown.Load()) / float64(v.Snapshots)
		v.UnknownRateDelta = v.UnknownRateCandidate - v.UnknownRateActive
		v.MeanLatencyNanos = se.nanos.Load() / v.Snapshots
	}
	for cl, pair := range se.perClass {
		if n := pair.total.Load(); n > 0 {
			v.PerClass[string(cl)] = classPairView{Snapshots: n, Disagree: pair.disagree.Load()}
		}
	}
	return v
}

// Promote errors the HTTP layer maps onto status codes.
var (
	errModelNotFound = errors.New("model not found")
	errModelConflict = errors.New("model conflict")
)

// Promote atomically hot-swaps the serving model to the registered
// model id. The sequence is: calibrate the new model's open-set
// thresholds outside any lock, then — under the checkpoint-quiesce
// write lock, with no ingest in flight — store the new active pair,
// rotate the journal onto a segment stamped with the new hash, and
// rebind every live session to the new classifier (counts, history,
// drift, phases, and training reservoirs carry over; subsequent
// snapshots classify under the new model). The pause is bounded by the
// same quiesce a checkpoint takes; everything slow happens outside it.
// It returns the swap pause.
//
// With Config.ProbationWindow > 0 the promoted model enters probation:
// the displaced model shadow-classifies in reverse for the window, and
// a breach (see probation.go) rolls the swap back automatically.
func (s *Server) Promote(id string) (time.Duration, error) {
	return s.promote(id, false)
}

// promote is Promote plus the rollback flag: a rollback re-promotes the
// probation guard and must not arm a fresh probation around it (the
// guard already earned its trust serving before the swap).
func (s *Server) promote(id string, rollback bool) (time.Duration, error) {
	s.swapMu.Lock()
	defer s.swapMu.Unlock()
	m, state, ok := s.models.Get(id)
	if !ok {
		return 0, fmt.Errorf("%w: %s", errModelNotFound, id)
	}
	if state == modelreg.StateActive {
		return 0, fmt.Errorf("%w: model %s is already active", errModelConflict, id)
	}
	cur := s.active.Load()
	if err := expertMetricsMatch(cur.model.Classifier, m.Classifier); err != nil {
		return 0, fmt.Errorf("%w: %v", errModelConflict, err)
	}
	// Everything expensive — calibration walks the whole training set —
	// happens before the quiesce.
	os, err := s.calibrateFor(m)
	if err != nil {
		return 0, fmt.Errorf("server: promote %s: %w", id, err)
	}

	rebindErrors := 0
	t0 := time.Now()
	s.ckptMu.Lock()
	s.active.Store(&activeModel{model: m, openset: os})
	if s.cfg.Journal != nil {
		if err := s.cfg.Journal.SetModelHash(m.Hash); err != nil {
			// The swap proceeds — sessions must not straddle two models —
			// but the journal keeps the old stamp until its next segment;
			// recovery's force path can still read it. Loud, not fatal.
			s.cfg.Logf("server: promote %s: restamp journal: %v", id, err)
		}
	}
	for _, sess := range s.reg.all() {
		sess.mu.Lock()
		if !sess.finalized {
			if err := sess.online.Rebind(m.Classifier, os); err != nil {
				rebindErrors++
				s.cfg.Logf("server: promote %s: rebind %s: %v (session continues on the old model)", id, sess.vm, err)
			} else {
				sess.model = m.ID
			}
		}
		sess.mu.Unlock()
	}
	s.ckptMu.Unlock()
	pause := time.Since(t0)

	if rebindErrors > 0 {
		s.counters.rebindErrors.Add(int64(rebindErrors))
	}
	if err := s.models.SetActive(id); err != nil {
		// Cannot happen: the model was fetched from the registry above and
		// promotes are serialized by swapMu.
		s.cfg.Logf("server: promote %s: registry: %v", id, err)
	}
	// Any running shadow evaluation measured disagreement against the
	// OLD active model; its numbers are meaningless now.
	if se := s.shadow.Swap(nil); se != nil && se.model.ID != id {
		s.models.ClearCandidate()
		s.cfg.Logf("server: promote %s: shadow evaluation of %s reset (baseline changed)", id, se.model.ID)
	}
	// Any swap invalidates a running probation: its guard measured the
	// baseline that just changed. A forward promote then arms a new
	// window around the model it installed.
	s.probation.Store(nil)
	if rollback {
		s.cfg.Logf("server: rolled back to model %s", id)
	} else if s.cfg.ProbationWindow > 0 {
		s.startProbation(cur, m)
	}
	s.counters.modelPromotes.Add(1)
	s.counters.swapLastNanos.Store(int64(pause))
	s.cfg.Logf("server: promoted model %s (hash %s) in %s; %d session(s) rebound",
		id, m.Hash.String(), pause, len(s.reg.all()))
	// Checkpoint immediately so the newest checkpoint carries the new
	// hash: a crash right after the swap recovers under the new model
	// instead of being refused for a stale pre-swap checkpoint.
	if s.cfg.Journal != nil {
		if err := s.Checkpoint(); err != nil {
			s.cfg.Logf("server: post-promote checkpoint: %v", err)
		}
	}
	return pause, nil
}

// expertMetricsMatch verifies two classifiers gather the identical
// expert-metric list — the invariant Rebind needs (per-metric drift
// accumulators and training reservoirs carry across the swap).
func expertMetricsMatch(a, b *classify.Classifier) error {
	am, bm := a.Config().ExpertMetrics, b.Config().ExpertMetrics
	if len(am) != len(bm) {
		return fmt.Errorf("expert metrics differ: active has %d, candidate %d", len(am), len(bm))
	}
	for i := range am {
		if am[i] != bm[i] {
			return fmt.Errorf("expert metric %d differs: active %q, candidate %q", i, am[i], bm[i])
		}
	}
	return nil
}

// installCandidate registers m (if new) and starts shadow-evaluating
// it. Caller holds swapMu.
func (s *Server) installCandidate(m *modelreg.Model) error {
	cur := s.active.Load()
	if m.Hash == cur.model.Hash {
		return fmt.Errorf("%w: model %s is identical to the active model", errModelConflict, m.ID)
	}
	if err := expertMetricsMatch(cur.model.Classifier, m.Classifier); err != nil {
		return fmt.Errorf("%w: %v", errModelConflict, err)
	}
	os, err := s.calibrateFor(m)
	if err != nil {
		return err
	}
	se, err := newShadowEval(m, os, s.cfg.Schema)
	if err != nil {
		return err
	}
	if _, _, ok := s.models.Get(m.ID); !ok {
		if err := s.models.Add(m); err != nil {
			return err
		}
	}
	if err := s.models.SetCandidate(m.ID); err != nil {
		return err
	}
	s.shadow.Store(se)
	return nil
}

// modelJSON is one row of GET /v1/models.
type modelJSON struct {
	ID       string `json:"id"`
	Hash     string `json:"hash"`
	State    string `json:"state"`
	Source   string `json:"source"`
	LoadedAt string `json:"loaded_at"`
	// Params echo the serving knobs the hash covers.
	Params modelreg.Params `json:"params"`
}

func (s *Server) modelJSON(e modelreg.Entry) modelJSON {
	return modelJSON{
		ID:       e.Model.ID,
		Hash:     e.Model.Hash.String(),
		State:    string(e.State),
		Source:   e.Model.Source,
		LoadedAt: time.Unix(0, e.Model.LoadedAtUnixNS).UTC().Format(time.RFC3339),
		Params:   e.Model.Params,
	}
}

// handleModels serves GET /v1/models: the registry plus the live shadow
// report.
func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	out := struct {
		Active    string         `json:"active"`
		Models    []modelJSON    `json:"models"`
		Shadow    *shadowView    `json:"shadow,omitempty"`
		Probation *probationView `json:"probation,omitempty"`
		SwapPause float64        `json:"last_swap_pause_s,omitempty"`
	}{Active: s.ActiveModelID(), Probation: s.probationView()}
	for _, e := range s.models.List() {
		out.Models = append(out.Models, s.modelJSON(e))
	}
	if se := s.shadow.Load(); se != nil {
		v := se.view()
		out.Shadow = &v
	}
	if ns := s.counters.swapLastNanos.Load(); ns > 0 {
		out.SwapPause = time.Duration(ns).Seconds()
	}
	writeJSON(w, http.StatusOK, out)
}

// handleModelLoad serves POST /v1/models: load a candidate artifact
// from disk and start shadow-evaluating it against live traffic.
func (s *Server) handleModelLoad(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Path string `json:"path"`
	}
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "malformed model-load body: %v", err)
		return
	}
	if req.Path == "" {
		writeError(w, http.StatusBadRequest, "model load needs a path")
		return
	}
	path := req.Path
	if dir := s.cfg.ModelDir; dir != "" {
		// Artifacts are confined to ModelDir: the path is taken relative
		// to it and must not escape (the daemon's API would otherwise read
		// arbitrary files on operator request).
		if filepath.IsAbs(path) || !filepath.IsLocal(path) {
			writeError(w, http.StatusBadRequest, "model path %q escapes the model directory", req.Path)
			return
		}
		path = filepath.Join(dir, path)
	}
	s.swapMu.Lock()
	defer s.swapMu.Unlock()
	m, err := modelreg.LoadFile(path, s.active.Load().model.Params, s.now().UnixNano())
	if err != nil {
		s.counters.modelLoadErrors.Add(1)
		writeError(w, http.StatusBadRequest, "load model: %v", err)
		return
	}
	if err := s.installCandidate(m); err != nil {
		s.counters.modelLoadErrors.Add(1)
		if errors.Is(err, errModelConflict) {
			writeError(w, http.StatusConflict, "%v", err)
			return
		}
		writeError(w, http.StatusBadRequest, "install candidate: %v", err)
		return
	}
	s.counters.modelLoads.Add(1)
	s.cfg.Logf("server: loaded candidate model %s (hash %s) from %s; shadow evaluation started", m.ID, m.Hash.String(), path)
	writeJSON(w, http.StatusCreated, s.modelJSON(modelreg.Entry{Model: m, State: modelreg.StateCandidate}))
}

// handleModelPromote serves POST /v1/models/{id}/promote.
func (s *Server) handleModelPromote(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	pause, err := s.Promote(id)
	switch {
	case errors.Is(err, errModelNotFound):
		writeError(w, http.StatusNotFound, "%v", err)
		return
	case errors.Is(err, errModelConflict):
		writeError(w, http.StatusConflict, "%v", err)
		return
	case err != nil:
		writeError(w, http.StatusInternalServerError, "promote %s: %v", id, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"active":       id,
		"swap_pause_s": pause.Seconds(),
	})
}

// handleModelDelete serves DELETE /v1/models/{id}: discard a loaded,
// retired, or candidate model (discarding the candidate stops its
// shadow evaluation). The active model cannot be removed.
func (s *Server) handleModelDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.swapMu.Lock()
	defer s.swapMu.Unlock()
	_, state, ok := s.models.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "no model %s", id)
		return
	}
	if pb := s.probation.Load(); pb != nil && pb.prevID == id {
		// The guard is the rollback target; removing it would leave a
		// probation that cannot act on a breach.
		writeError(w, http.StatusConflict, "model %s guards the probation of %s; retry after the window closes", id, pb.newID)
		return
	}
	if state == modelreg.StateCandidate {
		s.shadow.Store(nil)
		s.models.ClearCandidate()
	}
	if err := s.models.Remove(id); err != nil {
		writeError(w, http.StatusConflict, "%v", err)
		return
	}
	s.counters.modelDiscards.Add(1)
	s.cfg.Logf("server: discarded model %s", id)
	writeJSON(w, http.StatusOK, map[string]any{"removed": id})
}

// StartRetrainer launches the online-retraining loop: every
// RetrainEvery it refits a classifier from the labeled finalized
// sessions in the application database and installs the result as the
// shadow candidate (never displacing an operator-loaded candidate).
// No-op unless Config.RetrainEvery > 0.
func (s *Server) StartRetrainer() {
	if s.cfg.RetrainEvery <= 0 {
		return
	}
	s.sup.Go("retrainer", supervise.TaskOptions{Heartbeat: 4 * s.cfg.RetrainEvery}, func(stop <-chan struct{}, t *supervise.Task) {
		tick := time.NewTicker(s.cfg.RetrainEvery)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				t.Beat()
				s.retrainOnce()
			}
		}
	})
}

// retrainOnce runs one retraining pass. Split out for tests.
func (s *Server) retrainOnce() {
	cl, stats, err := modelreg.Retrain(s.cfg.DB, modelreg.RetrainConfig{})
	if err != nil {
		// Not enough labeled data yet is the steady state early on; only
		// count it, log at low volume.
		s.counters.retrainErrors.Add(1)
		s.cfg.Logf("server: retrain: %v", err)
		return
	}
	s.swapMu.Lock()
	defer s.swapMu.Unlock()
	m, err := modelreg.NewModel(cl, s.active.Load().model.Params, "retrain", s.now().UnixNano())
	if err != nil {
		s.counters.retrainErrors.Add(1)
		s.cfg.Logf("server: retrain: %v", err)
		return
	}
	s.counters.retrainRuns.Add(1)
	if m.Hash == s.active.Load().model.Hash {
		s.cfg.Logf("server: retrain: refit matches the active model (%s); nothing to evaluate", m.ID)
		return
	}
	if _, state, ok := s.models.Get(m.ID); ok && state == modelreg.StateCandidate {
		s.cfg.Logf("server: retrain: refit matches the current candidate (%s)", m.ID)
		return
	}
	if cand := s.models.Candidate(); cand != nil && strings.HasPrefix(cand.Source, "file:") {
		// An operator staged this candidate deliberately; a background
		// refit must not displace it.
		s.cfg.Logf("server: retrain: produced model %s but candidate slot holds operator-loaded %s; keeping it on file", m.ID, cand.ID)
		if s.cfg.RetrainOut != "" {
			if err := modelreg.SaveFile(s.cfg.RetrainOut, cl); err != nil {
				s.cfg.Logf("server: retrain: save artifact: %v", err)
			}
		}
		return
	}
	if s.cfg.RetrainOut != "" {
		if err := modelreg.SaveFile(s.cfg.RetrainOut, cl); err != nil {
			s.counters.retrainErrors.Add(1)
			s.cfg.Logf("server: retrain: save artifact %s: %v", s.cfg.RetrainOut, err)
		}
	}
	if err := s.installCandidate(m); err != nil {
		s.counters.retrainErrors.Add(1)
		s.cfg.Logf("server: retrain: install candidate %s: %v", m.ID, err)
		return
	}
	s.cfg.Logf("server: retrain: candidate %s installed from %d record(s), %d class(es); shadow evaluation started",
		m.ID, stats.Records, len(stats.RowsPerClass))
}
