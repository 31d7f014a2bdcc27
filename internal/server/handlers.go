package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"
	"strings"
	"sync"
	"time"

	"repro/internal/appclass"
	"repro/internal/classify"
	"repro/internal/metrics"
	"repro/internal/phase"
	"repro/internal/wire"
)

// routes builds the daemon's API surface. Method-qualified patterns
// make the mux answer 405 (with an Allow header) for wrong-method
// requests on known paths.
func (s *Server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/ingest", s.handleIngest)
	mux.HandleFunc("POST /v1/ingest.bin", s.handleIngestBin)
	mux.HandleFunc("GET /v1/vms", s.handleVMs)
	mux.HandleFunc("GET /v1/vms/{name}", s.handleVM)
	mux.HandleFunc("POST /v1/vms/{name}/finish", s.handleFinish)
	mux.HandleFunc("GET /v1/classes", s.handleClasses)
	mux.HandleFunc("GET /v1/fingerprints", s.handleFingerprints)
	mux.HandleFunc("GET /v1/models", s.handleModels)
	mux.HandleFunc("POST /v1/models", s.handleModelLoad)
	mux.HandleFunc("POST /v1/models/{id}/promote", s.handleModelPromote)
	mux.HandleFunc("DELETE /v1/models/{id}", s.handleModelDelete)
	mux.HandleFunc("POST /v1/placements", s.handlePlace)
	mux.HandleFunc("GET /v1/placements", s.handlePlacements)
	mux.HandleFunc("GET /v1/placements/advice", s.handleAdvice)
	mux.HandleFunc("DELETE /v1/placements/{id}", s.handleRelease)
	mux.HandleFunc("GET /v1/hosts", s.handleHosts)
	mux.HandleFunc("GET /v1/hosts/{name}", s.handleHost)
	mux.HandleFunc("GET /v1/runs", s.handleRuns)
	mux.HandleFunc("GET /v1/status", s.handleStatus)
	if s.cfg.Dashboard {
		mux.Handle("GET /dashboard/", http.StripPrefix("/dashboard/", http.FileServerFS(dashboardAssets())))
		mux.HandleFunc("GET /dashboard", func(w http.ResponseWriter, r *http.Request) {
			http.Redirect(w, r, "/dashboard/", http.StatusMovedPermanently)
		})
	}
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /metricsz", s.handleMetricsz)
	if s.cfg.EnablePprof {
		// Unqualified patterns: pprof's symbol endpoint accepts GET and
		// POST, and the index serves every named profile below it.
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// jsonEnc pairs a response buffer with an encoder permanently aimed at
// it, so writeJSON builds responses without constructing a fresh
// json.Encoder (and its indent state) per call.
type jsonEnc struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var jsonEncPool = sync.Pool{New: func() any {
	e := &jsonEnc{}
	e.enc = json.NewEncoder(&e.buf)
	e.enc.SetIndent("", "  ")
	return e
}}

func writeJSON(w http.ResponseWriter, code int, v any) {
	e := jsonEncPool.Get().(*jsonEnc)
	defer jsonEncPool.Put(e)
	e.buf.Reset()
	err := e.enc.Encode(v)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err == nil {
		_, _ = w.Write(e.buf.Bytes())
	}
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// ingestSnapshot is one pushed sample. Values carries the full metric
// vector in schema order; Metrics names each value instead, for
// clients that do not know the canonical order. Exactly one must be
// set.
type ingestSnapshot struct {
	VM          string             `json:"vm"`
	TimeSeconds float64            `json:"time_s"`
	Values      []float64          `json:"values,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

type ingestRequest struct {
	Snapshots []ingestSnapshot `json:"snapshots"`
}

type ingestResult struct {
	VM    string `json:"vm"`
	Class string `json:"class"`
}

type ingestResponse struct {
	Accepted int            `json:"accepted"`
	Results  []ingestResult `json:"results"`
}

// handleIngest is POST /v1/ingest: it decodes a JSON batch into the
// shared ingest core and answers with each snapshot's class in input
// order, however the core grouped them.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	sc, e := s.admitIngest(w, r)
	if e == nil {
		defer s.doneIngest(sc)
		if e = s.decodeJSON(sc, r); e == nil {
			e = s.ingest(r.Context(), sc)
		}
	}
	if e != nil {
		s.countRejected(e)
		writeError(w, e.code, "%s", e.msg)
		return
	}
	sc.results = sc.results[:0]
	for _, k := range sc.at {
		sc.results = append(sc.results, ingestResult{VM: sc.snaps[k].Node, Class: string(sc.classes[k])})
	}
	writeJSON(w, http.StatusOK, ingestResponse{Accepted: len(sc.results), Results: sc.results})
}

// decodeJSON validates a whole JSON batch against the schema before
// anything is applied, so a 400 never leaves a half-ingested batch
// behind, and groups it by VM in first-appearance order (single-VM
// batches, the common case, stay one group); sc.at maps each input
// snapshot to its place in sc.snaps. By-name snapshots decode into the
// scratch's row buffers.
func (s *Server) decodeJSON(sc *ingestScratch, r *http.Request) *ingestError {
	if e := sc.readBody(r); e != nil {
		return e
	}
	var req ingestRequest
	if err := json.Unmarshal(sc.body.Bytes(), &req); err != nil {
		return ingestErrorf(http.StatusBadRequest, "malformed ingest body: %v", err)
	}
	if len(req.Snapshots) == 0 {
		return ingestErrorf(http.StatusBadRequest, "ingest batch has no snapshots")
	}
	schema := s.cfg.Schema
	if sc.groupOf == nil {
		sc.groupOf = make(map[string]int)
	}
	clear(sc.groupOf)
	sc.groups, sc.at = sc.groups[:0], sc.at[:0]
	for i := range req.Snapshots {
		snap := &req.Snapshots[i]
		if snap.VM == "" {
			return ingestErrorf(http.StatusBadRequest, "snapshot %d has no vm", i)
		}
		if len(snap.VM) > wire.MaxVMName {
			return ingestErrorf(http.StatusBadRequest, "snapshot %d vm name is %d bytes, over the %d-byte limit", i, len(snap.VM), wire.MaxVMName)
		}
		switch {
		case len(snap.Values) > 0 && len(snap.Metrics) > 0:
			return ingestErrorf(http.StatusBadRequest, "snapshot %d (%s) sets both values and metrics", i, snap.VM)
		case len(snap.Values) > 0:
			if len(snap.Values) != schema.Len() {
				return ingestErrorf(http.StatusBadRequest, "snapshot %d (%s) has %d values, schema has %d metrics",
					i, snap.VM, len(snap.Values), schema.Len())
			}
		case len(snap.Metrics) > 0:
			for name := range snap.Metrics {
				if !schema.Contains(name) {
					return ingestErrorf(http.StatusBadRequest, "snapshot %d (%s) has unknown metric %q", i, snap.VM, name)
				}
			}
			vals := sc.row(i, schema.Len())
			for j, name := range schema.Names() {
				v, ok := snap.Metrics[name]
				if !ok {
					return ingestErrorf(http.StatusBadRequest, "snapshot %d (%s) is missing metric %q", i, snap.VM, name)
				}
				vals[j] = v
			}
			snap.Values = vals
		default:
			return ingestErrorf(http.StatusBadRequest, "snapshot %d (%s) has neither values nor metrics", i, snap.VM)
		}
		g, ok := sc.groupOf[snap.VM]
		if !ok {
			g = len(sc.groups)
			sc.groupOf[snap.VM] = g
			sc.groups = append(sc.groups, ingestGroup{vm: snap.VM})
		}
		sc.groups[g].end++ // a count until the offsets below
		sc.at = append(sc.at, g)
	}
	n := 0
	for gi := range sc.groups {
		g := &sc.groups[gi]
		g.start, g.end, n = n, n, n+g.end
	}
	if cap(sc.snaps) < n {
		sc.snaps = make([]metrics.Snapshot, n)
	}
	sc.snaps = sc.snaps[:n]
	for i, snap := range req.Snapshots {
		g := &sc.groups[sc.at[i]]
		sc.at[i] = g.end
		sc.snaps[g.end] = metrics.Snapshot{Node: g.vm, Time: time.Duration(snap.TimeSeconds * float64(time.Second)), Values: snap.Values}
		g.end++
	}
	return nil
}

// vmSummary is one row of GET /v1/vms.
type vmSummary struct {
	VM        string  `json:"vm"`
	Class     string  `json:"class"`
	LastClass string  `json:"last_class"`
	Snapshots int     `json:"snapshots"`
	Drift     float64 `json:"drift"`
	LastSeen  string  `json:"last_seen"`
	// Gaps and GapSeconds flag sessions whose stream had known holes
	// (missed polls, breaker-open windows): composition and drift are
	// then estimates over partial coverage.
	Gaps       int     `json:"gaps,omitempty"`
	GapSeconds float64 `json:"gap_s,omitempty"`
	// Verdict is the open-set session verdict ("unknown" when most
	// snapshots fell outside the trained classes; omitted with the
	// open-set test off or before any snapshot). UnknownFraction is the
	// fraction of snapshots beyond their class's threshold, and Phases
	// counts phases detected so far (including the open one).
	Verdict         string  `json:"verdict,omitempty"`
	UnknownFraction float64 `json:"unknown_fraction,omitempty"`
	Phases          int     `json:"phases,omitempty"`
	// Model is the ID of the model serving this session (verdict
	// provenance; changes when a promote rebinds the session).
	Model string `json:"model,omitempty"`
}

func (s *Server) summarize(sess *session) vmSummary {
	sess.mu.Lock()
	view := sess.online.Snapshot()
	lastSeen := sess.lastSeen
	model := sess.model
	sess.mu.Unlock()
	return vmSummary{
		VM:              sess.vm,
		Class:           string(view.Class),
		LastClass:       string(view.LastClass),
		Snapshots:       view.Total,
		Drift:           view.Drift,
		LastSeen:        lastSeen.UTC().Format(time.RFC3339),
		Gaps:            view.Gaps,
		GapSeconds:      view.GapTime.Seconds(),
		Verdict:         string(view.Verdict),
		UnknownFraction: view.UnknownFraction,
		Phases:          len(view.Phases),
		Model:           model,
	}
}

func (s *Server) handleVMs(w http.ResponseWriter, r *http.Request) {
	names := s.reg.names()
	out := struct {
		Count int         `json:"count"`
		VMs   []vmSummary `json:"vms"`
	}{VMs: make([]vmSummary, 0, len(names))}
	for _, vm := range names {
		sess, ok := s.reg.get(vm)
		if !ok {
			continue // evicted between listing and lookup
		}
		out.VMs = append(out.VMs, s.summarize(sess))
	}
	out.Count = len(out.VMs)
	writeJSON(w, http.StatusOK, out)
}

// vmDetail is GET /v1/vms/{name}.
type vmDetail struct {
	vmSummary
	Composition  map[appclass.Class]float64 `json:"composition"`
	FirstSeconds float64                    `json:"first_s"`
	LastSeconds  float64                    `json:"last_s"`
	Stages       []stageJSON                `json:"stages"`
	// PhaseList is the segmenter's phase breakdown (empty with
	// segmentation disabled). Unlike Stages, which merges the label
	// history, phases come from change-point detection over the fused
	// feature stream, so they survive label flicker inside one regime.
	PhaseList []phaseJSON `json:"phase_list,omitempty"`
}

type stageJSON struct {
	Class        string  `json:"class"`
	StartSeconds float64 `json:"start_s"`
	EndSeconds   float64 `json:"end_s"`
	Snapshots    int     `json:"snapshots"`
	// Partial marks a stage whose beginning was trimmed by the history
	// retention cap.
	Partial bool `json:"partial,omitempty"`
}

type phaseJSON struct {
	Class        string                     `json:"class"`
	StartSeconds float64                    `json:"start_s"`
	EndSeconds   float64                    `json:"end_s"`
	Snapshots    int                        `json:"snapshots"`
	Composition  map[appclass.Class]float64 `json:"composition,omitempty"`
	Open         bool                       `json:"open,omitempty"`
}

func (s *Server) handleVM(w http.ResponseWriter, r *http.Request) {
	vm := r.PathValue("name")
	sess, ok := s.reg.get(vm)
	if !ok {
		writeError(w, http.StatusNotFound, "no live session for vm %q", vm)
		return
	}
	sess.mu.Lock()
	view := sess.online.Snapshot()
	history := sess.online.History()
	dropped := sess.online.HistoryDropped()
	lastSeen := sess.lastSeen
	model := sess.model
	sess.mu.Unlock()

	stages, err := classify.StagesFromHistory(history, 1, dropped)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "stage history: %v", err)
		return
	}
	detail := vmDetail{
		vmSummary: vmSummary{
			VM:              vm,
			Class:           string(view.Class),
			LastClass:       string(view.LastClass),
			Snapshots:       view.Total,
			Drift:           view.Drift,
			LastSeen:        lastSeen.UTC().Format(time.RFC3339),
			Gaps:            view.Gaps,
			GapSeconds:      view.GapTime.Seconds(),
			Verdict:         string(view.Verdict),
			UnknownFraction: view.UnknownFraction,
			Phases:          len(view.Phases),
			Model:           model,
		},
		Composition:  view.Composition,
		FirstSeconds: view.FirstAt.Seconds(),
		LastSeconds:  view.LastAt.Seconds(),
		Stages:       make([]stageJSON, 0, len(stages)),
	}
	for _, st := range stages {
		detail.Stages = append(detail.Stages, stageJSON{
			Class:        string(st.Class),
			StartSeconds: st.Start.Seconds(),
			EndSeconds:   st.End.Seconds(),
			Snapshots:    st.Snapshots,
			Partial:      st.Partial,
		})
	}
	for _, p := range view.Phases {
		detail.PhaseList = append(detail.PhaseList, phaseJSON{
			Class:        string(p.Class),
			StartSeconds: p.Start.Seconds(),
			EndSeconds:   p.End.Seconds(),
			Snapshots:    p.Snapshots,
			Composition:  p.Composition,
			Open:         p.Open,
		})
	}
	writeJSON(w, http.StatusOK, detail)
}

// fingerprintEntry is one row of GET /v1/fingerprints: an application's
// most recent phase fingerprint from the application database.
type fingerprintEntry struct {
	App string `json:"app"`
	// Summary is the human-readable form, e.g. "cpu:0.62 io:0.38".
	Summary string `json:"summary"`
	// Phases is the canonicalized phase signature sequence.
	Phases []phase.PhaseSig `json:"phases"`
	// MatchedApp and MatchScore echo the dictionary match recorded when
	// the run finalized, if any.
	MatchedApp string  `json:"matched_app,omitempty"`
	MatchScore float64 `json:"match_score,omitempty"`
}

// handleFingerprints serves the fingerprint dictionary: each
// application's latest fingerprinted run, the corpus finalizing
// sessions are matched against.
func (s *Server) handleFingerprints(w http.ResponseWriter, r *http.Request) {
	db := s.cfg.DB
	out := struct {
		Count        int                `json:"count"`
		Fingerprints []fingerprintEntry `json:"fingerprints"`
	}{}
	for _, app := range db.Apps() {
		rs := db.Runs(app)
		for i := len(rs) - 1; i >= 0; i-- {
			fp := rs[i].Fingerprint
			if fp == nil || fp.Empty() {
				continue
			}
			out.Fingerprints = append(out.Fingerprints, fingerprintEntry{
				App:        app,
				Summary:    fp.String(),
				Phases:     fp.Phases,
				MatchedApp: rs[i].MatchedApp,
				MatchScore: rs[i].MatchScore,
			})
			break
		}
	}
	out.Count = len(out.Fingerprints)
	writeJSON(w, http.StatusOK, out)
}

// finishResponse is POST /v1/vms/{name}/finish: the application-database
// record the session was finalized into.
type finishResponse struct {
	VM             string                     `json:"vm"`
	Class          string                     `json:"class"`
	Composition    map[appclass.Class]float64 `json:"composition"`
	ExecutionSecs  float64                    `json:"execution_s"`
	Samples        int                        `json:"samples"`
	HistoricalRuns int                        `json:"historical_runs"`
	// Verdict is the open-set verdict the run finalized with; MatchedApp
	// and MatchScore report the fingerprint-dictionary match, if any.
	Verdict    string  `json:"verdict,omitempty"`
	Phases     int     `json:"phases,omitempty"`
	MatchedApp string  `json:"matched_app,omitempty"`
	MatchScore float64 `json:"match_score,omitempty"`
}

func (s *Server) handleFinish(w http.ResponseWriter, r *http.Request) {
	vm := r.PathValue("name")
	sess, ok := s.reg.get(vm)
	if !ok {
		writeError(w, http.StatusNotFound, "no live session for vm %q", vm)
		return
	}
	rec, ok := s.finalize(sess, true)
	if !ok {
		if _, live := s.reg.get(vm); live {
			// The finalize marker could not be journaled; the session was
			// deliberately kept live so no state outruns the journal.
			writeError(w, http.StatusInternalServerError, "journaling finalize for vm %q failed; session kept live", vm)
			return
		}
		// Another finisher or the janitor got here first.
		writeError(w, http.StatusNotFound, "session for vm %q already finalized", vm)
		return
	}
	s.counters.finishes.Add(1)
	if rec == nil {
		// Never answer with an older run's record in its place.
		writeError(w, http.StatusInternalServerError, "finalized %s but no record was stored", vm)
		return
	}
	// Summarize counts the application's runs from the index alone. It
	// fails only when none is live any more, which reports 0.
	sum, _ := s.cfg.DB.Summarize(vm)
	writeJSON(w, http.StatusOK, finishResponse{
		VM:             vm,
		Class:          string(rec.Class),
		Composition:    rec.Composition,
		ExecutionSecs:  rec.ExecutionTime.Seconds(),
		Samples:        rec.Samples,
		HistoricalRuns: sum.Runs,
		Verdict:        string(rec.Verdict),
		Phases:         len(rec.Phases),
		MatchedApp:     rec.MatchedApp,
		MatchScore:     rec.MatchScore,
	})
}

// handleClasses reports how many live VMs currently vote each class —
// the cluster-wide composition a class-aware scheduler consults before
// placing new work.
func (s *Server) handleClasses(w http.ResponseWriter, r *http.Request) {
	out := struct {
		VMs     int            `json:"vms"`
		Classes map[string]int `json:"classes"`
	}{Classes: make(map[string]int)}
	for _, sess := range s.reg.all() {
		sess.mu.Lock()
		view := sess.online.Snapshot()
		sess.mu.Unlock()
		if view.Total == 0 {
			continue
		}
		out.VMs++
		out.Classes[string(view.Class)]++
	}
	writeJSON(w, http.StatusOK, out)
}

// readiness splits health into live vs ready: the process being up
// (live) is not the same as it honoring its durability contract
// (ready). Degraded durability makes the daemon not-ready — a load
// balancer should drain it, an operator should look at the disk — while
// ingest keeps working so no samples are lost on top of the journal
// outage.
func (s *Server) readiness() (ready bool, reason string) {
	if s.cfg.Journal != nil && s.DurabilityDegraded() {
		return false, "durability degraded: journal failing, ingest is memory-only"
	}
	if wedged, escalated := s.sup.Unhealthy(); len(wedged) > 0 || len(escalated) > 0 {
		var parts []string
		if len(wedged) > 0 {
			parts = append(parts, "supervised task(s) wedged: "+strings.Join(wedged, ", "))
		}
		if len(escalated) > 0 {
			parts = append(parts, "supervised task(s) escalated after repeated panics: "+strings.Join(escalated, ", "))
		}
		return false, strings.Join(parts, "; ")
	}
	return true, ""
}

// handleHealthz is the liveness view: it always answers 200 while the
// process serves, and carries the readiness verdict as data.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	ready, reason := s.readiness()
	body := map[string]any{
		"status":     "ok",
		"ready":      ready,
		"durability": s.durabilityMode(),
		"sessions":   s.reg.len(),
		"ingested":   s.counters.ingested.Load(),
		"uptime_s":   s.now().Sub(s.start).Seconds(),
		"metrics_n":  s.cfg.Schema.Len(),
	}
	if reason != "" {
		body["reason"] = reason
	}
	writeJSON(w, http.StatusOK, body)
}

// handleReadyz is the readiness probe: 200 while the daemon honors its
// durability contract, 503 while degraded.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	ready, reason := s.readiness()
	if !ready {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"ready": false, "reason": reason})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"ready": true})
}
