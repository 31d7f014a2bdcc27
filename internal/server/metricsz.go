package server

import (
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync/atomic"

	"repro/internal/appclass"
	"repro/internal/supervise"
)

// counters holds the daemon's observability state: monotonically
// increasing atomics, plus a few gauges, that collect reads.
type counters struct {
	ingested           atomic.Int64 // snapshots accepted (push + pull)
	ingestErrors       atomic.Int64 // rejected batches and failed observes
	evictions          atomic.Int64 // sessions finalized by the idle-TTL janitor
	finishes           atomic.Int64 // sessions finalized by POST .../finish
	flushed            atomic.Int64 // sessions finalized at shutdown
	finalizeErrors     atomic.Int64 // records the application DB refused
	polls              atomic.Int64 // gmetad poll attempts
	pollErrors         atomic.Int64 // failed gmetad polls
	pollSkipped        atomic.Int64 // polled nodes missing schema metrics
	pollBreakerSkipped atomic.Int64 // polls skipped because the breaker was open
	breakerOpens       atomic.Int64 // poll breaker trips (closed/half-open -> open)
	shedRequests       atomic.Int64 // ingest requests shed over the in-flight budget
	deadlineExceeded   atomic.Int64 // ingest requests abandoned at their deadline
	sampleGaps         atomic.Int64 // sample gaps recorded on sessions
	sampleGapNanos     atomic.Int64 // total wall time of recorded sample gaps
	degradedEntries    atomic.Int64 // transitions into degraded durability mode
	degradedExits      atomic.Int64 // transitions back to full durability

	// breakerState mirrors the poll breaker's current position
	// (resilience.State: 0 closed, 1 half-open, 2 open) and
	// pollLastSuccess the unix nanos of the last successful poll (0 if
	// never); both are gauges, not counters.
	breakerState    atomic.Int64
	pollLastSuccess atomic.Int64
	placements      atomic.Int64 // placement decisions served
	placementErrors atomic.Int64 // placement requests refused (full inventory)
	releases        atomic.Int64 // placements released

	journalRecords     atomic.Int64 // records appended to the write-ahead journal
	journalErrors      atomic.Int64 // failed journal appends
	checkpoints        atomic.Int64 // checkpoints written
	checkpointErrors   atomic.Int64 // failed checkpoint writes
	replayedSnapshots  atomic.Int64 // snapshots re-applied from the journal at startup
	recoveredSessions  atomic.Int64 // sessions restored from a checkpoint at startup
	journalGapSegments atomic.Int64 // journal segments found missing (unrecoverable) during recovery
	journalCorrupt     atomic.Int64 // bad journal frames recovery stepped over
	// recoveryNanos are gauges: the wall time of the last Recover's
	// steps, in recoverySteps order.
	recoveryNanos [len(recoverySteps)]atomic.Int64

	unknownSnapshots   atomic.Int64 // snapshots outside their voted class's open-set threshold
	unknownSessions    atomic.Int64 // sessions finalized with an UNKNOWN open-set verdict
	phaseBoundaries    atomic.Int64 // phase boundaries detected by the online segmenter
	fingerprintMatches atomic.Int64 // finalized sessions whose fingerprint matched the dictionary
	fingerprintMisses  atomic.Int64 // finalized fingerprints with no dictionary match over threshold

	binHandshakes     atomic.Int64 // binary-ingest streams negotiated
	binBatches        atomic.Int64 // binary batch frames accepted
	binStaleStreams   atomic.Int64 // binary requests refused for a stale/retired model hash
	binDecodeErrors   atomic.Int64 // malformed binary frames rejected
	binStreamsExpired atomic.Int64 // binary streams dropped by the idle sweep

	modelLoads      atomic.Int64 // candidate models loaded via POST /v1/models
	modelLoadErrors atomic.Int64 // failed model loads / candidate installs
	modelPromotes   atomic.Int64 // hot swaps performed
	modelRollbacks  atomic.Int64 // probation breaches rolled back automatically
	probationPasses atomic.Int64 // probation windows that closed without a breach
	modelDiscards   atomic.Int64 // models removed from the registry
	retrainRuns     atomic.Int64 // successful online-retraining passes
	retrainErrors   atomic.Int64 // failed retraining passes
	rebindErrors    atomic.Int64 // sessions that could not be rebound to a promoted model
	// swapLastNanos is a gauge: the duration of the most recent promote's
	// quiesced swap window.
	swapLastNanos atomic.Int64

	// Finalize-append instrumentation: how long the database Put on the
	// finalize hot path takes (the O(1) append the segmented store
	// replaced the O(n) file rewrite with). Last is a gauge, the other
	// two counters feeding a mean.
	finalizeAppends         atomic.Int64
	finalizeAppendNanos     atomic.Int64
	finalizeAppendLastNanos atomic.Int64

	classifications map[appclass.Class]*atomic.Int64
}

// recoverySteps label appclassd_recovery_seconds.
var recoverySteps = [...]string{"restore", "replay", "checkpoint"}

func newCounters() *counters {
	c := &counters{classifications: make(map[appclass.Class]*atomic.Int64)}
	for _, cl := range appclass.All() {
		c.classifications[cl] = new(atomic.Int64)
	}
	return c
}

func (c *counters) classified(cl appclass.Class) {
	if n, ok := c.classifications[cl]; ok {
		n.Add(1)
	}
}

// collect reads every series the daemon exports from the code that
// owns it and hands each sample to emit, in /metricsz page order: the
// family name, help text, type ("counter" or "gauge"), value, and label
// name/value pairs. A family is absent while the subsystem behind it is
// not configured. /metricsz and /v1/status are its two encoders.
func (s *Server) collect(emit func(name, help, typ string, v float64, labels ...string)) {
	c := s.counters
	counter := func(name, help string, v int64, labels ...string) {
		emit(name, help, "counter", float64(v), labels...)
	}
	gauge := func(name, help string, v float64, labels ...string) {
		emit(name, help, "gauge", v, labels...)
	}
	bit := func(b bool) float64 {
		if b {
			return 1
		}
		return 0
	}

	counter("appclassd_snapshots_ingested_total", "Snapshots accepted over the push API and the gmetad poller.", c.ingested.Load())
	counter("appclassd_ingest_errors_total", "Rejected ingest batches and failed snapshot observations.", c.ingestErrors.Load())
	for _, cl := range appclass.All() {
		counter("appclassd_classifications_total", "Snapshot classifications by class.", c.classifications[cl].Load(), "class", string(cl))
	}
	counter("appclassd_evictions_total", "Sessions finalized by the idle-TTL janitor.", c.evictions.Load())
	counter("appclassd_finishes_total", "Sessions finalized by an explicit finish request.", c.finishes.Load())
	counter("appclassd_flushed_total", "Sessions finalized during graceful shutdown.", c.flushed.Load())
	counter("appclassd_finalize_errors_total", "Session records the application database refused.", c.finalizeErrors.Load())
	counter("appclassd_polls_total", "gmetad poll attempts.", c.polls.Load())
	counter("appclassd_poll_errors_total", "Failed gmetad polls.", c.pollErrors.Load())
	counter("appclassd_poll_skipped_total", "Polled nodes skipped for missing schema metrics.", c.pollSkipped.Load())
	counter("appclassd_poll_breaker_skipped_total", "Polls skipped while the circuit breaker was open.", c.pollBreakerSkipped.Load())
	counter("appclassd_poll_breaker_opens_total", "Poll circuit-breaker trips into the open state.", c.breakerOpens.Load())
	counter("appclassd_ingest_shed_total", "Ingest requests shed with 429 over the in-flight budget.", c.shedRequests.Load())
	counter("appclassd_ingest_deadline_exceeded_total", "Ingest requests abandoned at their processing deadline.", c.deadlineExceeded.Load())
	counter("appclassd_sample_gaps_total", "Sample gaps recorded on sessions (missed polls, breaker-open windows, vanished nodes).", c.sampleGaps.Load())
	emit("appclassd_sample_gap_seconds_total", "Total wall time of recorded sample gaps.", "counter", float64(c.sampleGapNanos.Load())/1e9)
	counter("appclassd_durability_degraded_entries_total", "Transitions into degraded (memory-only) durability mode.", c.degradedEntries.Load())
	counter("appclassd_durability_degraded_exits_total", "Transitions back to full durability.", c.degradedExits.Load())
	counter("appclassd_placements_total", "Placement decisions served.", c.placements.Load())
	counter("appclassd_placement_errors_total", "Placement requests refused.", c.placementErrors.Load())
	counter("appclassd_releases_total", "Placements released.", c.releases.Load())
	counter("appclassd_journal_records_total", "Records appended to the write-ahead journal.", c.journalRecords.Load())
	counter("appclassd_journal_errors_total", "Failed journal appends.", c.journalErrors.Load())
	counter("appclassd_checkpoints_total", "Session checkpoints written.", c.checkpoints.Load())
	counter("appclassd_checkpoint_errors_total", "Failed checkpoint writes.", c.checkpointErrors.Load())
	counter("appclassd_replayed_snapshots_total", "Snapshots re-applied from the journal at startup.", c.replayedSnapshots.Load())
	counter("appclassd_recovered_sessions_total", "Sessions restored from a checkpoint at startup.", c.recoveredSessions.Load())
	counter("appclassd_journal_gap_segments_total", "Journal segments missing at recovery; their records are unrecoverable.", c.journalGapSegments.Load())
	counter("appclassd_unknown_snapshots_total", "Snapshots beyond their voted class's open-set distance threshold.", c.unknownSnapshots.Load())
	counter("appclassd_unknown_sessions_total", "Sessions finalized with an UNKNOWN open-set verdict.", c.unknownSessions.Load())
	counter("appclassd_phase_boundaries_total", "Phase boundaries detected by the online segmenter.", c.phaseBoundaries.Load())
	counter("appclassd_fingerprint_matches_total", "Finalized sessions whose phase fingerprint matched a dictionary entry.", c.fingerprintMatches.Load())
	counter("appclassd_fingerprint_misses_total", "Finalized phase fingerprints with no dictionary match over the threshold.", c.fingerprintMisses.Load())
	counter("appclassd_bin_handshakes_total", "Binary-ingest streams negotiated.", c.binHandshakes.Load())
	counter("appclassd_bin_batches_total", "Binary-ingest batch frames accepted.", c.binBatches.Load())
	counter("appclassd_bin_stale_streams_total", "Binary-ingest requests refused because their stream's model is no longer serving.", c.binStaleStreams.Load())
	counter("appclassd_bin_decode_errors_total", "Malformed binary-ingest frames rejected.", c.binDecodeErrors.Load())
	counter("appclassd_bin_streams_expired_total", "Binary-ingest streams dropped by the idle sweep.", c.binStreamsExpired.Load())
	counter("appclassd_model_loads_total", "Candidate models loaded via the model API.", c.modelLoads.Load())
	counter("appclassd_model_load_errors_total", "Failed model loads and candidate installs.", c.modelLoadErrors.Load())
	counter("appclassd_model_promotes_total", "Model hot swaps performed.", c.modelPromotes.Load())
	counter("appclassd_model_rollbacks_total", "Probation breaches rolled back automatically to the displaced model.", c.modelRollbacks.Load())
	counter("appclassd_probation_passes_total", "Probation windows that closed without a breach.", c.probationPasses.Load())
	counter("appclassd_model_discards_total", "Models removed from the registry.", c.modelDiscards.Load())
	counter("appclassd_retrain_runs_total", "Successful online-retraining passes.", c.retrainRuns.Load())
	counter("appclassd_retrain_errors_total", "Failed online-retraining passes.", c.retrainErrors.Load())
	counter("appclassd_model_rebind_errors_total", "Sessions that could not be rebound to a promoted model.", c.rebindErrors.Load())

	shards := s.reg.counts()
	total := 0
	for _, n := range shards {
		total += n
	}
	gauge("appclassd_sessions_active", "Live classification sessions.", float64(total))
	for i, n := range shards {
		gauge("appclassd_shard_sessions", "Live sessions per registry shard.", float64(n), "shard", strconv.Itoa(i))
	}
	// A gauge, not a counter: it sums HistoryDropped over live
	// sessions, so it shrinks when a session finalizes.
	var historyDropped int
	for _, sess := range s.reg.all() {
		sess.mu.Lock()
		historyDropped += sess.online.HistoryDropped()
		sess.mu.Unlock()
	}
	gauge("appclassd_history_dropped", "History entries trimmed by the retention cap across live sessions.", float64(historyDropped))
	// Poll-path health: the breaker's position and the time of the last
	// successful poll let an alert tell "daemon up, source down" from
	// "daemon down".
	gauge("appclassd_poll_breaker_state", "Poll circuit-breaker state (0 closed, 1 half-open, 2 open).", float64(c.breakerState.Load()))
	lastSuccess := -1.0
	if ns := c.pollLastSuccess.Load(); ns > 0 {
		lastSuccess = float64(ns) / 1e9
	}
	gauge("appclassd_poll_last_success_seconds", "Unix time of the last successful gmetad poll (-1 if never).", lastSuccess)
	inflightBytes, inflightRequests := s.admit.inflight()
	gauge("appclassd_ingest_inflight_bytes", "Request-body bytes of ingest requests currently admitted.", float64(inflightBytes))
	gauge("appclassd_ingest_inflight_requests", "Ingest requests currently admitted.", float64(inflightRequests))
	gauge("appclassd_bin_streams_active", "Open binary-ingest streams.", float64(s.binStreams.len()))

	if j := s.cfg.Journal; j != nil {
		js := j.Stats()
		gauge("appclassd_durability_degraded", "Whether ingest is memory-only because the journal is failing (1 degraded, 0 ok).", bit(s.DurabilityDegraded()))
		gauge("appclassd_journal_segments", "Journal segment files on disk, including the active one.", float64(js.Segments))
		gauge("appclassd_journal_bytes", "Total bytes of journal segments on disk.", float64(js.Bytes))
		// TruncatedSegments only grows while the journal is open, so it
		// is a counter (reset on restart like every other one).
		counter("appclassd_journal_truncated_segments_total", "Closed journal segments deleted once neither kept checkpoint replays from them.", js.TruncatedSegments)
		counter("appclassd_journal_corrupt_frames_total", "Corrupt journal frames stepped over at recovery; each cost its own record.", c.journalCorrupt.Load())
		for i, step := range recoverySteps {
			gauge("appclassd_recovery_seconds", "Wall time of each step of the start-up recovery: checkpoint restore, journal replay, closing checkpoint.", float64(c.recoveryNanos[i].Load())/1e9, "step", step)
		}
		fsyncAge := -1.0
		if !js.LastSync.IsZero() {
			fsyncAge = s.now().Sub(js.LastSync).Seconds()
		}
		gauge("appclassd_journal_last_fsync_age_seconds", "Seconds since the journal last fsynced (-1 if never).", fsyncAge)
		counter("appclassd_journal_appends_total", "Records the journal appended since open.", js.Appends)
		counter("appclassd_journal_syncs_total", "Journal fsyncs since open.", js.Syncs)
		counter("appclassd_journal_rotations_total", "Journal segment rotations since open.", js.Rotations)
		counter("appclassd_journal_scrub_scans_total", "Sealed journal segments examined by the scrubber since open.", js.ScrubScans)
		counter("appclassd_journal_scrub_repaired_segments_total", "Journal segments rewritten by the scrubber to drop damaged frames.", js.ScrubRepairedSegments)
		counter("appclassd_journal_scrub_lost_records_total", "Journal records inside damaged frames the scrubber could not save.", js.ScrubLostRecords)
		counter("appclassd_journal_scrub_quarantined_total", "Damaged journal segments preserved as .corrupt by the scrubber.", js.ScrubQuarantined)
	}
	if p := s.cfg.Placement; p != nil {
		ps := p.Stat()
		gauge("appclassd_hosts", "Hosts in the placement inventory.", float64(ps.Hosts))
		gauge("appclassd_slots", "Total application slots in the placement inventory.", float64(ps.Slots))
		gauge("appclassd_placements_active", "Active placements.", float64(ps.Placements))
	}

	gauge("appclassd_model_active_info", "The serving model, as a labeled constant gauge.", 1, "id", s.ActiveModelID())
	gauge("appclassd_model_swap_pause_seconds", "Duration of the most recent promote's quiesced swap window (0 before any swap).", float64(c.swapLastNanos.Load())/1e9)
	se := s.shadow.Load()
	gauge("appclassd_shadow_active", "Whether a candidate model is shadow-classifying live traffic.", bit(se != nil))
	if se != nil {
		sv := se.view()
		gauge("appclassd_shadow_snapshots", "Snapshots shadow-classified by the current candidate.", float64(sv.Snapshots), "candidate", sv.Candidate)
		gauge("appclassd_shadow_disagreements", "Shadowed snapshots where the candidate voted differently than the active model.", float64(sv.Disagree), "candidate", sv.Candidate)
		classes := make([]string, 0, len(sv.PerClass))
		for cl := range sv.PerClass {
			classes = append(classes, cl)
		}
		sort.Strings(classes)
		for _, cl := range classes {
			gauge("appclassd_shadow_class_disagreements", "Per-class shadow disagreement, keyed by the active model's vote.", float64(sv.PerClass[cl].Disagree), "candidate", sv.Candidate, "class", cl)
		}
		gauge("appclassd_shadow_unknown_rate_delta", "Candidate unknown rate minus active unknown rate over shadowed snapshots.", sv.UnknownRateDelta, "candidate", sv.Candidate)
		gauge("appclassd_shadow_latency_seconds", "Mean per-snapshot classification latency of the candidate.", float64(sv.MeanLatencyNanos)/1e9, "candidate", sv.Candidate)
		gauge("appclassd_shadow_errors", "Candidate classification errors over shadowed snapshots.", float64(sv.Errors), "candidate", sv.Candidate)
	}

	// The database Put on the finalize hot path.
	counter("appclassd_finalize_appends_total", "Session records appended to the application database.", c.finalizeAppends.Load())
	emit("appclassd_finalize_append_seconds_total", "Cumulative time spent appending finalized records to the application database.", "counter", float64(c.finalizeAppendNanos.Load())/1e9)
	gauge("appclassd_finalize_append_last_seconds", "Duration of the most recent finalize append (0 before any finalize).", float64(c.finalizeAppendLastNanos.Load())/1e9)
	gauge("appclassd_appdb_live_records", "Live records in the application database.", float64(s.cfg.DB.Len()))
	gauge("appclassd_appdb_apps", "Applications with a live record in the application database.", float64(len(s.cfg.DB.Apps())))
	if st, ok := s.cfg.DB.StoreStats(); ok {
		gauge("appclassd_appdb_segments", "Application-database segment files on disk, including the active one.", float64(st.Segments))
		gauge("appclassd_appdb_bytes", "Total bytes of application-database segments on disk.", float64(st.Bytes))
		gauge("appclassd_appdb_dead_records", "Tombstoned records awaiting compaction.", float64(st.DeadRecords))
		counter("appclassd_appdb_compactions_total", "Application-database compaction passes since open.", st.Compactions)
		counter("appclassd_appdb_pruned_records_total", "Records marked dead by pruning and retention since open.", st.PrunedRecords)
		counter("appclassd_appdb_dropped_records_total", "Records physically removed by compaction since open.", st.DroppedRecords)
		counter("appclassd_appdb_corrupt_frames_total", "Corrupt application-database frames skipped at open.", st.CorruptFrames)
		gauge("appclassd_appdb_append_last_seconds", "Duration of the store's most recent record append.", float64(st.AppendLastNanos)/1e9)
		counter("appclassd_appdb_record_reads_total", "Application-database record bodies read and decoded since open.", st.RecordReads)
		counter("appclassd_appdb_scrub_scans_total", "Closed application-database segments examined by the scrubber since open.", st.ScrubScans)
		counter("appclassd_appdb_scrub_repaired_segments_total", "Application-database segments rewritten by the scrubber to drop damaged frames.", st.ScrubRepairedSegments)
		counter("appclassd_appdb_scrub_lost_records_total", "Live application-database records inside damaged frames the scrubber could not save.", st.ScrubLostRecords)
		counter("appclassd_appdb_scrub_quarantined_total", "Damaged application-database segments preserved as .corrupt by the scrubber.", st.ScrubQuarantined)
	}

	// Probation: whether a freshly promoted model is still under its
	// displaced predecessor's guard, and how the guard sees it.
	pv := s.probationView()
	gauge("appclassd_probation_active", "Whether the serving model is inside its post-promote probation window.", bit(pv != nil))
	if pv != nil {
		gauge("appclassd_probation_remaining_seconds", "Seconds until the probation window closes.", pv.RemainingSeconds, "model", pv.Model, "guard", pv.Guard)
		gauge("appclassd_probation_snapshots", "Snapshots the probation guard has shadow-classified.", float64(pv.Shadow.Snapshots), "model", pv.Model, "guard", pv.Guard)
		gauge("appclassd_probation_unknown_rate", "Open-set unknown rate of the model under probation over guarded snapshots.", pv.Shadow.UnknownRateActive, "model", pv.Model, "guard", pv.Guard)
		gauge("appclassd_probation_guard_unknown_rate", "Open-set unknown rate of the displaced guard model over the same snapshots.", pv.Shadow.UnknownRateCandidate, "model", pv.Model, "guard", pv.Guard)
	}

	// Task supervision: the supervisor's lifetime totals, then one
	// info, restart and wedged series per supervised task.
	counter("appclassd_task_panics_total", "Panics captured in supervised background tasks.", s.sup.Panics())
	counter("appclassd_task_escalations_total", "Supervised tasks escalated to degraded after repeated panics.", s.sup.Escalations())
	counter("appclassd_task_wedge_events_total", "Heartbeat-deadline misses observed by the supervisor.", s.sup.Wedges())
	tasks := s.sup.Snapshot()
	for _, ts := range tasks {
		gauge("appclassd_task_info", "Supervised task state (1 per task, labeled with its status).", 1, "task", ts.Name, "status", ts.Status)
	}
	for _, ts := range tasks {
		counter("appclassd_task_restarts_total", "Restarts of each supervised task after a panic.", ts.Restarts, "task", ts.Name)
	}
	for _, ts := range tasks {
		gauge("appclassd_task_wedged", "Whether a supervised task has missed its heartbeat deadline.", bit(ts.Wedged), "task", ts.Name)
	}
	gauge("appclassd_uptime_seconds", "Seconds since the daemon started.", s.now().Sub(s.start).Seconds())
}

// handleMetricsz is GET /metricsz: collect's samples in the Prometheus
// text exposition format, each family's HELP and TYPE lines ahead of
// its first sample.
func (s *Server) handleMetricsz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	family, line := "", []byte(nil)
	s.collect(func(name, help, typ string, v float64, labels ...string) {
		if name != family {
			family = name
			fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
		}
		line = append(line[:0], name...)
		for i := 0; i+1 < len(labels); i += 2 {
			sep := byte(',')
			if i == 0 {
				sep = '{'
			}
			line = append(append(append(line, sep), labels[i]...), '=')
			line = strconv.AppendQuote(line, labels[i+1])
		}
		if len(labels) > 0 {
			line = append(line, '}')
		}
		line = append(line, ' ')
		// Integral values print without an exponent, others as %g does.
		if v == math.Trunc(v) && math.Abs(v) < 1<<53 {
			line = strconv.AppendInt(line, int64(v), 10)
		} else {
			line = strconv.AppendFloat(line, v, 'g', -1, 64)
		}
		line = append(line, '\n')
		_, _ = w.Write(line)
	})
}

// handleStatus is GET /v1/status: readiness, the durability mode, the
// supervised tasks and any running probation, plus every /metricsz
// series under metrics. An unlabeled family there is its value, a
// labeled one a list of {labels, value}.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	type sample struct {
		Labels map[string]string `json:"labels"`
		Value  float64           `json:"value"`
	}
	series := make(map[string]any)
	s.collect(func(name, _, _ string, v float64, labels ...string) {
		if len(labels) == 0 {
			series[name] = v
			return
		}
		l := make(map[string]string, len(labels)/2)
		for i := 0; i+1 < len(labels); i += 2 {
			l[labels[i]] = labels[i+1]
		}
		list, _ := series[name].([]sample)
		series[name] = append(list, sample{Labels: l, Value: v})
	})
	ready, reason := s.readiness()
	writeJSON(w, http.StatusOK, struct {
		Ready      bool                  `json:"ready"`
		Reason     string                `json:"reason,omitempty"`
		Durability string                `json:"durability"`
		Tasks      []supervise.TaskState `json:"tasks,omitempty"`
		Probation  *probationView        `json:"probation,omitempty"`
		Metrics    map[string]any        `json:"metrics"`
	}{ready, reason, s.durabilityMode(), s.sup.Snapshot(), s.probationView(), series})
}
