package server

import (
	"fmt"
	"io"
	"sync/atomic"

	"repro/internal/appclass"
	"repro/internal/appstore"
	"repro/internal/placement"
	"repro/internal/supervise"
	"repro/internal/wal"
)

// counters holds the daemon's observability state: monotonically
// increasing atomics rendered in Prometheus text exposition format by
// writeMetrics, with no external dependency.
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

// durabilityGauges is the journal-depth view rendered in /metricsz:
// the journal's stats snapshot plus how long ago it last fsynced
// (negative when it never has).
type durabilityGauges struct {
	journal         wal.Stats
	fsyncAgeSeconds float64
	// degraded reports whether ingest is currently memory-only because
	// the journal is failing.
	degraded bool
}

// superviseGauges is the task-supervision view rendered in /metricsz:
// the per-task states plus the supervisor's lifetime totals.
type superviseGauges struct {
	tasks       []supervise.TaskState
	panics      int64
	escalations int64
	wedges      int64
}

// resilienceGauges is the admission-control view rendered in /metricsz.
type resilienceGauges struct {
	inflightBytes    int64
	inflightRequests int64
	// binStreams is how many binary-ingest streams are currently open.
	binStreams int64
}

// writeMetrics renders every counter plus the caller-supplied gauges in
// Prometheus text format. pstats is nil when no placement service is
// configured; dg is nil when no journal is configured; historyDropped
// sums Online.HistoryDropped over live sessions.
func (c *counters) writeMetrics(w io.Writer, sessions []int, uptimeSeconds float64, pstats *placement.Stats, historyDropped int64, dg *durabilityGauges, rg resilienceGauges, mg modelGauges, sg *appstore.Stats, tg superviseGauges) {
	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	counter("appclassd_snapshots_ingested_total", "Snapshots accepted over the push API and the gmetad poller.", c.ingested.Load())
	counter("appclassd_ingest_errors_total", "Rejected ingest batches and failed snapshot observations.", c.ingestErrors.Load())

	fmt.Fprintf(w, "# HELP appclassd_classifications_total Snapshot classifications by class.\n# TYPE appclassd_classifications_total counter\n")
	for _, cl := range appclass.All() {
		fmt.Fprintf(w, "appclassd_classifications_total{class=%q} %d\n", cl, c.classifications[cl].Load())
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
	fmt.Fprintf(w, "# HELP appclassd_sample_gap_seconds_total Total wall time of recorded sample gaps.\n# TYPE appclassd_sample_gap_seconds_total counter\nappclassd_sample_gap_seconds_total %g\n",
		float64(c.sampleGapNanos.Load())/1e9)
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

	total := 0
	for _, n := range sessions {
		total += n
	}
	fmt.Fprintf(w, "# HELP appclassd_sessions_active Live classification sessions.\n# TYPE appclassd_sessions_active gauge\nappclassd_sessions_active %d\n", total)
	fmt.Fprintf(w, "# HELP appclassd_shard_sessions Live sessions per registry shard.\n# TYPE appclassd_shard_sessions gauge\n")
	for i, n := range sessions {
		fmt.Fprintf(w, "appclassd_shard_sessions{shard=\"%d\"} %d\n", i, n)
	}
	// appclassd_history_dropped is a gauge (no _total suffix): it sums
	// HistoryDropped over *live* sessions, so it shrinks when a session
	// finalizes.
	fmt.Fprintf(w, "# HELP appclassd_history_dropped History entries trimmed by the retention cap across live sessions.\n# TYPE appclassd_history_dropped gauge\nappclassd_history_dropped %d\n", historyDropped)
	// Poll-path health gauges: the breaker's position and the unix time
	// of the last successful poll (-1 before the first success) let an
	// alert distinguish "daemon up, source down" from "daemon down".
	fmt.Fprintf(w, "# HELP appclassd_poll_breaker_state Poll circuit-breaker state (0 closed, 1 half-open, 2 open).\n# TYPE appclassd_poll_breaker_state gauge\nappclassd_poll_breaker_state %d\n", c.breakerState.Load())
	lastSuccess := -1.0
	if ns := c.pollLastSuccess.Load(); ns > 0 {
		lastSuccess = float64(ns) / 1e9
	}
	fmt.Fprintf(w, "# HELP appclassd_poll_last_success_seconds Unix time of the last successful gmetad poll (-1 if never).\n# TYPE appclassd_poll_last_success_seconds gauge\nappclassd_poll_last_success_seconds %g\n", lastSuccess)
	fmt.Fprintf(w, "# HELP appclassd_ingest_inflight_bytes Request-body bytes of ingest requests currently admitted.\n# TYPE appclassd_ingest_inflight_bytes gauge\nappclassd_ingest_inflight_bytes %d\n", rg.inflightBytes)
	fmt.Fprintf(w, "# HELP appclassd_ingest_inflight_requests Ingest requests currently admitted.\n# TYPE appclassd_ingest_inflight_requests gauge\nappclassd_ingest_inflight_requests %d\n", rg.inflightRequests)
	fmt.Fprintf(w, "# HELP appclassd_bin_streams_active Open binary-ingest streams.\n# TYPE appclassd_bin_streams_active gauge\nappclassd_bin_streams_active %d\n", rg.binStreams)
	if dg != nil {
		degraded := 0
		if dg.degraded {
			degraded = 1
		}
		fmt.Fprintf(w, "# HELP appclassd_durability_degraded Whether ingest is memory-only because the journal is failing (1 degraded, 0 ok).\n# TYPE appclassd_durability_degraded gauge\nappclassd_durability_degraded %d\n", degraded)
		fmt.Fprintf(w, "# HELP appclassd_journal_segments Journal segment files on disk, including the active one.\n# TYPE appclassd_journal_segments gauge\nappclassd_journal_segments %d\n", dg.journal.Segments)
		fmt.Fprintf(w, "# HELP appclassd_journal_bytes Total bytes of journal segments on disk.\n# TYPE appclassd_journal_bytes gauge\nappclassd_journal_bytes %d\n", dg.journal.Bytes)
		// Stats.TruncatedSegments only ever grows while the journal is
		// open, so exposing it as a counter is sound (it resets on
		// restart like every other counter here).
		fmt.Fprintf(w, "# HELP appclassd_journal_truncated_segments_total Closed journal segments deleted by the retention cap.\n# TYPE appclassd_journal_truncated_segments_total counter\nappclassd_journal_truncated_segments_total %d\n", dg.journal.TruncatedSegments)
		fmt.Fprintf(w, "# HELP appclassd_journal_last_fsync_age_seconds Seconds since the journal last fsynced (-1 if never).\n# TYPE appclassd_journal_last_fsync_age_seconds gauge\nappclassd_journal_last_fsync_age_seconds %g\n", dg.fsyncAgeSeconds)
		counter("appclassd_journal_appends_total", "Records the journal appended since open.", dg.journal.Appends)
		counter("appclassd_journal_syncs_total", "Journal fsyncs since open.", dg.journal.Syncs)
		counter("appclassd_journal_rotations_total", "Journal segment rotations since open.", dg.journal.Rotations)
		counter("appclassd_journal_scrub_scans_total", "Sealed journal segments examined by the scrubber since open.", dg.journal.ScrubScans)
		counter("appclassd_journal_scrub_repaired_segments_total", "Journal segments rewritten by the scrubber to drop damaged frames.", dg.journal.ScrubRepairedSegments)
		counter("appclassd_journal_scrub_lost_records_total", "Journal records inside damaged frames the scrubber could not save.", dg.journal.ScrubLostRecords)
		counter("appclassd_journal_scrub_quarantined_total", "Damaged journal segments preserved as .corrupt by the scrubber.", dg.journal.ScrubQuarantined)
	}
	if pstats != nil {
		fmt.Fprintf(w, "# HELP appclassd_hosts Hosts in the placement inventory.\n# TYPE appclassd_hosts gauge\nappclassd_hosts %d\n", pstats.Hosts)
		fmt.Fprintf(w, "# HELP appclassd_slots Total application slots in the placement inventory.\n# TYPE appclassd_slots gauge\nappclassd_slots %d\n", pstats.Slots)
		fmt.Fprintf(w, "# HELP appclassd_placements_active Active placements.\n# TYPE appclassd_placements_active gauge\nappclassd_placements_active %d\n", pstats.Placements)
	}
	fmt.Fprintf(w, "# HELP appclassd_model_active_info The serving model, as a labeled constant gauge.\n# TYPE appclassd_model_active_info gauge\nappclassd_model_active_info{id=%q} 1\n", mg.activeID)
	fmt.Fprintf(w, "# HELP appclassd_model_swap_pause_seconds Duration of the most recent promote's quiesced swap window (0 before any swap).\n# TYPE appclassd_model_swap_pause_seconds gauge\nappclassd_model_swap_pause_seconds %g\n",
		float64(mg.swapLastNanos)/1e9)
	shadowActive := 0
	if mg.shadow != nil {
		shadowActive = 1
	}
	fmt.Fprintf(w, "# HELP appclassd_shadow_active Whether a candidate model is shadow-classifying live traffic.\n# TYPE appclassd_shadow_active gauge\nappclassd_shadow_active %d\n", shadowActive)
	if sv := mg.shadow; sv != nil {
		fmt.Fprintf(w, "# HELP appclassd_shadow_snapshots Snapshots shadow-classified by the current candidate.\n# TYPE appclassd_shadow_snapshots gauge\nappclassd_shadow_snapshots{candidate=%q} %d\n", sv.Candidate, sv.Snapshots)
		fmt.Fprintf(w, "# HELP appclassd_shadow_disagreements Shadowed snapshots where the candidate voted differently than the active model.\n# TYPE appclassd_shadow_disagreements gauge\nappclassd_shadow_disagreements{candidate=%q} %d\n", sv.Candidate, sv.Disagree)
		fmt.Fprintf(w, "# HELP appclassd_shadow_class_disagreements Per-class shadow disagreement, keyed by the active model's vote.\n# TYPE appclassd_shadow_class_disagreements gauge\n")
		for cl, pair := range sv.PerClass {
			fmt.Fprintf(w, "appclassd_shadow_class_disagreements{candidate=%q,class=%q} %d\n", sv.Candidate, cl, pair.Disagree)
		}
		fmt.Fprintf(w, "# HELP appclassd_shadow_unknown_rate_delta Candidate unknown rate minus active unknown rate over shadowed snapshots.\n# TYPE appclassd_shadow_unknown_rate_delta gauge\nappclassd_shadow_unknown_rate_delta{candidate=%q} %g\n", sv.Candidate, sv.UnknownRateDelta)
		fmt.Fprintf(w, "# HELP appclassd_shadow_latency_seconds Mean per-snapshot classification latency of the candidate.\n# TYPE appclassd_shadow_latency_seconds gauge\nappclassd_shadow_latency_seconds{candidate=%q} %g\n", sv.Candidate, float64(sv.MeanLatencyNanos)/1e9)
		fmt.Fprintf(w, "# HELP appclassd_shadow_errors Candidate classification errors over shadowed snapshots.\n# TYPE appclassd_shadow_errors gauge\nappclassd_shadow_errors{candidate=%q} %d\n", sv.Candidate, sv.Errors)
	}
	// Finalize hot-path latency: the database Put per session finalize.
	counter("appclassd_finalize_appends_total", "Session records appended to the application database.", c.finalizeAppends.Load())
	fmt.Fprintf(w, "# HELP appclassd_finalize_append_seconds_total Cumulative time spent appending finalized records to the application database.\n# TYPE appclassd_finalize_append_seconds_total counter\nappclassd_finalize_append_seconds_total %g\n",
		float64(c.finalizeAppendNanos.Load())/1e9)
	fmt.Fprintf(w, "# HELP appclassd_finalize_append_last_seconds Duration of the most recent finalize append (0 before any finalize).\n# TYPE appclassd_finalize_append_last_seconds gauge\nappclassd_finalize_append_last_seconds %g\n",
		float64(c.finalizeAppendLastNanos.Load())/1e9)
	if sg != nil {
		// Segmented-store gauges (absent when the database is in-memory).
		fmt.Fprintf(w, "# HELP appclassd_appdb_segments Application-database segment files on disk, including the active one.\n# TYPE appclassd_appdb_segments gauge\nappclassd_appdb_segments %d\n", sg.Segments)
		fmt.Fprintf(w, "# HELP appclassd_appdb_bytes Total bytes of application-database segments on disk.\n# TYPE appclassd_appdb_bytes gauge\nappclassd_appdb_bytes %d\n", sg.Bytes)
		fmt.Fprintf(w, "# HELP appclassd_appdb_live_records Live records in the application database.\n# TYPE appclassd_appdb_live_records gauge\nappclassd_appdb_live_records %d\n", sg.LiveRecords)
		fmt.Fprintf(w, "# HELP appclassd_appdb_dead_records Tombstoned records awaiting compaction.\n# TYPE appclassd_appdb_dead_records gauge\nappclassd_appdb_dead_records %d\n", sg.DeadRecords)
		counter("appclassd_appdb_compactions_total", "Application-database compaction passes since open.", sg.Compactions)
		counter("appclassd_appdb_pruned_records_total", "Records marked dead by pruning and retention since open.", sg.PrunedRecords)
		counter("appclassd_appdb_dropped_records_total", "Records physically removed by compaction since open.", sg.DroppedRecords)
		counter("appclassd_appdb_corrupt_frames_total", "Corrupt application-database frames skipped at open.", sg.CorruptFrames)
		fmt.Fprintf(w, "# HELP appclassd_appdb_append_last_seconds Duration of the store's most recent record append.\n# TYPE appclassd_appdb_append_last_seconds gauge\nappclassd_appdb_append_last_seconds %g\n",
			float64(sg.AppendLastNanos)/1e9)
		counter("appclassd_appdb_scrub_scans_total", "Closed application-database segments examined by the scrubber since open.", sg.ScrubScans)
		counter("appclassd_appdb_scrub_repaired_segments_total", "Application-database segments rewritten by the scrubber to drop damaged frames.", sg.ScrubRepairedSegments)
		counter("appclassd_appdb_scrub_lost_records_total", "Live application-database records inside damaged frames the scrubber could not save.", sg.ScrubLostRecords)
		counter("appclassd_appdb_scrub_quarantined_total", "Damaged application-database segments preserved as .corrupt by the scrubber.", sg.ScrubQuarantined)
	}
	// Probation: whether a freshly promoted model is still under its
	// displaced predecessor's guard, and how the guard sees it.
	probationActive := 0
	if mg.probation != nil {
		probationActive = 1
	}
	fmt.Fprintf(w, "# HELP appclassd_probation_active Whether the serving model is inside its post-promote probation window.\n# TYPE appclassd_probation_active gauge\nappclassd_probation_active %d\n", probationActive)
	if pv := mg.probation; pv != nil {
		fmt.Fprintf(w, "# HELP appclassd_probation_remaining_seconds Seconds until the probation window closes.\n# TYPE appclassd_probation_remaining_seconds gauge\nappclassd_probation_remaining_seconds{model=%q,guard=%q} %g\n", pv.Model, pv.Guard, pv.RemainingSeconds)
		fmt.Fprintf(w, "# HELP appclassd_probation_snapshots Snapshots the probation guard has shadow-classified.\n# TYPE appclassd_probation_snapshots gauge\nappclassd_probation_snapshots{model=%q,guard=%q} %d\n", pv.Model, pv.Guard, pv.Shadow.Snapshots)
		fmt.Fprintf(w, "# HELP appclassd_probation_unknown_rate Open-set unknown rate of the model under probation over guarded snapshots.\n# TYPE appclassd_probation_unknown_rate gauge\nappclassd_probation_unknown_rate{model=%q,guard=%q} %g\n", pv.Model, pv.Guard, pv.Shadow.UnknownRateActive)
		fmt.Fprintf(w, "# HELP appclassd_probation_guard_unknown_rate Open-set unknown rate of the displaced guard model over the same snapshots.\n# TYPE appclassd_probation_guard_unknown_rate gauge\nappclassd_probation_guard_unknown_rate{model=%q,guard=%q} %g\n", pv.Model, pv.Guard, pv.Shadow.UnknownRateCandidate)
	}
	// Task supervision: one info/restart/wedged series per supervised
	// task plus the supervisor's lifetime totals.
	counter("appclassd_task_panics_total", "Panics captured in supervised background tasks.", tg.panics)
	counter("appclassd_task_escalations_total", "Supervised tasks escalated to degraded after repeated panics.", tg.escalations)
	counter("appclassd_task_wedge_events_total", "Heartbeat-deadline misses observed by the supervisor.", tg.wedges)
	if len(tg.tasks) > 0 {
		fmt.Fprintf(w, "# HELP appclassd_task_info Supervised task state (1 per task, labeled with its status).\n# TYPE appclassd_task_info gauge\n")
		for _, ts := range tg.tasks {
			fmt.Fprintf(w, "appclassd_task_info{task=%q,status=%q} 1\n", ts.Name, ts.Status)
		}
		fmt.Fprintf(w, "# HELP appclassd_task_restarts_total Restarts of each supervised task after a panic.\n# TYPE appclassd_task_restarts_total counter\n")
		for _, ts := range tg.tasks {
			fmt.Fprintf(w, "appclassd_task_restarts_total{task=%q} %d\n", ts.Name, ts.Restarts)
		}
		fmt.Fprintf(w, "# HELP appclassd_task_wedged Whether a supervised task has missed its heartbeat deadline.\n# TYPE appclassd_task_wedged gauge\n")
		for _, ts := range tg.tasks {
			wedged := 0
			if ts.Wedged {
				wedged = 1
			}
			fmt.Fprintf(w, "appclassd_task_wedged{task=%q} %d\n", ts.Name, wedged)
		}
	}
	fmt.Fprintf(w, "# HELP appclassd_uptime_seconds Seconds since the daemon started.\n# TYPE appclassd_uptime_seconds gauge\nappclassd_uptime_seconds %g\n", uptimeSeconds)
}
