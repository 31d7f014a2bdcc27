// Package server implements appclassd, the long-running classification
// daemon: a concurrent HTTP service that classifies metric streams from
// many VMs at once against one trained classification center. Each VM
// gets a session in a mutex-striped registry wrapping a
// classify.Online instance; snapshots arrive either over the push API
// (POST /v1/ingest) or by polling a gmetad aggregator, query endpoints
// expose per-VM state and cluster-wide class counts for class-aware
// placement, and sessions are finalized into the application database
// on explicit finish, idle-TTL expiry, or graceful shutdown — the
// online half of the paper's Figure-1 loop running as a service.
package server

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/appclass"
	"repro/internal/appdb"
	"repro/internal/classify"
	"repro/internal/metrics"
	"repro/internal/modelreg"
	"repro/internal/phase"
	"repro/internal/placement"
	"repro/internal/resilience"
	"repro/internal/supervise"
	"repro/internal/wal"
)

// Config parameterizes the daemon.
type Config struct {
	// Classifier is the trained classification center (required).
	Classifier *classify.Classifier
	// Schema describes incoming snapshots. Nil means the canonical
	// 33-metric schema.
	Schema *metrics.Schema
	// DB receives finalized session records. Nil means a fresh
	// in-memory database.
	DB *appdb.DB
	// IdleTTL is how long a session may go without snapshots before the
	// janitor, sweeping every IdleTTL/4, finalizes and evicts it. Zero
	// means 5 minutes.
	IdleTTL time.Duration
	// Shards sets the registry stripe count. Zero means 16.
	Shards int
	// Placement is the class-aware placement service exposed under
	// /v1/placements and /v1/hosts. Nil disables the placement API (the
	// endpoints answer 503). The server wires the service's live
	// composition lookup to its session registry.
	Placement *placement.Service
	// Journal, when non-nil, makes ingest durable: every validated batch
	// is appended to the write-ahead journal before it is classified, a
	// finalize marker is journaled when a session ends, and Recover
	// rebuilds live sessions from the latest checkpoint plus the journal
	// tail after a crash. Nil keeps the daemon purely in-memory. The
	// caller owns the journal (and closes it after Shutdown).
	Journal *wal.Journal
	// CheckpointEvery is the cadence of the background checkpointer
	// started by StartCheckpointer. Zero means 30 seconds. Ignored
	// without a Journal.
	CheckpointEvery time.Duration
	// MaxInflightBytes bounds the total request-body bytes of ingest
	// requests in flight; requests over budget are shed with
	// 429 Retry-After instead of queueing. Zero means 64 MiB, negative
	// disables the byte budget.
	MaxInflightBytes int64
	// MaxInflightRequests bounds concurrent ingest requests the same
	// way. Zero means 256, negative disables the request budget.
	MaxInflightRequests int64
	// IngestTimeout bounds the handling of one ingest request; a batch
	// that cannot finish classifying within it is abandoned with 503.
	// Zero means no deadline.
	IngestTimeout time.Duration
	// DegradeOnWALError selects what a journal append failure does to
	// ingest: false (default) rejects the batch with 500 so no
	// acknowledged state can outrun the journal; true flips the daemon
	// into degraded durability mode — ingest continues memory-only,
	// /readyz answers 503, and rate-limited probes re-arm the journal
	// once the fault heals. Ignored without a Journal.
	DegradeOnWALError bool
	// DegradedProbeEvery rate-limits journal re-arm probes while
	// degraded. Zero means 5 seconds.
	DegradedProbeEvery time.Duration
	// SegmentWindow is the phase segmenter's half-window in snapshots:
	// boundaries are detected by comparing the mean fused feature vector
	// of the newest SegmentWindow snapshots against the SegmentWindow
	// before them. Zero means 8; negative disables online phase
	// segmentation entirely. The minimum phase length and boundary
	// threshold are phase.DefaultMinLen and phase.DefaultThreshold.
	SegmentWindow int
	// UnknownSlack scales the calibrated open-set thresholds: a snapshot
	// whose kth-neighbor distance exceeds slack x the training
	// self-distance quantile (classify.DefaultOpenSetQuantile) of its
	// voted class counts as unknown. Zero means 3.0; negative disables
	// the open-set UNKNOWN test.
	UnknownSlack float64
	// RecoverForce lets Recover proceed past a model-hash mismatch
	// between the on-disk checkpoint/journal and the configured model:
	// mismatching checkpoints are discarded (their session states were
	// serialized under a different model) and the journal tail is
	// replayed from scratch under the current model. Off by default —
	// a mismatch refuses recovery with a clear error.
	RecoverForce bool
	// TrainReservoir caps the per-session reservoir of raw snapshot rows
	// retained for online retraining. Zero means
	// classify.DefaultTrainReservoir; negative disables sampling (and
	// with it retraining from this daemon's records).
	TrainReservoir int
	// ModelDir, when set, confines POST /v1/models artifact paths: load
	// requests are resolved relative to it and may not escape it. Empty
	// means paths are taken as given (trusted operators only).
	ModelDir string
	// RetrainEvery is the online-retraining cadence of StartRetrainer:
	// every tick the daemon refits a classifier from the labeled
	// finalized sessions in the application database and shadow-evaluates
	// the result. Zero or negative disables retraining.
	RetrainEvery time.Duration
	// RetrainOut, when set, is where the retrainer persists each refit
	// artifact (atomic rename), ready for appdbtool inspection or manual
	// loading into another daemon.
	RetrainOut string
	// ScrubEvery is the background storage scrubber's cadence: every
	// tick it verifies one sealed journal segment and one closed
	// application-database segment frame-by-frame, repairing damage by
	// copy-forward and quarantining the damaged original. Zero or
	// negative disables scrubbing (appclassd enables it by default).
	ScrubEvery time.Duration
	// StoreMaintEvery is the cadence of the store maintenance task,
	// which compacts tombstoned application-database records between
	// segment rotations. Zero or negative disables it; it is a no-op on
	// the in-memory engine either way.
	StoreMaintEvery time.Duration
	// ProbationWindow puts every promoted model on probation: for this
	// long after a hot swap, the displaced model keeps classifying the
	// live traffic in shadow (the PR-7 machinery run in reverse) and a
	// breach of its guardrails (probationUnknownFactor,
	// probationDisagreeThreshold) rolls the promotion back automatically
	// through the same atomic swap. Zero or negative disables promotion
	// guardrails.
	ProbationWindow time.Duration
	// ProbationMinSnapshots is how many snapshots probation must observe
	// before the guardrails can trip (per class, a tenth of it). Zero
	// means 50.
	ProbationMinSnapshots int64
	// TaskBackoff schedules supervised-task restart delays after panics.
	// Zero-valued fields get supervise's defaults (base 1s, max 1m).
	TaskBackoff resilience.Backoff
	// TaskMaxRestarts is how many consecutive panics escalate a
	// supervised task into the degraded state /readyz reports. Zero
	// means 5.
	TaskMaxRestarts int
	// TaskIntercept, when set, runs at the top of every supervised task
	// attempt. It exists for fault injection (faultinject.TaskChaos
	// panics or blocks inside it); production leaves it nil.
	TaskIntercept func(task string)
	// Dashboard mounts the embedded control-plane dashboard under
	// /dashboard/ (appclassd -dashboard): live sessions, class mix,
	// breaker/durability state, and paginated finalized runs, all served
	// from assets compiled into the binary. Off by default; the JSON
	// endpoints backing it (/v1/status, /v1/classes, /v1/vms, /v1/runs)
	// are always on.
	Dashboard bool
	// EnablePprof mounts net/http/pprof's profiling handlers under
	// /debug/pprof/ on the daemon's mux. Off by default: the profiler
	// exposes goroutine stacks and heap contents, so it is opt-in
	// (appclassd -pprof).
	EnablePprof bool
	// Now supplies wall-clock time; tests inject fake clocks. Nil means
	// time.Now.
	Now func() time.Time
	// Logf receives operational log lines. Nil discards them.
	Logf func(format string, args ...any)
}

// Server is the appclassd daemon.
type Server struct {
	cfg      Config
	reg      *registry
	counters *counters
	mux      *http.ServeMux
	start    time.Time
	// scratch recycles both ingest protocols' per-request workspace.
	scratch sync.Pool

	// ckptMu orders ingest against checkpoints: the journal-append +
	// classify pair in observe/observeBatch (and the journal-append +
	// finalize pair in finalize) runs under the read side, and Checkpoint
	// takes the write side so the journal position it records and the
	// session states it serializes are one consistent cut — replay from a
	// checkpoint neither double-applies nor loses a record.
	ckptMu sync.RWMutex
	// ckptKick nudges the checkpointer loop after a finalization so the
	// finalize record's effect is captured promptly.
	ckptKick chan struct{}

	// segCfg is the phase segmenter configuration applied to every new
	// session (nil with segmentation disabled). Immutable after New.
	segCfg *phase.Config

	// models is the versioned model registry; active is the serving
	// model + open-set threshold pair, swapped atomically by Promote;
	// shadow is the candidate evaluation riding along live traffic (nil
	// when no candidate is staged); probation is the reverse evaluation
	// guarding the most recent promote (nil outside a probation window).
	// swapMu serializes model lifecycle transitions (load, promote,
	// discard, retrain-install, rollback) against each other — never
	// held during classification.
	models    *modelreg.Registry
	active    atomic.Pointer[activeModel]
	shadow    atomic.Pointer[shadowEval]
	probation atomic.Pointer[probationEval]
	swapMu    sync.Mutex

	// sup keeps the daemon's long-lived background loops (janitor,
	// checkpointer, poller, retrainer, store maintenance, scrubber,
	// probation watcher) alive across panics and observable when wedged.
	sup *supervise.Supervisor

	// admit sheds push-path load before it reaches any lock; degraded
	// tracks whether ingest is currently memory-only because the journal
	// is failing.
	admit    admission
	degraded degradedState

	// binStreams holds the negotiated binary-ingest streams.
	binStreams binRegistry

	mu      sync.Mutex
	httpSrv *http.Server
	stopc   chan struct{}
	stopped bool
	loops   sync.WaitGroup
}

// New builds a daemon. No goroutines are started: callers serve the
// Handler (or call Serve/ListenAndServe) and opt into StartJanitor and
// StartPoller, and must Shutdown to flush open sessions.
func New(cfg Config) (*Server, error) {
	if cfg.Classifier == nil {
		return nil, fmt.Errorf("server: nil classifier")
	}
	if cfg.Schema == nil {
		cfg.Schema = metrics.DefaultSchema()
	}
	if cfg.DB == nil {
		cfg.DB = appdb.New()
	}
	if cfg.IdleTTL <= 0 {
		cfg.IdleTTL = 5 * time.Minute
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if cfg.CheckpointEvery <= 0 {
		cfg.CheckpointEvery = 30 * time.Second
	}
	if cfg.MaxInflightBytes == 0 {
		cfg.MaxInflightBytes = defaultMaxInflightBytes
	}
	if cfg.MaxInflightRequests == 0 {
		cfg.MaxInflightRequests = defaultMaxInflightRequests
	}
	if cfg.DegradedProbeEvery <= 0 {
		cfg.DegradedProbeEvery = defaultDegradedProbeEvery
	}
	if cfg.ProbationMinSnapshots <= 0 {
		cfg.ProbationMinSnapshots = defaultProbationMinSnapshots
	}
	// Fail fast on a classifier/schema mismatch instead of on the first
	// ingest request.
	if _, err := classify.NewOnline(cfg.Classifier, cfg.Schema); err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	s := &Server{
		cfg:      cfg,
		reg:      newRegistry(cfg.Shards),
		counters: newCounters(),
		stopc:    make(chan struct{}),
		ckptKick: make(chan struct{}, 1),
	}
	s.start = cfg.Now()
	if cfg.MaxInflightBytes > 0 {
		s.admit.maxBytes = cfg.MaxInflightBytes
	}
	if cfg.MaxInflightRequests > 0 {
		s.admit.maxRequests = cfg.MaxInflightRequests
	}
	s.scratch.New = func() any { return &ingestScratch{} }
	if cfg.Placement != nil {
		cfg.Placement.SetLive(s.liveComposition)
	}
	if cfg.SegmentWindow >= 0 {
		s.segCfg = &phase.Config{Window: cfg.SegmentWindow, MinLen: phase.DefaultMinLen, Threshold: phase.DefaultThreshold}
		if s.segCfg.Window == 0 {
			s.segCfg.Window = phase.DefaultWindow
		}
	}
	var openset *classify.OpenSet
	if cfg.UnknownSlack >= 0 {
		os, err := cfg.Classifier.CalibrateOpenSet(classify.OpenSetConfig{Slack: cfg.UnknownSlack})
		if err != nil {
			return nil, fmt.Errorf("server: calibrate open-set thresholds: %w", err)
		}
		openset = os
	}

	// The boot model: the configured classifier under the effective
	// serving params, hashed, registered active, and stamped onto the
	// journal so every segment written from here carries its identity.
	params := modelreg.Params{
		OpenSetQuantile: -1, OpenSetSlack: -1,
		SegWindow: -1, SegMinLen: -1, SegThreshold: -1,
	}
	if openset != nil {
		oc := openset.Config()
		params.OpenSetQuantile, params.OpenSetSlack = oc.Quantile, oc.Slack
		for cl, cerr := range openset.SkippedClasses() {
			cfg.Logf("server: OPEN-SET CALIBRATION SKIPPED class %s: %v — the class will never flag unknown", cl, cerr)
		}
	}
	if c := s.segCfg; c != nil {
		params.SegWindow, params.SegMinLen, params.SegThreshold = c.Window, c.MinLen, c.Threshold
	}
	boot, err := modelreg.NewModel(cfg.Classifier, params, "boot", s.start.UnixNano())
	if err != nil {
		return nil, fmt.Errorf("server: hash boot model: %w", err)
	}
	s.models = modelreg.NewRegistry(boot)
	s.active.Store(&activeModel{model: boot, openset: openset})
	if cfg.Journal != nil {
		if err := cfg.Journal.SetModelHash(boot.Hash); err != nil {
			return nil, fmt.Errorf("server: stamp journal with model hash: %w", err)
		}
	}
	cfg.Logf("server: model %s (hash %s) active", boot.ID, boot.Hash.String())
	s.sup = supervise.New(supervise.Config{
		Backoff:     cfg.TaskBackoff,
		MaxRestarts: cfg.TaskMaxRestarts,
		Now:         cfg.Now,
		Logf:        cfg.Logf,
		Intercept:   cfg.TaskIntercept,
		OnEscalate: func(task string, restarts int64, lastPanic string) {
			s.putEvent("task_escalated", map[string]string{
				"task":     task,
				"restarts": fmt.Sprintf("%d", restarts),
				"panic":    lastPanic,
			})
		},
	})
	s.mux = s.routes()
	return s, nil
}

// armOnline attaches the daemon's phase segmentation, open-set, and
// training-reservoir configuration to a session's classifier. Restored
// sessions keep the segmenter and reservoir that came out of their
// checkpoint (re-attaching would drop accumulated state); the open-set
// thresholds are always re-attached because they are deterministic from
// the trained model and never serialized.
func (s *Server) armOnline(o *classify.Online) {
	if s.segCfg != nil && !o.SegmentationEnabled() {
		o.EnableSegmentation(*s.segCfg)
	}
	if os := s.activeOpenSet(); os != nil {
		o.EnableOpenSet(os)
	}
	if s.cfg.TrainReservoir >= 0 && !o.SamplingEnabled() {
		capRows := s.cfg.TrainReservoir
		if capRows == 0 {
			capRows = classify.DefaultTrainReservoir
		}
		o.EnableSampling(capRows)
	}
}

// liveComposition resolves a VM's live class composition for the
// placement service's prediction chain.
func (s *Server) liveComposition(app string) (map[appclass.Class]float64, bool) {
	sess, ok := s.reg.get(app)
	if !ok {
		return nil, false
	}
	sess.mu.Lock()
	view := sess.online.Snapshot()
	sess.mu.Unlock()
	if view.Total == 0 {
		return nil, false
	}
	return view.Composition, true
}

func (s *Server) now() time.Time { return s.cfg.Now() }

// DB returns the application database receiving finalized sessions.
func (s *Server) DB() *appdb.DB { return s.cfg.DB }

// Sessions returns the number of live sessions.
func (s *Server) Sessions() int { return s.reg.len() }

// Handler returns the daemon's HTTP API.
func (s *Server) Handler() http.Handler { return s.mux }

// Serve accepts connections on l until Shutdown. It returns nil after
// a graceful shutdown.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return fmt.Errorf("server: already shut down")
	}
	srv := &http.Server{Handler: s.mux}
	s.httpSrv = srv
	s.mu.Unlock()
	if err := srv.Serve(l); err != nil && err != http.ErrServerClosed {
		return err
	}
	return nil
}

// ListenAndServe listens on addr and serves until Shutdown.
func (s *Server) ListenAndServe(addr string) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(l)
}

// StartJanitor launches the idle-TTL eviction loop as a supervised
// task: a panic restarts it under backoff, and a sweep that wedges
// (e.g. behind a stuck session lock) misses its heartbeat and degrades
// /readyz instead of silently leaving sessions unevicted.
func (s *Server) StartJanitor() {
	sweep := s.cfg.IdleTTL / 4
	s.sup.Go("janitor", supervise.TaskOptions{Heartbeat: 4 * sweep}, func(stop <-chan struct{}, t *supervise.Task) {
		tick := time.NewTicker(sweep)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				t.Beat()
				if n := s.EvictIdle(); n > 0 {
					s.cfg.Logf("server: evicted %d idle session(s)", n)
				}
			}
		}
	})
}

// EvictIdle runs one janitor sweep: every session idle longer than
// IdleTTL is finalized into the application database and removed. It
// returns the number of sessions evicted.
func (s *Server) EvictIdle() int {
	deadline := s.now().Add(-s.cfg.IdleTTL)
	if n := s.binStreams.expire(deadline.UnixNano()); n > 0 {
		s.counters.binStreamsExpired.Add(int64(n))
	}
	evicted := 0
	for _, sess := range s.reg.all() {
		sess.mu.Lock()
		idle := sess.lastSeen.Before(deadline) && !sess.finalized
		sess.mu.Unlock()
		if !idle {
			continue
		}
		if _, ok := s.finalize(sess, true); ok {
			evicted++
			s.counters.evictions.Add(1)
		}
	}
	return evicted
}

// finalize removes sess from the registry and writes its record to the
// application database. ok is false if another finalizer won the race,
// or if the finalize marker could not be journaled. On success rec is
// the record stored, nil when nothing was (the session classified
// nothing, or the database refused the record). journal
// controls whether a finalize marker is appended to the write-ahead
// journal: live finalizations journal so crash recovery re-finalizes
// the session instead of resurrecting it; the replay path passes false
// because its records are already on disk. The marker is appended
// write-ahead — before the session is marked finalized, removed from
// the registry, or written to the database — mirroring the batch path,
// so a crash anywhere in this sequence replays into a state no newer
// than the journal. A finalize whose marker cannot be journaled does
// not proceed: the session stays live and the janitor retries later.
func (s *Server) finalize(sess *session, journal bool) (rec *appdb.Record, ok bool) {
	journal = journal && s.cfg.Journal != nil
	if journal && s.degraded.mode.Load() {
		// Degraded durability: finalize memory-only, like ingest. The next
		// checkpoint (forced when degraded mode exits) records the session
		// as gone, bounding how long a recovery could resurrect it.
		journal = false
	}
	if journal {
		// Hold the checkpoint read-lock across the marker append and the
		// state change so a checkpoint sees either both or neither.
		s.ckptMu.RLock()
		defer s.ckptMu.RUnlock()
	}
	sess.mu.Lock()
	if sess.finalized {
		sess.mu.Unlock()
		return nil, false
	}
	if journal {
		if _, err := s.cfg.Journal.AppendFinalize(sess.vm); err != nil {
			s.counters.journalErrors.Add(1)
			if !s.cfg.DegradeOnWALError {
				sess.mu.Unlock()
				s.cfg.Logf("server: journal finalize %s: %v (session kept live)", sess.vm, err)
				return nil, false
			}
			s.enterDegraded(err)
		} else {
			s.counters.journalRecords.Add(1)
		}
	}
	sess.finalized = true
	view := sess.online.Snapshot()
	modelID := sess.model
	trainMetrics, trainRows := sess.online.TrainSamples()
	// Unmap while still holding sess.mu (shard locks are never held
	// around session locks, so the order is safe): an ingest racing this
	// finalization either sees the session gone and builds a fresh one,
	// or waits on sess.mu and then retries against the registry.
	s.reg.remove(sess.vm, sess)
	sess.mu.Unlock()

	if journal {
		s.kickCheckpointer()
	}

	if view.Total == 0 {
		// A session that never classified anything (e.g. its first
		// Observe failed) has no record worth keeping.
		return nil, true
	}
	exec := view.LastAt - view.FirstAt
	if exec < 0 {
		exec = 0
	}
	rec = &appdb.Record{
		App:             sess.vm,
		Class:           view.Class,
		Composition:     view.Composition,
		ExecutionTime:   exec,
		Samples:         view.Total,
		Gaps:            view.Gaps,
		GapTime:         view.GapTime,
		Phases:          view.Phases,
		UnknownFraction: view.UnknownFraction,
		Verdict:         view.Verdict,
		ModelID:         modelID,
	}
	if len(trainRows) > 0 {
		rec.TrainMetrics = trainMetrics
		rec.TrainSamples = trainRows
	}
	if view.Verdict == appclass.Unknown {
		s.counters.unknownSessions.Add(1)
	}
	if fp := phase.NewFingerprint(view.Phases); !fp.Empty() {
		rec.Fingerprint = &fp
		// Match against the dictionary as it stood before this run's own
		// record lands, so a run can match an earlier run of itself under
		// a different VM name but never its own fingerprint.
		if m, ok := phase.BestMatch(fp, s.cfg.DB.Fingerprints()); ok && m.Score >= phase.DefaultMatchThreshold {
			rec.MatchedApp = m.App
			rec.MatchScore = m.Score
			s.counters.fingerprintMatches.Add(1)
		} else {
			s.counters.fingerprintMisses.Add(1)
		}
	}
	// Stamp the finalize time so both database engines store identical
	// records and Scan/retention can order by it.
	rec.FinalizedAt = s.now().UnixNano()
	putStart := s.now()
	if err := s.cfg.DB.Put(*rec); err != nil {
		s.counters.finalizeErrors.Add(1)
		s.cfg.Logf("server: finalize %s: %v", sess.vm, err)
		return nil, true
	}
	elapsed := s.now().Sub(putStart).Nanoseconds()
	s.counters.finalizeAppendLastNanos.Store(elapsed)
	s.counters.finalizeAppendNanos.Add(elapsed)
	s.counters.finalizeAppends.Add(1)
	return rec, true
}

// FlushAll finalizes every open session, returning how many were
// flushed.
func (s *Server) FlushAll() int {
	n := 0
	for _, sess := range s.reg.all() {
		if _, ok := s.finalize(sess, true); ok {
			n++
			s.counters.flushed.Add(1)
		}
	}
	return n
}

// Shutdown gracefully stops the daemon: background loops halt, the
// HTTP server (if serving) drains in-flight requests within ctx, every
// open session is flushed into the application database, and — when a
// journal is configured — a final checkpoint is written and the journal
// synced, so a clean restart recovers instantly with nothing to replay.
// Shutdown is idempotent.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return nil
	}
	s.stopped = true
	close(s.stopc)
	srv := s.httpSrv
	s.mu.Unlock()

	var err error
	if serr := s.sup.Stop(ctx); serr != nil {
		// A wedged task cannot be joined; report it and keep draining —
		// abandoning it is exactly what the shutdown timeout is for.
		s.cfg.Logf("server: shutdown: %v", serr)
		err = serr
	}
	s.loops.Wait()
	if srv != nil {
		if herr := srv.Shutdown(ctx); herr != nil && err == nil {
			err = herr
		}
	}
	if n := s.FlushAll(); n > 0 {
		s.cfg.Logf("server: flushed %d open session(s)", n)
	}
	if s.cfg.Journal != nil {
		// The final checkpoint covers every flush marker above: it has no
		// sessions and points past the last journal record.
		if cerr := s.Checkpoint(); cerr != nil {
			s.cfg.Logf("server: final checkpoint: %v", cerr)
			if err == nil {
				err = cerr
			}
		}
		if serr := s.cfg.Journal.Sync(); serr != nil {
			s.cfg.Logf("server: final journal sync: %v", serr)
			if err == nil {
				err = serr
			}
		}
	}
	return err
}

// phaseBoundaries converts a phase count into a boundary count: the
// first phase of a session is not preceded by a boundary.
func phaseBoundaries(phases int) int {
	if phases <= 0 {
		return 0
	}
	return phases - 1
}

// observe routes one validated snapshot into its VM's session,
// creating the session on first contact. It retries when it races a
// concurrent eviction of the same VM.
func (s *Server) observe(vm string, at time.Duration, values []float64) (string, error) {
	classes, durable, err := s.observeBatch(vm, []metrics.Snapshot{{Time: at, Node: vm, Values: values}}, nil, true)
	if err != nil {
		return "", err
	}
	if err := s.waitJournalDurable(durable); err != nil {
		return "", err
	}
	return string(classes[0]), nil
}

// waitJournalDurable blocks until the journal's group-commit fsync
// covers every token (the ascending durability tokens observeBatch
// returned for one request). The wait on the largest covers them all;
// each earlier one then only checks that its record survived, because
// a failed fsync can cut an earlier group's record while a later
// group's lands in a fresh segment. An fsync failure follows the same
// policy as a failed append: fatal to the request, unless
// DegradeOnWALError trades durability for liveness.
func (s *Server) waitJournalDurable(tokens ...int64) error {
	if s.cfg.Journal == nil {
		return nil
	}
	var err error
	for i := len(tokens) - 1; i >= 0 && err == nil; i-- {
		err = s.cfg.Journal.WaitDurable(tokens[i])
	}
	if err == nil {
		return nil
	}
	s.counters.journalErrors.Add(1)
	if s.cfg.DegradeOnWALError {
		s.enterDegraded(err)
		return nil
	}
	s.counters.ingestErrors.Add(1)
	return fmt.Errorf("server: journal fsync: %w", err)
}

// observeBatch routes a VM's whole snapshot group into its session
// under a single lock acquisition — the batched counterpart of observe.
// classes is an optional result buffer (reused when it has capacity);
// the returned slice is owned by the caller. It retries when it races a
// concurrent eviction of the same VM. journal selects write-ahead
// durability: live ingest journals the batch before classifying it (so
// a crash replays it), the recovery path passes false because its
// records come from the journal. The returned token is the batch's
// group-commit durability token: the caller must pass it, with every
// other token of a multi-batch request, to waitJournalDurable before
// acknowledging; zero means no wait is due.
func (s *Server) observeBatch(vm string, snaps []metrics.Snapshot, classes []appclass.Class, journal bool) ([]appclass.Class, int64, error) {
	if len(snaps) == 0 {
		return classes[:0], 0, nil
	}
	journal = journal && s.cfg.Journal != nil
	probing := false
	if journal && s.degraded.mode.Load() {
		// Degraded durability: ingest is memory-only. At most one batch
		// per DegradedProbeEvery probes the journal to re-arm it; the rest
		// skip it entirely so a dead disk is not hammered per batch.
		if s.durabilityProbeDue() && s.cfg.Journal.Revive() == nil {
			probing = true
		} else {
			journal = false
		}
	}
	var durable int64
	for attempt := 0; attempt < 3; attempt++ {
		sess, created, err := s.reg.getOrCreate(vm, func() (*session, error) {
			am := s.active.Load()
			online, err := classify.NewOnline(am.model.Classifier, s.cfg.Schema)
			if err != nil {
				return nil, err
			}
			s.armOnline(online)
			return &session{vm: vm, online: online, lastSeen: s.now(), model: am.model.ID}, nil
		})
		if err != nil {
			return nil, 0, err
		}
		if created {
			s.cfg.Logf("server: new session for %s", vm)
		}
		if journal {
			// The append + classify pair must be one atomic step from the
			// checkpointer's point of view; see ckptMu.
			s.ckptMu.RLock()
		}
		sess.mu.Lock()
		if sess.finalized {
			sess.mu.Unlock()
			if journal {
				s.ckptMu.RUnlock()
			}
			continue // lost a race with the janitor; re-resolve
		}
		// A session created in the narrow window around a hot swap can
		// still hold the previous model (getOrCreate runs outside the
		// promote quiesce); bind it forward before classifying so no
		// batch is served by a retired model.
		if am := s.active.Load(); sess.model != am.model.ID {
			if rerr := sess.online.Rebind(am.model.Classifier, am.openset); rerr != nil {
				s.counters.rebindErrors.Add(1)
				s.cfg.Logf("server: rebind %s to model %s: %v (session continues on %s)", vm, am.model.ID, rerr, sess.model)
			} else {
				sess.model = am.model.ID
			}
		}
		if journal {
			// Write-ahead: a batch that cannot be journaled is not
			// classified, so the journal is never behind the session state —
			// unless DegradeOnWALError trades that guarantee for liveness,
			// in which case the batch is classified memory-only and the
			// daemon drops into explicit degraded mode. Under group commit
			// only the write happens here; the fsync wait is deferred to
			// the caller's waitJournalDurable so a multi-group request
			// pays one durability wait, not one per VM group.
			if _, token, err := s.cfg.Journal.AppendBatchDeferred(vm, snaps); err != nil {
				s.counters.journalErrors.Add(1)
				if !s.cfg.DegradeOnWALError {
					sess.mu.Unlock()
					s.ckptMu.RUnlock()
					s.counters.ingestErrors.Add(1)
					return nil, 0, fmt.Errorf("server: journal batch for %s: %w", vm, err)
				}
				s.enterDegraded(err)
			} else {
				durable = token
				s.counters.journalRecords.Add(1)
				if probing {
					s.exitDegraded()
				}
			}
		}
		prevUnknown := sess.online.UnknownCount()
		prevPhases := sess.online.PhaseCount()
		out, err := sess.online.ObserveBatch(snaps, classes)
		if err == nil {
			sess.lastSeen = s.now()
		}
		newUnknown := sess.online.UnknownCount() - prevUnknown
		newPhases := phaseBoundaries(sess.online.PhaseCount()) - phaseBoundaries(prevPhases)
		sess.mu.Unlock()
		if newUnknown > 0 {
			s.counters.unknownSnapshots.Add(int64(newUnknown))
		}
		if newPhases > 0 {
			s.counters.phaseBoundaries.Add(int64(newPhases))
		}
		if journal {
			s.ckptMu.RUnlock()
		}
		if err != nil {
			s.counters.ingestErrors.Add(1)
			return nil, 0, err
		}
		s.counters.ingested.Add(int64(len(out)))
		for _, class := range out {
			s.counters.classified(class)
		}
		// Shadow-classify the batch on the candidate model, outside every
		// lock: the candidate sees exactly the traffic the active model
		// served but can only ever produce statistics.
		if se := s.shadow.Load(); se != nil {
			se.observe(snaps, out, newUnknown)
		}
		// During a probation window the displaced model does the same in
		// reverse, feeding the guardrails that can auto-roll the promote
		// back. One atomic load on the hot path, nil outside probation.
		if pb := s.probation.Load(); pb != nil {
			pb.eval.observe(snaps, out, newUnknown)
		}
		return out, durable, nil
	}
	return nil, 0, fmt.Errorf("server: session for %q kept being evicted mid-ingest", vm)
}
