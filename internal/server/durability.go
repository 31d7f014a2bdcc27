package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/classify"
	"repro/internal/wal"
)

// checkpointPayload is the JSON document a checkpoint stores: one
// serialized Online state per live session, plus the wall-clock moment
// each session last saw a snapshot (so idle-TTL accounting survives a
// restart).
type checkpointPayload struct {
	Sessions []sessionCheckpoint `json:"sessions"`
}

type sessionCheckpoint struct {
	VM             string               `json:"vm"`
	LastSeenUnixNS int64                `json:"last_seen_unix_ns"`
	State          classify.OnlineState `json:"state"`
}

// Checkpoint serializes every live session together with the current
// journal position into an atomically written checkpoint file. Recovery
// is then "restore these sessions, replay the journal from this
// position". It writes nothing when no session state has changed, and
// the model is the same, since the last checkpoint this process wrote
// (see stateGen). No-op without a journal.
func (s *Server) Checkpoint() error {
	return s.checkpoint(false)
}

// checkpoint is Checkpoint; force writes one even when nothing has
// changed, to move the newest checkpoint to the journal's current
// position.
func (s *Server) checkpoint(force bool) error {
	j := s.cfg.Journal
	if j == nil {
		return nil
	}
	s.saveMu.Lock()
	defer s.saveMu.Unlock()
	// Quiesce ingest: with the write side of ckptMu held, no journal
	// append can interleave with its session-state application, so the
	// position and the states below are one consistent cut. A change
	// that bumps stateGen after this read is not missed: the next
	// checkpoint sees the new generation.
	s.ckptMu.Lock()
	gen := s.stateGen.Load()
	modelHash := s.activeModelHash()
	if !force && s.ckptSaved && gen == s.ckptGen && modelHash == s.ckptHash {
		s.ckptMu.Unlock()
		return nil
	}
	pos := j.Pos()
	var sessions []sessionCheckpoint
	for _, sess := range s.reg.all() {
		sess.mu.Lock()
		if !sess.finalized {
			sessions = append(sessions, sessionCheckpoint{
				VM:             sess.vm,
				LastSeenUnixNS: sess.lastSeen.UnixNano(),
				State:          sess.online.ExportState(),
			})
		}
		sess.mu.Unlock()
	}
	s.ckptMu.Unlock()

	// ExportState deep-copies, so encoding and the disk write happen
	// outside the quiesce.
	var seq uint64
	payload, err := encodeCheckpointPayload(sessions)
	if err == nil {
		seq, err = wal.SaveCheckpoint(j.Dir(), pos, s.now(), modelHash, payload)
	}
	if err != nil {
		s.counters.checkpointErrors.Add(1)
		return fmt.Errorf("server: checkpoint: %w", err)
	}
	// Everything before pos is folded into the checkpoint. Moving the
	// floor to pos.Seg deletes the segments below the previous floor,
	// which only the checkpoints SaveCheckpoint has pruned replay from.
	j.SetRetainFloor(pos.Seg)
	s.ckptSaved, s.ckptGen, s.ckptHash = true, gen, modelHash
	s.counters.checkpoints.Add(1)
	s.cfg.Logf("server: checkpoint %d: %d session(s) at seg %d off %d",
		seq, len(sessions), pos.Seg, pos.Off)
	return nil
}

// encodeCheckpointPayload returns json.Marshal of
// checkpointPayload{Sessions: sessions}, byte for byte: the sessions
// are encoded on GOMAXPROCS workers, each taking the next unencoded
// session, and spliced into the document in order. No sessions encode
// as {"sessions":null}, as the nil slice does.
func encodeCheckpointPayload(sessions []sessionCheckpoint) ([]byte, error) {
	if len(sessions) == 0 {
		return []byte(`{"sessions":null}`), nil
	}
	parts := make([][]byte, len(sessions))
	errs := make([]error, len(sessions))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), len(sessions)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(sessions); i = int(next.Add(1)) - 1 {
				parts[i], errs[i] = json.Marshal(&sessions[i])
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, fmt.Errorf("encode sessions: %w", err)
	}
	const head, tail = `{"sessions":[`, `]}`
	n := len(head) + len(parts) - 1 + len(tail)
	for _, p := range parts {
		n += len(p)
	}
	doc := append(make([]byte, 0, n), head...)
	for i, p := range parts {
		if i > 0 {
			doc = append(doc, ',')
		}
		doc = append(doc, p...)
	}
	return append(doc, tail...), nil
}

// StartCheckpointer launches the periodic checkpoint loop (cadence
// Config.CheckpointEvery) as a supervised task; leaving degraded
// durability kicks it early. A finish does not: its stamped marker
// makes replay idempotent, so the periodic checkpoint only bounds how
// much replay does, as it does for ingest. The heartbeat beats per
// iteration, so a checkpoint quiesce that never drains (ckptMu held
// forever by a stuck reader) is detected as a wedged task and surfaced
// through /readyz instead of silently leaving the journal to grow
// unbounded. No-op without a journal.
func (s *Server) StartCheckpointer() {
	if s.cfg.Journal == nil {
		return
	}
	s.every("checkpointer", s.cfg.CheckpointEvery, 4*s.cfg.CheckpointEvery, s.ckptKick, func() {
		if err := s.Checkpoint(); err != nil {
			s.cfg.Logf("server: %v", err)
		}
	})
}

// kickCheckpointer requests a prompt checkpoint without blocking; a
// kick while one is already pending coalesces.
func (s *Server) kickCheckpointer() {
	select {
	case s.ckptKick <- struct{}{}:
	default:
	}
}

// RecoveryStats reports what Recover rebuilt.
type RecoveryStats struct {
	// CheckpointSeq is the checkpoint recovery started from (0 if none).
	CheckpointSeq uint64
	// Sessions restored from the checkpoint.
	Sessions int
	// Records, Snapshots, and Finalized count journal-tail replay work:
	// batch records applied, snapshots inside them, and finalize markers
	// honored.
	Records   int
	Snapshots int
	Finalized int
	// AlreadyStored counts stamped finalize markers whose record the
	// database already held: the finish completed before the crash, so
	// replay dropped the session and stored nothing.
	AlreadyStored int
	// Errors counts records that could not be applied (logged, skipped).
	Errors int
	// CorruptFrames counts bad journal frames the walk stepped over (bit
	// rot, or a record kind this build cannot decode): each cost its own
	// record, and every intact record behind it was replayed.
	CorruptFrames int
	// Truncated reports a journal segment that did not end on an intact
	// frame — a torn tail, the normal crash shape: recovery's one walk
	// cut it after its last intact frame (quarantined it if its header
	// never reached the disk, which is no gap) and went on.
	Truncated bool
	// GapSegments lists journal segment sequence numbers that were
	// missing from the replay range: records in them are unrecoverable
	// (deleted out of band, or pruned by a pre-floor retention pass).
	GapSegments []uint64
	// Restore, Replay, and Checkpoint are the wall time of recovery's
	// three steps: restoring the checkpoint's sessions (with the model
	// checks), the journal walk with every batch applied, and the
	// closing checkpoint.
	Restore, Replay, Checkpoint time.Duration
}

// Recover rebuilds live sessions after a restart: it restores each
// session serialized in the checkpoint the journal's Open found (if
// any), checks from their headers that the journal segments to replay
// were written under the serving model, then replays the journal from
// the checkpoint's position in one walk (see wal.Journal.Recover). The
// walk hands each batch to one of GOMAXPROCS replay workers chosen by
// its VM name, so every VM's batches re-classify into its session in
// journal order while different VMs classify on different cores. A
// finalize marker waits until every batch before it has been applied,
// then runs on the walk: it finalizes into the application database
// unless the database already holds the record the marker's stamp
// names, so each finish is stored once however often recovery runs,
// and database appends keep journal order. A refused recovery leaves
// the journal untouched. It finishes by writing a fresh checkpoint
// covering everything recovered. Call it once, after New and before
// serving traffic; it must not race ingest, and it returns only after
// every replay worker has exited. No-op without a journal.
func (s *Server) Recover() (RecoveryStats, error) {
	var rs RecoveryStats
	j := s.cfg.Journal
	if j == nil {
		return rs, nil
	}
	t0 := time.Now()
	from, err := s.restoreCheckpoint(j.TakeCheckpoint(), &rs)
	if err != nil {
		return rs, err
	}
	if err := s.checkReplayModels(j.Dir(), from.Seg); err != nil {
		return rs, err
	}
	t1 := time.Now()
	rs.Restore = t1.Sub(t0)

	// The walk steps over bad frames and cuts every segment after its
	// last intact frame, so a tear this crash left is gone before any
	// record of this run follows it.
	rp := s.startReplay()
	replay, err := j.Recover(from, func(pos wal.Position, rec wal.Record) error {
		switch rec.Type {
		case wal.RecordBatch:
			rp.dispatch(pos, rec)
		case wal.RecordFinalize:
			rp.barrier()
			rs.Records++
			s.sawStamp(rec.At)
			sess, ok := s.reg.get(rec.VM)
			if !ok {
				// Session finalized with no prior state in this tail — its
				// batches were all covered by the checkpoint cut or it never
				// classified anything. Nothing to finalize again.
				return nil
			}
			if rec.At != 0 && s.cfg.DB.HasRun(rec.VM, rec.At) {
				sess.mu.Lock()
				sess.finalized = true
				s.stateGen.Add(1)
				s.reg.remove(sess.vm, sess)
				sess.mu.Unlock()
				rs.AlreadyStored++
				return nil
			}
			// An unstamped marker, from a journal written before stamps,
			// takes a fresh stamp.
			if _, ok := s.finalize(sess, false, rec.At); ok {
				rs.Finalized++
			}
		}
		return nil
	})
	rp.stop(&rs)
	if err != nil {
		return rs, fmt.Errorf("server: recover: %w", err)
	}
	rs.Truncated = replay.Truncated // the journal logs each cut
	rs.CorruptFrames = replay.CorruptFrames
	s.counters.journalCorrupt.Add(int64(replay.CorruptFrames))
	if len(replay.MissingSegments) > 0 {
		rs.GapSegments = replay.MissingSegments
		s.counters.journalGapSegments.Add(int64(len(replay.MissingSegments)))
		s.cfg.Logf("server: recover: JOURNAL GAP: segment(s) %v missing from %s — records in them are unrecoverable and the recovered state may be incomplete",
			replay.MissingSegments, j.Dir())
	}
	t2 := time.Now()
	rs.Replay = t2.Sub(t1)
	// Checkpoint immediately: the recovered state now covers everything
	// on disk, so pinning it (and the retention floor) to the journal's
	// current position means a crash right after this restart replays
	// only post-restart records instead of re-walking old segments.
	// Failure is not fatal — the cut journal alone already replays
	// correctly from the previous checkpoint.
	if err := s.Checkpoint(); err != nil {
		s.cfg.Logf("server: recover: post-recovery checkpoint: %v", err)
	}
	rs.Checkpoint = time.Since(t2)
	for i, d := range []time.Duration{rs.Restore, rs.Replay, rs.Checkpoint} {
		s.counters.recoveryNanos[i].Store(d.Nanoseconds())
	}
	if rs.Sessions > 0 || rs.Records > 0 {
		s.cfg.Logf("server: recovered %d session(s) from checkpoint %d, replayed %d record(s) (%d snapshot(s), %d finalize(s), %d already stored, %d error(s), %d corrupt frame(s) stepped over) in %v: restore %v, replay %v, checkpoint %v",
			rs.Sessions, rs.CheckpointSeq, rs.Records, rs.Snapshots, rs.Finalized, rs.AlreadyStored, rs.Errors, rs.CorruptFrames,
			time.Since(t0).Round(time.Microsecond), rs.Restore.Round(time.Microsecond), rs.Replay.Round(time.Microsecond), rs.Checkpoint.Round(time.Microsecond))
	}
	return rs, nil
}

// restoreCheckpoint restores the sessions serialized in cp, the
// checkpoint recovery starts from (nil for none), counting them in rs,
// and returns the journal position replay resumes from.
func (s *Server) restoreCheckpoint(cp *wal.Checkpoint, rs *RecoveryStats) (wal.Position, error) {
	if cp == nil {
		return wal.Position{}, nil
	}
	activeHash := s.activeModelHash()
	// A checkpoint's serialized sessions (per-metric drift state,
	// fused-space segmenter history, training reservoirs) are only
	// meaningful under the exact model that produced them, so a hash
	// mismatch refuses recovery outright. -recover-force downgrades the
	// refusal: the checkpoint is discarded and the journal tail alone
	// is replayed under the current model.
	restoreSessions := true
	switch {
	case cp.ModelHash == "":
		s.cfg.Logf("server: recover: checkpoint %d predates model stamping; assuming it matches model %s", cp.Seq, s.ActiveModelID())
	case cp.ModelHash != activeHash:
		if !s.cfg.RecoverForce {
			return wal.Position{}, fmt.Errorf("server: recover: checkpoint %d was written under model %s but this daemon is serving model %s — serialized session state is not portable across models; start the daemon with the matching model, or pass -recover-force to discard the checkpoint and rebuild from the journal tail only",
				cp.Seq, cp.ModelHash, activeHash)
		}
		restoreSessions = false
		s.cfg.Logf("server: recover: FORCED past model mismatch: discarding checkpoint %d (model %s != active %s); sessions will be rebuilt from the journal tail only and may be incomplete",
			cp.Seq, cp.ModelHash, activeHash)
	}
	rs.CheckpointSeq = cp.Seq
	if !restoreSessions {
		return cp.Pos, nil
	}
	var payload checkpointPayload
	if err := json.Unmarshal(cp.Payload, &payload); err != nil {
		return wal.Position{}, fmt.Errorf("server: recover: decode checkpoint %d: %w", cp.Seq, err)
	}
	for _, sc := range payload.Sessions {
		online, err := classify.RestoreOnline(s.activeClassifier(), s.cfg.Schema, sc.State)
		if err != nil {
			return wal.Position{}, fmt.Errorf("server: recover: session %s: %w", sc.VM, err)
		}
		// The restored segmenter (if any) carries on; only the open-set
		// thresholds need re-attaching — they are never checkpointed.
		s.armOnline(online)
		sess := &session{vm: sc.VM, online: online, lastSeen: time.Unix(0, sc.LastSeenUnixNS), model: s.ActiveModelID()}
		if _, created, err := s.reg.getOrCreate(sc.VM, func() (*session, error) {
			return sess, nil
		}); err != nil {
			return wal.Position{}, fmt.Errorf("server: recover: session %s: %w", sc.VM, err)
		} else if !created {
			return wal.Position{}, fmt.Errorf("server: recover: duplicate session %s in checkpoint %d", sc.VM, cp.Seq)
		}
		rs.Sessions++
	}
	s.counters.recoveredSessions.Add(int64(rs.Sessions))
	return cp.Pos, nil
}

// checkReplayModels checks that the journal segments replay will
// walk, those numbered from and up, were written under the active
// model: a record framed under a different model's schema/format is
// not safe to re-classify. Unstamped (v1) segments are allowed through
// with a note.
func (s *Server) checkReplayModels(dir string, from uint64) error {
	hashes, err := wal.SegmentHashes(dir, from)
	if err != nil {
		s.cfg.Logf("server: recover: scan segment headers: %v", err)
		return nil
	}
	activeHash := s.activeModelHash()
	var mismatched []uint64
	unstamped := 0
	for seq, h := range hashes {
		switch h {
		case "":
			unstamped++
		case activeHash:
		default:
			mismatched = append(mismatched, seq)
		}
	}
	if unstamped > 0 {
		s.cfg.Logf("server: recover: %d journal segment(s) predate model stamping; assuming they match model %s", unstamped, s.ActiveModelID())
	}
	if len(mismatched) == 0 {
		return nil
	}
	sort.Slice(mismatched, func(a, b int) bool { return mismatched[a] < mismatched[b] })
	if !s.cfg.RecoverForce {
		return fmt.Errorf("server: recover: journal segment(s) %v were written under a different model than the active %s — refusing to replay them; start the daemon with the matching model, or pass -recover-force to replay anyway",
			mismatched, activeHash)
	}
	s.cfg.Logf("server: recover: FORCED past model mismatch in journal segment(s) %v; replaying them under model %s anyway", mismatched, s.ActiveModelID())
	return nil
}

// replayQueue bounds each replay worker's backlog, so replay holds a
// few dozen records per worker in memory, never the journal.
const replayQueue = 32

// replayer applies journaled batches on VM-keyed workers. Batches of
// one VM always go to the same worker, whose queue is FIFO, so each
// session sees its batches in journal order.
type replayer struct {
	s      *Server
	queues []chan replayItem
	// pending counts batches dispatched but not yet applied; barrier
	// waits for it to drain. Only the walk adds and waits.
	pending sync.WaitGroup
	workers sync.WaitGroup
	counts  []replayCounts // one per worker, written as it exits
}

type replayItem struct {
	pos wal.Position
	rec wal.Record
}

type replayCounts struct{ records, snapshots, errors int }

// startReplay starts one replay worker per P.
func (s *Server) startReplay() *replayer {
	n := runtime.GOMAXPROCS(0)
	rp := &replayer{s: s, queues: make([]chan replayItem, n), counts: make([]replayCounts, n)}
	for i := range rp.queues {
		rp.queues[i] = make(chan replayItem, replayQueue)
		rp.workers.Add(1)
		go rp.work(i)
	}
	return rp
}

// work applies worker i's batches in arrival order. An apply error is
// counted and logged and never aborts replay.
func (rp *replayer) work(i int) {
	defer rp.workers.Done()
	var c replayCounts
	for it := range rp.queues[i] {
		if _, _, err := rp.s.observeBatch(it.rec.VM, it.rec.Snaps, nil, false); err != nil {
			c.errors++
			rp.s.cfg.Logf("server: recover: replay batch for %s at seg %d off %d: %v",
				it.rec.VM, it.pos.Seg, it.pos.Off, err)
		} else {
			c.records++
			c.snapshots += len(it.rec.Snaps)
			rp.s.counters.replayedSnapshots.Add(int64(len(it.rec.Snaps)))
		}
		rp.pending.Done()
	}
	rp.counts[i] = c
}

// dispatch queues a batch record on its VM's worker, blocking while
// that worker's queue is full.
func (rp *replayer) dispatch(pos wal.Position, rec wal.Record) {
	rp.pending.Add(1)
	rp.queues[fnv1a(rec.VM)%uint32(len(rp.queues))] <- replayItem{pos: pos, rec: rec}
}

// barrier returns once every batch dispatched so far has been applied.
func (rp *replayer) barrier() { rp.pending.Wait() }

// stop closes the queues, waits for every worker to exit, and adds
// their counts to rs.
func (rp *replayer) stop(rs *RecoveryStats) {
	for _, q := range rp.queues {
		close(q)
	}
	rp.workers.Wait()
	for _, c := range rp.counts {
		rs.Records += c.records
		rs.Snapshots += c.snapshots
		rs.Errors += c.errors
	}
}
