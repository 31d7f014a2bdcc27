package server

import (
	"encoding/json"
	"fmt"
	"sort"
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
// position". No-op without a journal.
func (s *Server) Checkpoint() error {
	j := s.cfg.Journal
	if j == nil {
		return nil
	}
	// Quiesce ingest: with the write side of ckptMu held, no journal
	// append can interleave with its session-state application, so the
	// position and the states below are one consistent cut.
	s.ckptMu.Lock()
	pos := j.Pos()
	modelHash := s.activeModelHash()
	var payload checkpointPayload
	for _, sess := range s.reg.all() {
		sess.mu.Lock()
		if !sess.finalized {
			payload.Sessions = append(payload.Sessions, sessionCheckpoint{
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
	seq, err := wal.SaveCheckpoint(j.Dir(), pos, s.now(), modelHash, payload)
	if err != nil {
		s.counters.checkpointErrors.Add(1)
		return fmt.Errorf("server: checkpoint: %w", err)
	}
	// Everything before pos is folded into the checkpoint; retention may
	// now discard older segments, but nothing at or after pos.Seg.
	j.SetRetainFloor(pos.Seg)
	s.counters.checkpoints.Add(1)
	s.cfg.Logf("server: checkpoint %d: %d session(s) at seg %d off %d",
		seq, len(payload.Sessions), pos.Seg, pos.Off)
	return nil
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
	// Truncated reports a torn journal segment, the normal crash shape:
	// recovery's one walk cut it at its last whole record (removed it if
	// its header never reached the disk, which is no gap) and went on.
	Truncated bool
	// GapSegments lists journal segment sequence numbers that were
	// missing from the replay range: records in them are unrecoverable
	// (deleted out of band, or pruned by a pre-floor retention pass).
	GapSegments []uint64
}

// Recover rebuilds live sessions after a restart: it loads the latest
// checkpoint (if any) and restores each serialized session, checks from
// their headers that the journal segments to replay were written under
// the serving model, then replays the journal from the checkpoint's
// position in one walk (see wal.Journal.Recover) — batches re-classify
// into their sessions, finalize markers finalize into the application
// database unless it already holds the record the marker's stamp
// names, so each finish is stored once however often recovery runs.
// A refused recovery leaves the journal untouched. It
// finishes by writing a fresh checkpoint covering everything
// recovered. Call it after New and before serving traffic; it is
// single-threaded and must not race ingest. No-op without a journal.
func (s *Server) Recover() (RecoveryStats, error) {
	var rs RecoveryStats
	j := s.cfg.Journal
	if j == nil {
		return rs, nil
	}
	cp, err := wal.LatestCheckpoint(j.Dir())
	if err != nil {
		return rs, fmt.Errorf("server: recover: %w", err)
	}
	activeHash := s.activeModelHash()
	var from wal.Position
	if cp != nil {
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
				return rs, fmt.Errorf("server: recover: checkpoint %d was written under model %s but this daemon is serving model %s — serialized session state is not portable across models; start the daemon with the matching model, or pass -recover-force to discard the checkpoint and rebuild from the journal tail only",
					cp.Seq, cp.ModelHash, activeHash)
			}
			restoreSessions = false
			s.cfg.Logf("server: recover: FORCED past model mismatch: discarding checkpoint %d (model %s != active %s); sessions will be rebuilt from the journal tail only and may be incomplete",
				cp.Seq, cp.ModelHash, activeHash)
		}
		if restoreSessions {
			var payload checkpointPayload
			if err := json.Unmarshal(cp.Payload, &payload); err != nil {
				return rs, fmt.Errorf("server: recover: decode checkpoint %d: %w", cp.Seq, err)
			}
			for _, sc := range payload.Sessions {
				online, err := classify.RestoreOnline(s.activeClassifier(), s.cfg.Schema, sc.State)
				if err != nil {
					return rs, fmt.Errorf("server: recover: session %s: %w", sc.VM, err)
				}
				// The restored segmenter (if any) carries on; only the open-set
				// thresholds need re-attaching — they are never checkpointed.
				s.armOnline(online)
				sess := &session{vm: sc.VM, online: online, lastSeen: time.Unix(0, sc.LastSeenUnixNS), model: s.ActiveModelID()}
				if _, created, err := s.reg.getOrCreate(sc.VM, func() (*session, error) {
					return sess, nil
				}); err != nil {
					return rs, fmt.Errorf("server: recover: session %s: %w", sc.VM, err)
				} else if !created {
					return rs, fmt.Errorf("server: recover: duplicate session %s in checkpoint %d", sc.VM, cp.Seq)
				}
				rs.Sessions++
			}
		}
		from = cp.Pos
		rs.CheckpointSeq = cp.Seq
	}
	s.counters.recoveredSessions.Add(int64(rs.Sessions))

	// The journal segments about to be replayed must also have been
	// written under the active model: a record framed under a different
	// model's schema/format is not safe to re-classify. Unstamped (v1)
	// segments are allowed through with a note.
	if hashes, herr := wal.SegmentHashes(j.Dir(), from.Seg); herr != nil {
		s.cfg.Logf("server: recover: scan segment headers: %v", herr)
	} else {
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
		if len(mismatched) > 0 {
			sort.Slice(mismatched, func(a, b int) bool { return mismatched[a] < mismatched[b] })
			if !s.cfg.RecoverForce {
				return rs, fmt.Errorf("server: recover: journal segment(s) %v were written under a different model than the active %s — refusing to replay them; start the daemon with the matching model, or pass -recover-force to replay anyway",
					mismatched, activeHash)
			}
			s.cfg.Logf("server: recover: FORCED past model mismatch in journal segment(s) %v; replaying them under model %s anyway", mismatched, s.ActiveModelID())
		}
	}

	// A torn segment is cut, not merely skipped: after this restart it is
	// no longer the journal's last, and a tear left in place would stop
	// the next recovery there, before every record appended since.
	replay, err := j.Recover(from, func(pos wal.Position, rec wal.Record) error {
		switch rec.Type {
		case wal.RecordBatch:
			if _, _, err := s.observeBatch(rec.VM, rec.Snaps, nil, false); err != nil {
				rs.Errors++
				s.cfg.Logf("server: recover: replay batch for %s at seg %d off %d: %v",
					rec.VM, pos.Seg, pos.Off, err)
				return nil
			}
			rs.Records++
			rs.Snapshots += len(rec.Snaps)
			s.counters.replayedSnapshots.Add(int64(len(rec.Snaps)))
		case wal.RecordFinalize:
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
	if err != nil {
		return rs, fmt.Errorf("server: recover: %w", err)
	}
	rs.Truncated = replay.Truncated // the journal logs each cut
	if len(replay.MissingSegments) > 0 {
		rs.GapSegments = replay.MissingSegments
		s.counters.journalGapSegments.Add(int64(len(replay.MissingSegments)))
		s.cfg.Logf("server: recover: JOURNAL GAP: segment(s) %v missing from %s — records in them are unrecoverable and the recovered state may be incomplete",
			replay.MissingSegments, j.Dir())
	}
	if rs.Sessions > 0 || rs.Records > 0 {
		s.cfg.Logf("server: recovered %d session(s) from checkpoint %d, replayed %d record(s) (%d snapshot(s), %d finalize(s), %d already stored, %d error(s))",
			rs.Sessions, rs.CheckpointSeq, rs.Records, rs.Snapshots, rs.Finalized, rs.AlreadyStored, rs.Errors)
	}
	// Checkpoint immediately: the recovered state now covers everything
	// on disk, so pinning it (and the retention floor) to the journal's
	// current position means a crash right after this restart replays
	// only post-restart records instead of re-walking old segments.
	// Failure is not fatal — the cut journal alone already replays
	// correctly from the previous checkpoint.
	if err := s.Checkpoint(); err != nil {
		s.cfg.Logf("server: recover: post-recovery checkpoint: %v", err)
	}
	return rs, nil
}
