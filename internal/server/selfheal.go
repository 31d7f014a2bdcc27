package server

import (
	"fmt"
	"time"

	"repro/internal/appdb"
	"repro/internal/seglog"
	"repro/internal/supervise"
	"repro/internal/wal"
)

// The self-healing loops: background storage maintenance and scrubbing,
// both supervised — a panic mid-compaction restarts the task instead of
// silently ending maintenance for the life of the process.

// putEvent records an operational incident (rollback, scrub repair,
// task escalation) in the application database's event log. Best-effort:
// a failure to record is logged, never propagated — the incident
// response must not depend on the incident log.
func (s *Server) putEvent(typ string, detail map[string]string) {
	if s.cfg.DB == nil {
		return
	}
	if err := s.cfg.DB.PutEvent(appdb.Event{
		AtUnixNS: s.now().UnixNano(),
		Type:     typ,
		Detail:   detail,
	}); err != nil {
		s.cfg.Logf("server: record %s event: %v", typ, err)
	}
}

// StartStoreMaint launches the supervised application-database
// maintenance loop: every StoreMaintEvery it compacts the segmented
// store (rewriting segments whose dead fraction crossed the store's
// threshold — a no-op when nothing qualifies). No-op unless
// Config.StoreMaintEvery > 0 and the database is store-backed.
func (s *Server) StartStoreMaint() {
	if s.cfg.StoreMaintEvery <= 0 || s.cfg.DB == nil || s.cfg.DB.Store() == nil {
		return
	}
	s.sup.Go("store-maint", supervise.TaskOptions{Heartbeat: 4 * s.cfg.StoreMaintEvery}, func(stop <-chan struct{}, t *supervise.Task) {
		tick := time.NewTicker(s.cfg.StoreMaintEvery)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				t.Beat()
				if err := s.cfg.DB.Store().Compact(); err != nil {
					s.cfg.Logf("server: store maintenance: %v", err)
				}
			}
		}
	})
}

// StartScrubber launches the supervised storage scrubber: every
// ScrubEvery it verifies one sealed journal segment and one closed
// application-database segment frame-by-frame, repairing any latent
// corruption it finds (quarantining the damaged original as .corrupt).
// The low rate — one segment per side per tick — keeps the read cost
// negligible next to ingest; the per-side cursors cycle the whole store
// across ticks. No-op unless Config.ScrubEvery > 0.
func (s *Server) StartScrubber() {
	if s.cfg.ScrubEvery <= 0 {
		return
	}
	s.sup.Go("scrubber", supervise.TaskOptions{Heartbeat: 4 * s.cfg.ScrubEvery}, func(stop <-chan struct{}, t *supervise.Task) {
		tick := time.NewTicker(s.cfg.ScrubEvery)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				t.Beat()
				s.scrubTick()
			}
		}
	})
}

// checkpointBeforeRepair is the journal scrubber's PreRepair hook.
// Repair rewrites byte offsets, which is only safe once no checkpoint
// still points into the damaged segment. The hook runs outside the
// journal lock, so checkpointing here cannot deadlock.
func (s *Server) checkpointBeforeRepair(seq uint64, uncheckpointed bool) error {
	if !uncheckpointed {
		return nil
	}
	s.cfg.Logf("server: scrub: journal segment %d damage overlaps un-checkpointed state; checkpointing before repair", seq)
	return s.Checkpoint()
}

// scrubTick runs one scrub pass over both stores. Split out for tests.
func (s *Server) scrubTick() {
	type pass struct {
		store string
		scrub func() ([]seglog.Report, error)
	}
	var passes []pass
	if j := s.cfg.Journal; j != nil {
		passes = append(passes, pass{"journal", func() ([]seglog.Report, error) {
			return j.Scrub(wal.ScrubConfig{MaxSegments: 1, PreRepair: s.checkpointBeforeRepair})
		}})
	}
	if s.cfg.DB != nil && s.cfg.DB.Store() != nil {
		passes = append(passes, pass{"appdb", func() ([]seglog.Report, error) { return s.cfg.DB.Store().Scrub(1) }})
	}
	for _, p := range passes {
		reps, err := p.scrub()
		if err != nil {
			s.cfg.Logf("server: %s scrub: %v", p.store, err)
		}
		for _, rep := range reps {
			if !rep.Damaged() {
				continue
			}
			detail := map[string]string{
				"store":        p.store,
				"segment":      fmt.Sprintf("%d", rep.Seq),
				"bad_frames":   fmt.Sprintf("%d", len(rep.Bad)),
				"lost_records": fmt.Sprintf("%d", rep.Lost),
			}
			if rep.Torn {
				detail["torn_tail"] = rep.Reason
			}
			if rep.Repaired {
				detail["quarantined"] = rep.Quarantined
				s.cfg.Logf("server: scrub: REPAIRED %s segment %d: %d bad frame(s), %d record(s) lost, original quarantined at %s",
					p.store, rep.Seq, len(rep.Bad), rep.Lost, rep.Quarantined)
			} else {
				detail["skipped"] = rep.SkipReason
				s.cfg.Logf("server: scrub: %s segment %d damaged but NOT repaired: %s", p.store, rep.Seq, rep.SkipReason)
			}
			s.putEvent("scrub_repair", detail)
		}
	}
}
