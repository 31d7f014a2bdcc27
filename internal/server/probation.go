package server

import (
	"fmt"
	"time"

	"repro/internal/modelreg"
	"repro/internal/supervise"
)

// Guarded promotion: a freshly promoted model does not get unconditional
// trust. For a probation window after the swap, the model it displaced
// keeps shadow-classifying live traffic in reverse — the same shadowEval
// machinery that vets candidates, with the roles flipped: the new model
// serves verdicts, the old one watches. If the new model's open-set
// unknown rate spikes relative to the guard, or it collapses a class the
// guard still recognizes (per-class disagreement above threshold), the
// daemon rolls back automatically through the same atomic hot swap that
// promoted it — the displaced model is retired, not removed, so it is
// always there to return to. A rollback is an incident: it is counted,
// logged loudly, and recorded in the application database's event log.

const (
	// probationUnknownFactor: the new model breaches when its unknown
	// rate is at least this multiple of the guard's.
	probationUnknownFactor = 3.0
	// probationDisagreeThreshold: a class breaches when the guard
	// disagrees with at least this fraction of the new model's votes for
	// it.
	probationDisagreeThreshold = 0.9
	// defaultProbationMinSnapshots gates the unknown-rate test; the
	// per-class test uses a tenth of it.
	defaultProbationMinSnapshots = 50
	// probationUnknownFloor is the absolute unknown-rate excess the new
	// model must show before the ratio test can breach — a 3× spike from
	// 0.1% to 0.3% is noise, not an incident.
	probationUnknownFloor = 0.05
)

// probationEval is the state of one probation window. It is published
// through Server.probation and cleared (CAS, so racing checks cannot
// double-fire) on breach, pass, or any subsequent promote.
type probationEval struct {
	// eval shadow-runs the DISPLACED model against live traffic. Role
	// reversal: observe() is fed the NEW model's votes as the "active"
	// side, so in its view UnknownRateActive is the new model's unknown
	// rate and UnknownRateCandidate is the guard's.
	eval   *shadowEval
	prevID string // the displaced model — the rollback target
	newID  string // the model under probation
	startedAt,
	deadline time.Time
}

// probationView is the JSON/metrics snapshot of a running probation.
type probationView struct {
	// Model is the model under probation (currently serving).
	Model string `json:"model"`
	// Guard is the displaced model shadow-classifying in reverse.
	Guard string `json:"guard"`
	// RemainingSeconds until the window closes (clamped at 0).
	RemainingSeconds float64 `json:"remaining_s"`
	// Shadow is the guard's evaluation. UnknownRateActive is the NEW
	// model's unknown rate, UnknownRateCandidate the guard's.
	Shadow shadowView `json:"shadow"`
}

func (pb *probationEval) viewAt(now time.Time) probationView {
	rem := pb.deadline.Sub(now).Seconds()
	if rem < 0 {
		rem = 0
	}
	return probationView{
		Model:            pb.newID,
		Guard:            pb.prevID,
		RemainingSeconds: rem,
		Shadow:           pb.eval.view(),
	}
}

// probationView returns the running probation's snapshot, nil when none
// is active.
func (s *Server) probationView() *probationView {
	pb := s.probation.Load()
	if pb == nil {
		return nil
	}
	v := pb.viewAt(s.now())
	return &v
}

// startProbation arms the probation window after a forward promote:
// prev is the displaced active pair (model + calibrated thresholds),
// m the model that displaced it. Caller holds swapMu. Failure to build
// the guard is loud but not fatal — the promote stands, unguarded.
func (s *Server) startProbation(prev *activeModel, m *modelreg.Model) {
	se, err := newShadowEval(prev.model, prev.openset, s.cfg.Schema)
	if err != nil {
		s.cfg.Logf("server: promote %s: PROBATION DISARMED — guard %s cannot shadow-classify: %v", m.ID, prev.model.ID, err)
		return
	}
	now := s.now()
	s.probation.Store(&probationEval{
		eval:      se,
		prevID:    prev.model.ID,
		newID:     m.ID,
		startedAt: now,
		deadline:  now.Add(s.cfg.ProbationWindow),
	})
	s.cfg.Logf("server: model %s on probation for %s; displaced %s shadow-guards and breaches trigger auto-rollback",
		m.ID, s.cfg.ProbationWindow, prev.model.ID)
}

// probationBreach decides whether the guard's evidence condemns the new
// model, returning the reason when it does.
func (s *Server) probationBreach(v shadowView) (string, bool) {
	sv := &v
	if sv.Snapshots >= s.cfg.ProbationMinSnapshots {
		// Role reversal: "active" is the new serving model.
		newRate, guardRate := sv.UnknownRateActive, sv.UnknownRateCandidate
		if newRate >= probationUnknownFactor*guardRate && newRate-guardRate >= probationUnknownFloor {
			return fmt.Sprintf("unknown rate %.3f is ≥%.1f× the displaced model's %.3f over %d snapshots",
				newRate, probationUnknownFactor, guardRate, sv.Snapshots), true
		}
	}
	perClassMin := s.cfg.ProbationMinSnapshots / 10
	if perClassMin < 1 {
		perClassMin = 1
	}
	for cl, pair := range sv.PerClass {
		if pair.Snapshots < perClassMin {
			continue
		}
		if rate := float64(pair.Disagree) / float64(pair.Snapshots); rate >= probationDisagreeThreshold {
			return fmt.Sprintf("displaced model disagrees with %.0f%% of the %d snapshots voted %s",
				rate*100, pair.Snapshots, cl), true
		}
	}
	return "", false
}

// checkProbation runs one probation evaluation: breach → auto-rollback,
// deadline passed without breach → the model graduates. The CAS on the
// probation pointer makes both outcomes fire exactly once even if a
// promote races in (the promote swaps the pointer first).
func (s *Server) checkProbation() {
	pb := s.probation.Load()
	if pb == nil {
		return
	}
	v := pb.eval.view()
	if reason, bad := s.probationBreach(v); bad {
		if !s.probation.CompareAndSwap(pb, nil) {
			return
		}
		s.counters.modelRollbacks.Add(1)
		s.cfg.Logf("server: PROBATION BREACH for model %s: %s; rolling back to %s", pb.newID, reason, pb.prevID)
		s.putEvent("model_rollback", map[string]string{
			"from":   pb.newID,
			"to":     pb.prevID,
			"reason": reason,
		})
		if _, err := s.promote(pb.prevID, true); err != nil {
			s.cfg.Logf("server: probation rollback to %s FAILED: %v — model %s keeps serving", pb.prevID, err, pb.newID)
		}
		return
	}
	if !s.now().Before(pb.deadline) {
		if !s.probation.CompareAndSwap(pb, nil) {
			return
		}
		s.counters.probationPasses.Add(1)
		s.putEvent("model_probation_passed", map[string]string{
			"model":     pb.newID,
			"guard":     pb.prevID,
			"snapshots": fmt.Sprintf("%d", v.Snapshots),
		})
		s.cfg.Logf("server: model %s passed probation (%d snapshots guarded by %s)", pb.newID, v.Snapshots, pb.prevID)
	}
}

// StartProbationWatcher launches the supervised loop that evaluates the
// running probation. No-op unless Config.ProbationWindow > 0 — without
// a window no probation is ever armed, so there is nothing to watch.
func (s *Server) StartProbationWatcher() {
	if s.cfg.ProbationWindow <= 0 {
		return
	}
	tick := s.cfg.ProbationWindow / 10
	if tick < 100*time.Millisecond {
		tick = 100 * time.Millisecond
	}
	if tick > 5*time.Second {
		tick = 5 * time.Second
	}
	s.sup.Go("probation", supervise.TaskOptions{Heartbeat: 8 * tick}, func(stop <-chan struct{}, t *supervise.Task) {
		tk := time.NewTicker(tick)
		defer tk.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tk.C:
				t.Beat()
				s.checkProbation()
			}
		}
	})
}
