package server

import (
	"sync/atomic"
	"time"
)

// degradedState tracks the daemon's durability mode. The journal is
// supposed to make every acknowledged batch durable; when the journal
// itself fails persistently (ENOSPC, a dying disk), the choice is
// between wedging ingest behind a broken disk and continuing
// memory-only. With Config.DegradeOnWALError the daemon takes the
// second branch explicitly: mode flips to degraded, /readyz starts
// answering 503 and a loud gauge flips in /metricsz, ingest keeps
// classifying without journaling, and rate-limited probes re-arm the
// journal once the fault heals (followed immediately by a checkpoint
// that captures the unjournaled window).
type degradedState struct {
	mode      atomic.Bool
	lastProbe atomic.Int64 // unix nanos of the last re-arm probe
}

// defaultDegradedProbeEvery rate-limits journal re-arm probes while
// degraded, so a dead disk is not hammered on every batch.
const defaultDegradedProbeEvery = 5 * time.Second

// DurabilityDegraded reports whether the daemon is in degraded
// durability mode: a journal is configured but ingest is currently
// memory-only because the journal is failing.
func (s *Server) DurabilityDegraded() bool {
	return s.degraded.mode.Load()
}

// durabilityMode names the durability contract ingest currently
// honors: "none" without a journal, else "journaled" or "degraded".
func (s *Server) durabilityMode() string {
	switch {
	case s.cfg.Journal == nil:
		return "none"
	case s.DurabilityDegraded():
		return "degraded"
	}
	return "journaled"
}

// enterDegraded flips the daemon into degraded durability mode (once;
// concurrent callers coalesce).
func (s *Server) enterDegraded(cause error) {
	if s.degraded.mode.CompareAndSwap(false, true) {
		s.counters.degradedEntries.Add(1)
		s.cfg.Logf("server: DURABILITY DEGRADED: journal append failed (%v); ingest continues memory-only until the journal recovers", cause)
	}
}

// exitDegraded restores normal durability after a successful journal
// append and forces a prompt checkpoint: the checkpoint serializes full
// session state, so it covers every batch classified while the journal
// was down.
func (s *Server) exitDegraded() {
	if s.degraded.mode.CompareAndSwap(true, false) {
		s.counters.degradedExits.Add(1)
		s.cfg.Logf("server: durability restored: journal accepting appends again; checkpointing to cover the unjournaled window")
		s.kickCheckpointer()
	}
}

// durabilityProbeDue reports whether this caller won the right to run a
// re-arm probe: at most one probe per DegradedProbeEvery across all
// ingest goroutines.
func (s *Server) durabilityProbeDue() bool {
	now := s.now().UnixNano()
	last := s.degraded.lastProbe.Load()
	if now-last < s.cfg.DegradedProbeEvery.Nanoseconds() {
		return false
	}
	return s.degraded.lastProbe.CompareAndSwap(last, now)
}
