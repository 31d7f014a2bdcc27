package bench

import (
	"fmt"
	"net/url"
	"sync"
	"time"

	"repro/internal/appclass"
	"repro/internal/metrics"
)

// oracle checks the daemon's replies against answers computed in this
// process from the same model file: per-snapshot classes from the
// per-row table, finished runs' sample counts, classes and verdicts,
// stored /v1/runs records, and query filters. Every mismatch fails the
// request it arrived on and the run.
type oracle struct {
	mu sync.Mutex
	// pending are finished runs whose stored record has not been fetched
	// and checked yet.
	pending []runExpect
	// finished maps a finished VM's index to its finish reply, for the
	// reference replay after the daemon stops.
	finished map[int]finishReply
}

// runExpect is what a finished run's stored record must say.
type runExpect struct {
	name           string
	samples        int
	class, verdict appclass.Class
}

func newOracle() *oracle { return &oracle{finished: make(map[int]finishReply)} }

// mismatch returns one disagreement as the error of the request it
// arrived on.
func mismatch(format string, args ...any) error {
	return fmt.Errorf("oracle: "+format, args...)
}

// checkFinish compares a finish reply with the run's acknowledged
// snapshots and queues the run's stored record for verification.
func (o *oracle) checkFinish(v *vm, vi int, rep finishReply) error {
	n := int(v.acked.Load())
	class, verdict := v.expectRun(n)
	o.mu.Lock()
	o.finished[vi] = rep
	o.pending = append(o.pending, runExpect{name: v.name, samples: n, class: class, verdict: verdict})
	o.mu.Unlock()
	if rep.VM != v.name || rep.Samples != n || rep.Class != string(class) || rep.Verdict != string(verdict) {
		return mismatch("finish %s: got vm %q samples %d class %q verdict %q, want samples %d class %q verdict %q",
			v.name, rep.VM, rep.Samples, rep.Class, rep.Verdict, n, class, verdict)
	}
	return nil
}

// nextPending pops the oldest finished run awaiting record verification.
func (o *oracle) nextPending() (runExpect, bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if len(o.pending) == 0 {
		return runExpect{}, false
	}
	e := o.pending[0]
	o.pending = o.pending[1:]
	return e, true
}

// checkRuns validates a /v1/runs reply against the query that produced
// it (page size, every filter honoured) and, when check is set, the
// newest record against the finished run's expectation.
func (o *oracle) checkRuns(q url.Values, rep runsReply, check *runExpect) error {
	if rep.Count != len(rep.Runs) || rep.Count > queryLimit {
		return mismatch("/v1/runs?%s: count %d with %d runs", q.Encode(), rep.Count, len(rep.Runs))
	}
	for _, r := range rep.Runs {
		if (q.Get("app") != "" && r.App != q.Get("app")) ||
			(q.Get("class") != "" && r.Class != q.Get("class")) ||
			(q.Get("verdict") != "" && r.Verdict != q.Get("verdict")) {
			return mismatch("/v1/runs?%s returned %s (class %q verdict %q) outside the filter", q.Encode(), r.App, r.Class, r.Verdict)
		}
	}
	if check == nil {
		return nil
	}
	if len(rep.Runs) == 0 {
		return mismatch("/v1/runs has no record for finished run %s", check.name)
	}
	r := rep.Runs[0]
	if r.Samples != check.samples || r.Class != string(check.class) || r.Verdict != string(check.verdict) {
		return mismatch("stored run %s: samples %d class %q verdict %q, want %d %q %q",
			check.name, r.Samples, r.Class, r.Verdict, check.samples, check.class, check.verdict)
	}
	return nil
}

// replayFinished replays every finished run through a reference
// classify.Online armed like the daemon and compares class, verdict and
// phase count with the finish reply, returning one message per
// disagreement.
func (o *oracle) replayFinished(in *Inputs, p *plan) []string {
	var bad []string
	for vi, rep := range o.finished {
		v := p.vms[vi]
		ref, err := in.reference()
		if err != nil {
			return append(bad, err.Error())
		}
		for k := 0; k < rep.Samples; k++ {
			snap := metrics.Snapshot{Time: time.Duration(timeOf(k) * float64(time.Second)), Values: v.trace.Rows[v.row(k)]}
			if _, err := ref.Observe(snap); err != nil {
				return append(bad, err.Error())
			}
		}
		view := ref.Snapshot()
		if rep.Class != string(view.Class) || rep.Verdict != string(view.Verdict) || rep.Phases != len(view.Phases) {
			bad = append(bad, mismatch("run %s: daemon class %q verdict %q phases %d, reference Online %q %q %d",
				v.name, rep.Class, rep.Verdict, rep.Phases, view.Class, view.Verdict, len(view.Phases)).Error())
		}
	}
	return bad
}
