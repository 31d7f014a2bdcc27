package server

import (
	"context"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/classify"
	"repro/internal/faultinject"
	"repro/internal/ganglia"
	"repro/internal/metrics"
	"repro/internal/wal"
)

// newChaosSource serves a gmetad XML dump of one node ("poll-vm") whose
// metric values come from the trace sample the driver last selected.
// The aggregator state is rebuilt per request under the same mutex the
// driver uses to advance the index, so the whole thing is race-free.
func newChaosSource(t *testing.T, trace *metrics.Trace) (*httptest.Server, func(i int)) {
	t.Helper()
	names := metrics.DefaultNames()
	var mu sync.Mutex
	idx := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		bus := ganglia.NewBus()
		gm, err := ganglia.NewGmetad("chaos", bus)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		sn := trace.At(idx)
		for j, name := range names {
			bus.Announce(ganglia.Announcement{Node: "poll-vm", Metric: name, Value: sn.Values[j], At: sn.Time})
		}
		w.Header().Set("Content-Type", "application/xml")
		gm.WriteXML(w, sn.Time+time.Second)
	}))
	t.Cleanup(srv.Close)
	return srv, func(i int) {
		mu.Lock()
		idx = i
		mu.Unlock()
	}
}

// chaosResult is what one scenario run produced for the polled VM.
type chaosResult struct {
	view classify.View
}

// driveChaos replays the Stream trace through a poll-fed session while
// a second VM pushes the same trace over the HTTP API, optionally under
// the scripted fault timeline from the ISSUE: a steady 30% injected
// fetch-error rate, one 60-second gmetad blackout mid-run, and a
// transient ENOSPC window on the journal. It returns the polled
// session's final view; every push must answer 200 throughout.
func driveChaos(t *testing.T, faulted bool) (*Server, chaosResult) {
	t.Helper()
	trace := profiledTrace(t, "Stream")
	n := trace.Len()
	const interval = 5 * time.Second
	total := time.Duration(n) * interval

	clk := &fakeClock{t: time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC)}
	start := clk.now()

	cfg := Config{Now: clk.now, DegradedProbeEvery: interval}
	var fs *faultinject.FS
	if faulted {
		fs = faultinject.NewFS()
		j, err := wal.Open(wal.Config{
			Dir:             t.TempDir(),
			Fsync:           wal.FsyncNever,
			Now:             clk.now,
			OpenSegmentFile: fs.OpenSegmentFile,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { j.Close() }) // after the server's shutdown cleanup
		cfg.Journal = j
		cfg.DegradeOnWALError = true
	}
	s := newTestServer(t, cfg)
	src, setIdx := newChaosSource(t, trace)

	rt := faultinject.NewRoundTripper(src.Client().Transport, 7)
	client := &http.Client{Transport: rt}
	p := s.newPoller(PollConfig{
		URL:             src.URL,
		Interval:        interval,
		Client:          client,
		FetchTimeout:    time.Second,
		BackoffMax:      4 * interval,
		BreakerFailures: 3,
		// Longer than BackoffMax, so an open breaker actually skips
		// interval ticks instead of expiring inside one backoff sleep.
		BreakerOpenFor: 6 * interval,
	})

	// Fault timeline over the scenario's ideal duration.
	enospcFrom, enospcTo := total/8, total/3
	blackoutFrom := total / 2
	blackoutTo := blackoutFrom + time.Minute

	h := s.Handler()
	pushed := 0
	pushNext := func() {
		t.Helper()
		if pushed >= n {
			return
		}
		sn := trace.At(pushed)
		w := postJSON(t, h, "/v1/ingest", map[string]any{
			"snapshots": []map[string]any{{
				"vm": "push-vm", "time_s": sn.Time.Seconds(), "values": sn.Values,
			}},
		})
		if w.Code != http.StatusOK {
			t.Fatalf("healthy push %d answered %d (%s); pushes must never fail during chaos", pushed, w.Code, w.Body.String())
		}
		pushed++
	}

	ctx := context.Background()
	failures := 0
	for {
		elapsed := clk.now().Sub(start)
		i := int(elapsed / interval)
		if i >= n {
			break
		}
		if faulted {
			if elapsed < blackoutTo {
				rt.SetErrorRate(0.3)
			} else {
				rt.SetErrorRate(0)
			}
			rt.SetBlackout(elapsed >= blackoutFrom && elapsed < blackoutTo)
			if elapsed >= enospcFrom && elapsed < enospcTo {
				fs.FailWrites(syscall.ENOSPC)
				fs.FailOpens(syscall.ENOSPC)
			} else {
				fs.FailWrites(nil)
				fs.FailOpens(nil)
			}
		}
		setIdx(i)
		// One scheduling step of the poll loop, with the fake clock
		// advanced by the same delay the timer would have waited.
		delay := interval
		if !p.breaker.Allow() {
			s.counters.pollBreakerSkipped.Add(1)
			p.recordGaps(delay, nil)
		} else if err := p.pollOnce(ctx); err != nil {
			p.breaker.Failure()
			failures++
			delay = p.backoff.Next(failures)
			if delay < interval {
				delay = interval
			}
			p.recordGaps(delay, nil)
		} else {
			p.breaker.Success()
			failures = 0
		}
		pushNext()
		clk.advance(delay)
	}
	// Drain the push stream so the push VM always sees the full trace.
	for pushed < n {
		pushNext()
	}

	sess, ok := s.reg.get("poll-vm")
	if !ok {
		t.Fatal("no session for the polled VM")
	}
	sess.mu.Lock()
	view := sess.online.Snapshot()
	sess.mu.Unlock()
	return s, chaosResult{view: view}
}

// TestChaosScenario is the PR's acceptance test: under 30% injected
// fetch errors, a 60-second gmetad blackout, and a transient ENOSPC
// window on the journal, the daemon keeps answering healthy pushes with
// 200, the breaker opens and recovers, degraded durability enters and
// exits, and the polled session still converges to the fault-free
// run's class with composition inside a gap-adjusted tolerance.
func TestChaosScenario(t *testing.T) {
	cl := classifier(t)
	trace := profiledTrace(t, "Stream")
	want, err := cl.ClassifyTrace(trace)
	if err != nil {
		t.Fatal(err)
	}

	_, clean := driveChaos(t, false)
	if clean.view.Gaps != 0 {
		t.Errorf("fault-free run recorded %d gaps", clean.view.Gaps)
	}
	if clean.view.Total != trace.Len() {
		t.Errorf("fault-free run observed %d of %d samples", clean.view.Total, trace.Len())
	}

	s, faulted := driveChaos(t, true)

	// The breaker tripped during the blackout and recovered after it.
	if got := s.counters.breakerOpens.Load(); got == 0 {
		t.Error("the blackout never opened the breaker")
	}
	if got := s.counters.pollBreakerSkipped.Load(); got == 0 {
		t.Error("an open breaker never skipped a poll")
	}
	if got := s.counters.polls.Load(); got == 0 || s.counters.pollErrors.Load() == 0 {
		t.Errorf("polls=%d pollErrors=%d; the fault injector never bit", got, s.counters.pollErrors.Load())
	}

	// Degraded durability entered during the ENOSPC window and exited
	// after it healed.
	if got := s.counters.degradedEntries.Load(); got == 0 {
		t.Error("transient ENOSPC never entered degraded durability")
	}
	if got := s.counters.degradedExits.Load(); got == 0 {
		t.Error("degraded durability never exited after the disk healed")
	}
	if s.DurabilityDegraded() {
		t.Error("daemon still degraded at the end of the scenario")
	}

	// The faulted session knows its coverage was partial.
	if faulted.view.Gaps == 0 || faulted.view.GapTime == 0 {
		t.Errorf("faulted run recorded gaps=%d gapTime=%v, want both nonzero",
			faulted.view.Gaps, faulted.view.GapTime)
	}
	if faulted.view.Total >= clean.view.Total {
		t.Errorf("faulted run observed %d samples, clean run %d; chaos lost nothing?",
			faulted.view.Total, clean.view.Total)
	}

	// Same majority class despite the chaos.
	if faulted.view.Class != clean.view.Class {
		t.Errorf("faulted class %q != fault-free class %q", faulted.view.Class, clean.view.Class)
	}
	// Composition within a gap-adjusted tolerance: the faulted run can
	// be off by at most the fraction of the stream it missed (plus
	// slack for which samples the misses landed on).
	missed := 1 - float64(faulted.view.Total)/float64(clean.view.Total)
	tol := missed + 0.10
	for c, f := range clean.view.Composition {
		if got := faulted.view.Composition[c]; math.Abs(got-f) > tol {
			t.Errorf("composition[%s] = %.3f faulted vs %.3f clean (missed %.0f%%, tolerance %.3f)",
				c, got, f, 100*missed, tol)
		}
	}

	// The push VM saw the full trace over healthy HTTP and must agree
	// with the batch classifier exactly, chaos or not.
	sess, ok := s.reg.get("push-vm")
	if !ok {
		t.Fatal("no session for the push VM")
	}
	sess.mu.Lock()
	pushView := sess.online.Snapshot()
	sess.mu.Unlock()
	if pushView.Class != want.Class {
		t.Errorf("push VM class %q, batch classifier %q", pushView.Class, want.Class)
	}
	if pushView.Total != trace.Len() {
		t.Errorf("push VM observed %d of %d samples", pushView.Total, trace.Len())
	}
	for c, f := range want.Composition {
		if got := pushView.Composition[c]; math.Abs(got-f) > 1e-9 {
			t.Errorf("push composition[%s] = %v, batch %v", c, got, f)
		}
	}
}
