package server

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"time"

	"repro/internal/ganglia"
	"repro/internal/resilience"
	"repro/internal/supervise"
)

// PollConfig describes the pull-mode ingestion source: a gmetad
// aggregator whose XML cluster state is fetched on a ticker, so the
// daemon can monitor a cluster whose nodes never push. The fetch loop
// is hardened for the regime a production monitor actually lives in —
// flaky aggregators, slow networks, restarts: per-attempt deadlines,
// exponential backoff with jitter after consecutive failures, and a
// circuit breaker that stops hitting a source known to be down until a
// half-open probe finds it healthy again. While samples are missed,
// the affected sessions record explicit gaps instead of silently
// pretending the stream was continuous.
type PollConfig struct {
	// URL is the gmetad interactive-port endpoint.
	URL string
	// Interval between polls. Zero means the paper's 5-second gmond
	// announce cadence.
	Interval time.Duration
	// Client performs the fetches. Nil means ganglia's default client
	// with DefaultFetchTimeout.
	Client *http.Client
	// FetchTimeout is the per-attempt deadline. Zero means
	// ganglia.DefaultFetchTimeout.
	FetchTimeout time.Duration
	// BackoffMax caps the exponential backoff between failed polls
	// (base Interval, doubling per consecutive failure, ±25% jitter).
	// Zero means one minute.
	BackoffMax time.Duration
	// BreakerFailures is how many consecutive fetch failures open the
	// per-source circuit breaker. Zero means 5.
	BreakerFailures int
	// BreakerOpenFor is how long an open breaker skips the source before
	// letting a half-open probe through. Zero means 30 seconds.
	BreakerOpenFor time.Duration
}

// poller is one pull-mode ingestion loop with its per-source breaker,
// backoff schedule, and the node set it is responsible for. Everything
// here is touched only by the loop goroutine.
type poller struct {
	s       *Server
	pc      PollConfig
	breaker *resilience.Breaker
	backoff resilience.Backoff
	// known tracks the nodes this poller fed on its last successful
	// poll. When a poll fails (or the breaker skips one), every known
	// node's session records a sample gap; a node that disappears from a
	// healthy aggregator stays in known — going gappy each poll — until
	// its session is finalized by the idle-TTL janitor.
	known map[string]struct{}
}

// newPoller applies PollConfig defaults and builds the loop state; the
// loop itself is launched by StartPoller (tests drive pollOnce and
// recordGaps directly).
func (s *Server) newPoller(pc PollConfig) *poller {
	if pc.Interval <= 0 {
		pc.Interval = 5 * time.Second
	}
	if pc.FetchTimeout <= 0 {
		pc.FetchTimeout = ganglia.DefaultFetchTimeout
	}
	if pc.BackoffMax <= 0 {
		pc.BackoffMax = time.Minute
	}
	if pc.BackoffMax < pc.Interval {
		pc.BackoffMax = pc.Interval
	}
	p := &poller{
		s:  s,
		pc: pc,
		backoff: resilience.Backoff{
			Base:   pc.Interval,
			Max:    pc.BackoffMax,
			Jitter: 0.25,
			Rand:   rand.New(rand.NewSource(time.Now().UnixNano())),
		},
		known: make(map[string]struct{}),
	}
	p.breaker = resilience.NewBreaker(resilience.BreakerConfig{
		Failures: pc.BreakerFailures,
		OpenFor:  pc.BreakerOpenFor,
		Now:      s.now,
		OnStateChange: func(from, to resilience.State) {
			if to == resilience.Open {
				s.counters.breakerOpens.Add(1)
			}
			s.counters.breakerState.Store(int64(to))
			s.cfg.Logf("server: poll breaker for %s: %s -> %s", pc.URL, from, to)
		},
	})
	return p
}

// StartPoller launches the pull-mode ingestion loop as a supervised
// task: a panic inside a poll restarts the loop (fresh breaker and
// backoff state) instead of silently ending pull ingestion, and a
// wedged fetch shows up on the heartbeat.
func (s *Server) StartPoller(pc PollConfig) error {
	if pc.URL == "" {
		return fmt.Errorf("server: poller needs a gmetad URL")
	}
	p := s.newPoller(pc)
	// The loop sleeps up to BackoffMax between beats and a fetch can
	// hold it for FetchTimeout more; twice that is decisively wedged.
	hb := 2 * (p.pc.BackoffMax + p.pc.FetchTimeout + p.pc.Interval)
	s.sup.Go("poller", supervise.TaskOptions{Heartbeat: hb}, func(stop <-chan struct{}, t *supervise.Task) {
		// The context cancels in-flight fetches the moment the task
		// stops, so no poll outlives Shutdown.
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		go func() {
			<-stop
			cancel()
		}()
		p.run(ctx, t)
	})
	return nil
}

// run is the poll loop: interval cadence while healthy, exponential
// backoff with jitter across consecutive failures, breaker-open ticks
// that skip the fetch entirely but keep accounting the lost coverage.
func (p *poller) run(ctx context.Context, t *supervise.Task) {
	s := p.s
	timer := time.NewTimer(p.pc.Interval)
	defer timer.Stop()
	failures := 0
	for {
		select {
		case <-ctx.Done():
			return
		case <-timer.C:
		}
		if t != nil {
			t.Beat()
		}
		delay := p.pc.Interval
		if !p.breaker.Allow() {
			// Source known down: skip the fetch, keep the interval cadence
			// so the open->half-open expiry is noticed promptly, and record
			// the skipped interval as a gap on every session this poller
			// feeds.
			s.counters.pollBreakerSkipped.Add(1)
			p.recordGaps(delay, nil)
		} else if err := p.pollOnce(ctx); err != nil {
			if ctx.Err() != nil {
				return // shutdown cancelled the fetch
			}
			p.breaker.Failure()
			failures++
			delay = p.backoff.Next(failures)
			if delay < p.pc.Interval {
				delay = p.pc.Interval
			}
			s.cfg.Logf("server: poll %s: %v (attempt %d, next in %v)", p.pc.URL, err, failures, delay)
			p.recordGaps(delay, nil)
		} else {
			p.breaker.Success()
			failures = 0
		}
		s.counters.breakerState.Store(int64(p.breaker.State()))
		timer.Reset(delay)
	}
}

// recordGaps accounts wall of lost coverage on every session this
// poller is responsible for, except the nodes in fed (those a healthy
// poll just reported; nil after a failed or skipped poll). Sessions
// already evicted fall out of the known set; push-fed sessions are
// never in it.
func (p *poller) recordGaps(wall time.Duration, fed map[string]struct{}) {
	s := p.s
	for vm := range p.known {
		if _, ok := fed[vm]; ok {
			continue
		}
		sess, ok := s.reg.get(vm)
		if !ok {
			delete(p.known, vm)
			continue
		}
		sess.mu.Lock()
		if !sess.finalized {
			sess.online.RecordGap(wall)
			s.stateGen.Add(1)
		}
		sess.mu.Unlock()
		s.counters.sampleGaps.Add(1)
		s.counters.sampleGapNanos.Add(int64(wall))
	}
}

// pollOnce fetches the cluster state once under the per-attempt
// deadline and routes every node that reports the full schema into its
// session. Nodes missing schema metrics (e.g. a gmond that has not
// announced everything yet) are skipped and counted, not fatal. A node
// the push paths would refuse — a name outside 1..wire.MaxVMName bytes,
// a NaN or ±Inf value — is skipped too, and counted as a refused push
// snapshot is. A known node the poll did not feed records a gap.
func (p *poller) pollOnce(ctx context.Context) error {
	s := p.s
	s.counters.polls.Add(1)
	actx, cancel := context.WithTimeout(ctx, p.pc.FetchTimeout)
	state, err := ganglia.FetchClusterStateContext(actx, p.pc.Client, p.pc.URL)
	cancel()
	if err != nil {
		s.counters.pollErrors.Add(1)
		return err
	}
	// Wall-clock stamps, not time since this process started: a session
	// recovered after a restart then continues where it left off.
	at := time.Duration(s.now().UnixNano())
	names := s.cfg.Schema.Names()
	fed := make(map[string]struct{}, len(state))
	for node, nodeMetrics := range state {
		values := make([]float64, len(names))
		complete, valid := true, vmNameError(node) == nil
		for j, name := range names {
			v, ok := nodeMetrics[name]
			if !ok {
				complete = false
				break
			}
			if v-v != 0 { // NaN or ±Inf
				valid = false
			}
			values[j] = v
		}
		if !complete {
			s.counters.pollSkipped.Add(1)
			continue
		}
		if !valid {
			s.counters.ingestErrors.Add(1)
			continue
		}
		if _, err := s.observe(node, at, values); err != nil {
			s.counters.pollErrors.Add(1)
			s.cfg.Logf("server: poll classify %s: %v", node, err)
			continue
		}
		fed[node] = struct{}{}
	}
	// A node the aggregator used to report but no longer does missed
	// this interval: its session goes gappy until the idle-TTL janitor
	// finalizes it (or the node comes back).
	p.recordGaps(p.pc.Interval, fed)
	for vm := range fed {
		p.known[vm] = struct{}{}
	}
	s.counters.pollLastSuccess.Store(s.now().UnixNano())
	return nil
}
