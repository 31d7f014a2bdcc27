package server

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/appdb"
	"repro/internal/ganglia"
	"repro/internal/metrics"
	"repro/internal/resilience"
	"repro/internal/wal"
)

// servedGmetad builds a gmetad aggregator whose cluster state holds the
// full 33-metric schema for the given nodes, plus one straggler node
// that has only announced a single metric.
func servedGmetad(t *testing.T, nodes ...string) *httptest.Server {
	t.Helper()
	bus := ganglia.NewBus()
	gm, err := ganglia.NewGmetad("test-cluster", bus)
	if err != nil {
		t.Fatal(err)
	}
	for _, node := range nodes {
		for _, name := range metrics.DefaultNames() {
			bus.Announce(ganglia.Announcement{Node: node, Metric: name, Value: 0, At: time.Second})
		}
	}
	bus.Announce(ganglia.Announcement{Node: "straggler", Metric: metrics.CPUUser, Value: 1, At: time.Second})
	srv := httptest.NewServer(gm.Handler(func() time.Duration { return 2 * time.Second }))
	t.Cleanup(srv.Close)
	return srv
}

// testPoller builds a poller for direct pollOnce/recordGaps driving.
func testPoller(s *Server, srv *httptest.Server) *poller {
	pc := PollConfig{URL: srv.URL, Interval: 5 * time.Second, Client: srv.Client()}
	return s.newPoller(pc)
}

func TestPollOnceIngestsCompleteNodes(t *testing.T) {
	s := newTestServer(t, Config{})
	srv := servedGmetad(t, "node-a", "node-b")
	p := testPoller(s, srv)
	ctx := context.Background()
	if err := p.pollOnce(ctx); err != nil {
		t.Fatalf("pollOnce: %v", err)
	}
	if got := s.Sessions(); got != 2 {
		t.Errorf("%d sessions after poll, want 2 (straggler skipped)", got)
	}
	if _, ok := s.reg.get("straggler"); ok {
		t.Error("straggler with incomplete metrics got a session")
	}
	if got := s.counters.pollSkipped.Load(); got != 1 {
		t.Errorf("pollSkipped = %d, want 1", got)
	}
	if got := s.counters.ingested.Load(); got != 2 {
		t.Errorf("ingested = %d, want 2", got)
	}
	if got := s.counters.pollLastSuccess.Load(); got == 0 {
		t.Error("pollLastSuccess not stamped after a successful poll")
	}
	if len(p.known) != 2 {
		t.Errorf("poller knows %d nodes, want 2", len(p.known))
	}
	// A second poll observes into the same sessions.
	if err := p.pollOnce(ctx); err != nil {
		t.Fatal(err)
	}
	if got := s.Sessions(); got != 2 {
		t.Errorf("%d sessions after second poll, want 2", got)
	}
	sess, _ := s.reg.get("node-a")
	sess.mu.Lock()
	seen := sess.online.Seen()
	sess.mu.Unlock()
	if seen != 2 {
		t.Errorf("node-a saw %d snapshots, want 2", seen)
	}
}

func TestPollOnceCountsErrors(t *testing.T) {
	s := newTestServer(t, Config{})
	p := s.newPoller(PollConfig{URL: "http://127.0.0.1:1/nowhere"})
	if err := p.pollOnce(context.Background()); err == nil {
		t.Error("unreachable gmetad: want error")
	}
	if got := s.counters.pollErrors.Load(); got != 1 {
		t.Errorf("pollErrors = %d, want 1", got)
	}
	if got := s.counters.pollLastSuccess.Load(); got != 0 {
		t.Errorf("pollLastSuccess = %d after a failed poll, want 0", got)
	}
}

func TestPollOnceMalformedXML(t *testing.T) {
	s := newTestServer(t, Config{})
	garbage := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("<GANGLIA_XML><CLUSTER NAME='broken'><HOST NAME="))
	}))
	t.Cleanup(garbage.Close)
	p := s.newPoller(PollConfig{URL: garbage.URL, Client: garbage.Client()})
	if err := p.pollOnce(context.Background()); err == nil {
		t.Error("malformed gmetad XML: want error")
	}
	if got := s.counters.pollErrors.Load(); got != 1 {
		t.Errorf("pollErrors = %d, want 1", got)
	}
	if got := s.Sessions(); got != 0 {
		t.Errorf("%d sessions from a malformed dump, want 0", got)
	}
}

func TestPollOnceTimeoutMidBody(t *testing.T) {
	s := newTestServer(t, Config{})
	// The aggregator sends a valid prefix, then stalls longer than the
	// per-attempt deadline mid-body.
	stall := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("<GANGLIA_XML><CLUSTER NAME=\"slow\">"))
		w.(http.Flusher).Flush()
		select {
		case <-r.Context().Done():
		case <-time.After(5 * time.Second):
		}
	}))
	t.Cleanup(stall.Close)
	p := s.newPoller(PollConfig{
		URL:          stall.URL,
		Client:       stall.Client(),
		FetchTimeout: 50 * time.Millisecond,
	})
	start := time.Now()
	if err := p.pollOnce(context.Background()); err == nil {
		t.Error("mid-body stall: want error")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("pollOnce took %v; the per-attempt deadline did not bound the stalled body read", elapsed)
	}
	if got := s.counters.pollErrors.Load(); got != 1 {
		t.Errorf("pollErrors = %d, want 1", got)
	}
}

// TestPollNodeDisappearsMidRun drives the full lifecycle the ISSUE
// describes: a node vanishes from a healthy aggregator, its session
// accumulates sample gaps on every subsequent poll, and the idle-TTL
// janitor eventually finalizes it into the application database with
// the gaps on the record.
func TestPollNodeDisappearsMidRun(t *testing.T) {
	clock := time.Unix(1_700_000_000, 0)
	now := func() time.Time { return clock }
	s := newTestServer(t, Config{IdleTTL: time.Minute, Now: func() time.Time { return now() }})

	full := servedGmetad(t, "steady", "vanisher")
	reduced := servedGmetad(t, "steady")
	var vanished atomic.Bool
	swap := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		target := full
		if vanished.Load() {
			target = reduced
		}
		resp, err := target.Client().Get(target.URL)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		io.Copy(w, resp.Body)
	}))
	t.Cleanup(swap.Close)

	p := s.newPoller(PollConfig{URL: swap.URL, Interval: 5 * time.Second, Client: swap.Client()})
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if err := p.pollOnce(ctx); err != nil {
			t.Fatalf("poll %d: %v", i, err)
		}
		clock = clock.Add(5 * time.Second)
	}
	vanished.Store(true)
	for i := 0; i < 4; i++ {
		if err := p.pollOnce(ctx); err != nil {
			t.Fatalf("post-vanish poll %d: %v", i, err)
		}
		clock = clock.Add(5 * time.Second)
	}

	sess, ok := s.reg.get("vanisher")
	if !ok {
		t.Fatal("vanisher session gone before the janitor ran")
	}
	sess.mu.Lock()
	gaps, gapTime := sess.online.Gaps()
	sess.mu.Unlock()
	if gaps != 4 {
		t.Errorf("vanisher has %d gaps, want 4 (one per post-vanish poll)", gaps)
	}
	if want := 4 * 5 * time.Second; gapTime != want {
		t.Errorf("vanisher gap time = %v, want %v", gapTime, want)
	}
	// The steady node never went gappy.
	steady, _ := s.reg.get("steady")
	steady.mu.Lock()
	sGaps, _ := steady.online.Gaps()
	steady.mu.Unlock()
	if sGaps != 0 {
		t.Errorf("steady node has %d gaps, want 0", sGaps)
	}

	// Idle the vanisher past the TTL (the steady node keeps getting
	// polled, so only the vanisher is evicted) and let the janitor
	// finalize it.
	for i := 0; i < 13; i++ { // 65s > 1m TTL since the vanisher's last snapshot
		if err := p.pollOnce(ctx); err != nil {
			t.Fatalf("ttl poll %d: %v", i, err)
		}
		clock = clock.Add(5 * time.Second)
	}
	if n := s.EvictIdle(); n != 1 {
		t.Fatalf("EvictIdle evicted %d sessions, want 1 (the vanisher)", n)
	}
	rec, err := s.DB().Latest("vanisher")
	if err != nil {
		t.Fatalf("no appdb record for the vanisher: %v", err)
	}
	if rec.Gaps == 0 || rec.GapTime == 0 {
		t.Errorf("finalized record has gaps=%d gapTime=%v, want both nonzero", rec.Gaps, rec.GapTime)
	}
	if rec.Samples != 3 {
		t.Errorf("finalized record has %d samples, want 3 (pre-vanish polls)", rec.Samples)
	}
}

// TestPollStampsSurviveCrashRecovery polls a node ten times 5 s apart
// into a journaled daemon, kills it, restarts it 60 s later on the same
// journal and polls twice more. The finished record must equal an
// uninterrupted daemon's under the same poll schedule: pull snapshots
// carry wall-clock stamps, so the recovered session's new snapshots
// land after its old ones.
func TestPollStampsSurviveCrashRecovery(t *testing.T) {
	const vm = "node-a"
	srv := servedGmetad(t, vm)
	clock := time.Unix(1_700_000_000, 0)
	now := func() time.Time { return clock }
	poll := func(s *Server, n int) {
		t.Helper()
		p := testPoller(s, srv)
		for i := 0; i < n; i++ {
			if err := p.pollOnce(context.Background()); err != nil {
				t.Fatal(err)
			}
			clock = clock.Add(5 * time.Second)
		}
	}
	finish := func(s *Server) appdb.Record {
		t.Helper()
		if w := postJSON(t, s.Handler(), "/v1/vms/"+vm+"/finish", nil); w.Code != http.StatusOK {
			t.Fatalf("finish: %d %s", w.Code, w.Body.String())
		}
		rec, err := s.DB().Latest(vm)
		if err != nil {
			t.Fatal(err)
		}
		return rec
	}

	ref := newTestServer(t, Config{Now: now})
	poll(ref, 10)
	clock = clock.Add(60 * time.Second)
	poll(ref, 2)
	want := finish(ref)

	clock = time.Unix(1_700_000_000, 0)
	dir := t.TempDir()
	crashed, err := New(Config{Classifier: classifier(t), Journal: crashJournal(t, dir), Now: now})
	if err != nil {
		t.Fatal(err)
	}
	poll(crashed, 10)
	// kill -9: the daemon is abandoned with its session live.
	clock = clock.Add(60 * time.Second)
	j, err := wal.Open(wal.Config{Dir: dir, Fsync: wal.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	restarted := newTestServer(t, Config{Journal: j, Now: now})
	if rs, err := restarted.Recover(); err != nil || rs.Snapshots != 10 {
		t.Fatalf("recover: %+v, %v; want 10 snapshots replayed", rs, err)
	}
	poll(restarted, 2)
	got := finish(restarted)

	if got.Samples != 12 || got.Samples != want.Samples {
		t.Errorf("samples: recovered %d, uninterrupted %d, want 12", got.Samples, want.Samples)
	}
	if got.ExecutionTime != 115*time.Second || got.ExecutionTime != want.ExecutionTime {
		t.Errorf("execution time: recovered %v, uninterrupted %v, want 115s", got.ExecutionTime, want.ExecutionTime)
	}
	if !reflect.DeepEqual(got.Phases, want.Phases) {
		t.Errorf("stages differ:\nrecovered     %+v\nuninterrupted %+v", got.Phases, want.Phases)
	}
	if got.Class != want.Class || !reflect.DeepEqual(got.Composition, want.Composition) {
		t.Errorf("recovered %s %v, uninterrupted %s %v", got.Class, got.Composition, want.Class, want.Composition)
	}
}

func TestPollerBreakerOpensAndRecovers(t *testing.T) {
	clock := time.Unix(1_700_000_000, 0)
	s := newTestServer(t, Config{Now: func() time.Time { return clock }})
	srv := servedGmetad(t, "node-a")
	var down atomic.Bool
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if down.Load() {
			http.Error(w, "gmetad down", http.StatusBadGateway)
			return
		}
		resp, err := srv.Client().Get(srv.URL)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		io.Copy(w, resp.Body)
	}))
	t.Cleanup(flaky.Close)

	p := s.newPoller(PollConfig{
		URL:             flaky.URL,
		Client:          flaky.Client(),
		Interval:        5 * time.Second,
		BreakerFailures: 3,
		BreakerOpenFor:  30 * time.Second,
	})
	ctx := context.Background()
	if err := p.pollOnce(ctx); err != nil {
		t.Fatal(err)
	}
	down.Store(true)
	for i := 0; i < 3; i++ {
		if !p.breaker.Allow() {
			t.Fatalf("breaker refused attempt %d before the threshold", i)
		}
		if err := p.pollOnce(ctx); err == nil {
			t.Fatal("poll against a down gmetad succeeded")
		}
		p.breaker.Failure()
	}
	if got := p.breaker.State(); got != resilience.Open {
		t.Fatalf("breaker state after 3 failures = %v, want open", got)
	}
	if p.breaker.Allow() {
		t.Fatal("open breaker allowed a poll")
	}
	if got := s.counters.breakerOpens.Load(); got != 1 {
		t.Errorf("breakerOpens = %d, want 1", got)
	}
	// The open window elapses; the half-open probe hits a healed source
	// and closes the breaker.
	clock = clock.Add(30 * time.Second)
	down.Store(false)
	if !p.breaker.Allow() {
		t.Fatal("expired breaker refused the half-open probe")
	}
	if err := p.pollOnce(ctx); err != nil {
		t.Fatalf("half-open probe: %v", err)
	}
	p.breaker.Success()
	if got := p.breaker.State(); got != resilience.Closed {
		t.Errorf("breaker state after probe success = %v, want closed", got)
	}
}

func TestStartPollerRunsAndStops(t *testing.T) {
	s := newTestServer(t, Config{})
	srv := servedGmetad(t, "looped-node")
	if err := s.StartPoller(PollConfig{URL: srv.URL, Interval: 2 * time.Millisecond, Client: srv.Client()}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for s.counters.polls.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if s.counters.polls.Load() == 0 {
		t.Error("poller never polled")
	}
	// Cleanup's Shutdown must stop the loop without deadlock; nothing
	// further to assert here.
}

func TestStartPollerRequiresURL(t *testing.T) {
	s := newTestServer(t, Config{})
	if err := s.StartPoller(PollConfig{}); err == nil {
		t.Error("empty URL: want error")
	}
}
