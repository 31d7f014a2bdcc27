package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/appclass"
	"repro/internal/appdb"
	"repro/internal/metrics"
	"repro/internal/placement"
	"repro/internal/sched"
)

func threeHostPlacer(t *testing.T) *placement.Service {
	t.Helper()
	svc, err := placement.New(placement.Config{Hosts: []placement.HostSpec{
		{Name: "vm1", Slots: 3}, {Name: "vm2", Slots: 3}, {Name: "vm3", Slots: 3},
	}})
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

// TestPlacementEndpointsUnconfigured pins the 503 answer on every
// placement route when the daemon runs without -hosts.
func TestPlacementEndpointsUnconfigured(t *testing.T) {
	s := newTestServer(t, Config{})
	for _, tc := range []struct{ method, path string }{
		{"POST", "/v1/placements"},
		{"GET", "/v1/placements"},
		{"GET", "/v1/placements/advice"},
		{"DELETE", "/v1/placements/p-1"},
		{"GET", "/v1/hosts"},
		{"GET", "/v1/hosts/vm1"},
	} {
		req := httptest.NewRequest(tc.method, tc.path, strings.NewReader(`{"app":"x"}`))
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, req)
		if w.Code != http.StatusServiceUnavailable {
			t.Errorf("%s %s = %d without placement service, want 503", tc.method, tc.path, w.Code)
		}
	}
}

func TestPlacementEndpointStatusCodes(t *testing.T) {
	s := newTestServer(t, Config{Placement: threeHostPlacer(t)})
	h := s.Handler()
	tests := []struct {
		name   string
		method string
		path   string
		body   string
		want   int
	}{
		{"place happy path", "POST", "/v1/placements", `{"app":"newcomer"}`, 200},
		{"place with composition", "POST", "/v1/placements",
			`{"app":"told","composition":{"cpu":0.7,"io":0.3}}`, 200},
		{"malformed body", "POST", "/v1/placements", "{not json", 400},
		{"missing app", "POST", "/v1/placements", `{}`, 400},
		{"unknown class in composition", "POST", "/v1/placements",
			`{"app":"x","composition":{"bogus":1}}`, 400},
		{"fraction out of range", "POST", "/v1/placements",
			`{"app":"x","composition":{"cpu":2}}`, 400},
		{"hosts list", "GET", "/v1/hosts", "", 200},
		{"host detail", "GET", "/v1/hosts/vm1", "", 200},
		{"unknown host", "GET", "/v1/hosts/nope", "", 404},
		{"placements list", "GET", "/v1/placements", "", 200},
		{"advice", "GET", "/v1/placements/advice", "", 200},
		{"release unknown id", "DELETE", "/v1/placements/p-999", "", 404},
		{"method not allowed on hosts", "POST", "/v1/hosts", "", 405},
		{"method not allowed on release", "POST", "/v1/placements/p-1", "", 405},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			req := httptest.NewRequest(tc.method, tc.path, strings.NewReader(tc.body))
			w := httptest.NewRecorder()
			h.ServeHTTP(w, req)
			if w.Code != tc.want {
				t.Errorf("%s %s = %d, want %d (body %s)", tc.method, tc.path, w.Code, tc.want, w.Body.String())
			}
		})
	}
}

func TestPlacementFullInventoryConflicts(t *testing.T) {
	svc, err := placement.New(placement.Config{Hosts: []placement.HostSpec{{Name: "only", Slots: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{Placement: svc})
	w := postJSON(t, s.Handler(), "/v1/placements", map[string]any{"app": "first"})
	if w.Code != 200 {
		t.Fatalf("first placement = %d: %s", w.Code, w.Body.String())
	}
	var d struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &d); err != nil {
		t.Fatal(err)
	}
	if w := postJSON(t, s.Handler(), "/v1/placements", map[string]any{"app": "second"}); w.Code != http.StatusConflict {
		t.Errorf("placement on full inventory = %d, want 409", w.Code)
	}
	req := httptest.NewRequest(http.MethodDelete, "/v1/placements/"+d.ID, nil)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != 200 {
		t.Fatalf("release = %d: %s", rec.Code, rec.Body.String())
	}
	if w := postJSON(t, s.Handler(), "/v1/placements", map[string]any{"app": "second"}); w.Code != 200 {
		t.Errorf("placement after release = %d, want 200", w.Code)
	}
}

// TestPlacementUsesLiveComposition verifies the prediction chain's first
// link: an application currently streaming snapshots is placed by its
// live classification, not the prior.
func TestPlacementUsesLiveComposition(t *testing.T) {
	s := newTestServer(t, Config{Placement: threeHostPlacer(t)})
	trace := profiledTrace(t, "PostMark")
	var snaps []any
	for i := 0; i < 10 && i < trace.Len(); i++ {
		sn := trace.At(i)
		snaps = append(snaps, map[string]any{"vm": "live-vm", "time_s": sn.Time.Seconds(), "values": sn.Values})
	}
	if w := postJSON(t, s.Handler(), "/v1/ingest", map[string]any{"snapshots": snaps}); w.Code != 200 {
		t.Fatalf("ingest = %d: %s", w.Code, w.Body.String())
	}
	w := postJSON(t, s.Handler(), "/v1/placements", map[string]any{"app": "live-vm"})
	if w.Code != 200 {
		t.Fatalf("placement = %d: %s", w.Code, w.Body.String())
	}
	var d struct {
		Source string             `json:"source"`
		Class  string             `json:"class"`
		Comp   map[string]float64 `json:"composition"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &d); err != nil {
		t.Fatal(err)
	}
	if d.Source != "live" {
		t.Errorf("source = %q, want live", d.Source)
	}
	sess, ok := s.reg.get("live-vm")
	if !ok {
		t.Fatal("live session vanished")
	}
	sess.mu.Lock()
	view := sess.online.Snapshot()
	sess.mu.Unlock()
	if d.Class != string(view.Class) {
		t.Errorf("placement class %q, live session class %q", d.Class, view.Class)
	}
}

// TestPlacementMetricsz checks the placement counters and gauges reach
// /metricsz.
func TestPlacementMetricsz(t *testing.T) {
	s := newTestServer(t, Config{Placement: threeHostPlacer(t)})
	w := postJSON(t, s.Handler(), "/v1/placements", map[string]any{"app": "counted"})
	if w.Code != 200 {
		t.Fatalf("placement = %d", w.Code)
	}
	req := httptest.NewRequest(http.MethodGet, "/metricsz", nil)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	body := rec.Body.String()
	for _, want := range []string{
		"appclassd_placements_total 1",
		"appclassd_placement_errors_total 0",
		"appclassd_releases_total 0",
		"appclassd_hosts 3",
		"appclassd_slots 9",
		"appclassd_placements_active 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metricsz missing %q", want)
		}
	}
}

// TestPlacementBeatsRoundRobinAfterReplay is the live analogue of the
// Figure 4 / Table 4 check, end to end: three labeled traces (one per
// paper workload class S/P/N) are replayed through the daemon and
// finalized into the application database; the same workload mix —
// three instances of each application, arriving interleaved — is then
// placed through POST /v1/placements. The class-aware assignments must
// mix classes on every host and, when simulated on the paper's testbed,
// beat a round-robin baseline on both system throughput and makespan.
func TestPlacementBeatsRoundRobinAfterReplay(t *testing.T) {
	// The placement service consults the same application database the
	// daemon finalizes sessions into — the learning loop closed.
	db := appdb.New()
	svc, err := placement.New(placement.Config{
		Hosts: []placement.HostSpec{
			{Name: "vm1", Slots: 3}, {Name: "vm2", Slots: 3}, {Name: "vm3", Slots: 3},
		},
		History: db,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{Placement: svc, DB: db})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Replay one labeled run of each class through the daemon and
	// finish it into the database — the learning half of the loop.
	classApps := []struct {
		app  string
		kind sched.Kind
		want appclass.Class
	}{
		{"SPECseis96_C", sched.KindS, appclass.CPU},
		{"PostMark", sched.KindP, appclass.IO},
		{"NetPIPE", sched.KindN, appclass.Net},
	}
	for _, ca := range classApps {
		trace := profiledTrace(t, ca.app)
		const batchSize = 50
		for start := 0; start < trace.Len(); start += batchSize {
			end := start + batchSize
			if end > trace.Len() {
				end = trace.Len()
			}
			var snaps []any
			for i := start; i < end; i++ {
				sn := trace.At(i)
				snaps = append(snaps, map[string]any{"vm": ca.app, "time_s": sn.Time.Seconds(), "values": sn.Values})
			}
			b, _ := json.Marshal(map[string]any{"snapshots": snaps})
			resp, err := http.Post(ts.URL+"/v1/ingest", "application/json", bytes.NewReader(b))
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != 200 {
				t.Fatalf("ingest %s batch at %d: status %d", ca.app, start, resp.StatusCode)
			}
			resp.Body.Close()
		}
		resp, err := http.Post(ts.URL+"/v1/vms/"+ca.app+"/finish", "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		var fin finishResponse
		if err := json.NewDecoder(resp.Body).Decode(&fin); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if fin.Class != string(ca.want) {
			t.Fatalf("replayed %s classified %q, want %q", ca.app, fin.Class, ca.want)
		}
	}

	// The placement half: three instances of each application arrive
	// interleaved (S, P, N, S, P, N, ...). Round-robin would stack each
	// class on one host; the class-aware service must mix them.
	hostIdx := map[string]int{"vm1": 0, "vm2": 1, "vm3": 2}
	var aware sched.Schedule
	var rr sched.Schedule
	awareFill := [3]int{}
	rrFill := [3]int{}
	arrival := 0
	for round := 0; round < 3; round++ {
		for _, ca := range classApps {
			resp, err := http.Post(ts.URL+"/v1/placements", "application/json",
				strings.NewReader(fmt.Sprintf(`{"app":%q}`, ca.app)))
			if err != nil {
				t.Fatal(err)
			}
			var d struct {
				Host   string `json:"host"`
				Source string `json:"source"`
				Class  string `json:"class"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&d); err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != 200 {
				t.Fatalf("placement %s: status %d", ca.app, resp.StatusCode)
			}
			if d.Source != "history" {
				t.Errorf("placement %s from %q, want history (session finished)", ca.app, d.Source)
			}
			if d.Class != string(ca.want) {
				t.Errorf("placement %s predicted class %q, want %q", ca.app, d.Class, ca.want)
			}
			hi, ok := hostIdx[d.Host]
			if !ok {
				t.Fatalf("placement %s on unknown host %q", ca.app, d.Host)
			}
			aware[hi][awareFill[hi]] = ca.kind
			awareFill[hi]++
			ri := arrival % 3
			rr[ri][rrFill[ri]] = ca.kind
			rrFill[ri]++
			arrival++
		}
	}
	for i, n := range awareFill {
		if n != 3 {
			t.Fatalf("host vm%d received %d placements, want 3", i+1, n)
		}
	}
	// Class-aware placement of this arrival order must be the all-mixed
	// SPN schedule; round-robin stacks one class per host.
	if got := aware.Canonical(); got != sched.SPN() {
		t.Fatalf("class-aware assignment = %s, want %s", got, sched.SPN())
	}
	if got := rr.Canonical(); got == sched.SPN() {
		t.Fatal("round-robin baseline unexpectedly produced the mixed schedule")
	}

	// Simulate both on the paper's testbed: the class-aware policy must
	// win on throughput and finish the whole batch sooner.
	awareRes, err := sched.Run(aware.Canonical(), sched.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rrRes, err := sched.Run(rr.Canonical(), sched.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if awareRes.SystemThroughput <= rrRes.SystemThroughput {
		t.Errorf("class-aware throughput %.1f <= round-robin %.1f",
			awareRes.SystemThroughput, rrRes.SystemThroughput)
	}
	if mk, rm := makespan(awareRes), makespan(rrRes); mk > rm {
		t.Errorf("class-aware makespan %v > round-robin %v", mk, rm)
	}
	t.Logf("class-aware %s: throughput %.1f jobs/day, makespan %v",
		aware.Canonical(), awareRes.SystemThroughput, makespan(awareRes))
	t.Logf("round-robin %s: throughput %.1f jobs/day, makespan %v",
		rr.Canonical(), rrRes.SystemThroughput, makespan(rrRes))
}

func makespan(r *sched.Result) time.Duration {
	var m time.Duration
	for _, d := range r.Elapsed {
		if d > m {
			m = d
		}
	}
	return m
}

// TestConcurrentPlacementsVsIngest hammers placements, releases, host
// queries, and snapshot ingest from many goroutines at once; run under
// -race this exercises the placement service lock against the session
// registry and the live-composition wiring.
func TestConcurrentPlacementsVsIngest(t *testing.T) {
	svc, err := placement.New(placement.Config{Hosts: []placement.HostSpec{
		{Name: "h1", Slots: 100}, {Name: "h2", Slots: 100}, {Name: "h3", Slots: 100},
	}})
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{Placement: svc})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const (
		goroutines = 30
		perG       = 10
	)
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			vm := fmt.Sprintf("vm-%d", g%6)
			for i := 0; i < perG; i++ {
				switch g % 3 {
				case 0: // ingest snapshots (feeds live predictions)
					b, _ := json.Marshal(map[string]any{"snapshots": []any{map[string]any{
						"vm": vm, "time_s": float64(g*perG + i),
						"values": make([]float64, metrics.DefaultSchema().Len()),
					}}})
					resp, err := http.Post(ts.URL+"/v1/ingest", "application/json", bytes.NewReader(b))
					if err != nil {
						errc <- err
						return
					}
					resp.Body.Close()
					if resp.StatusCode != 200 {
						errc <- fmt.Errorf("ingest %s: %d", vm, resp.StatusCode)
						return
					}
				case 1: // place, then release
					resp, err := http.Post(ts.URL+"/v1/placements", "application/json",
						strings.NewReader(fmt.Sprintf(`{"app":%q}`, vm)))
					if err != nil {
						errc <- err
						return
					}
					var d struct {
						ID string `json:"id"`
					}
					if err := json.NewDecoder(resp.Body).Decode(&d); err != nil {
						errc <- err
						return
					}
					resp.Body.Close()
					if resp.StatusCode != 200 {
						errc <- fmt.Errorf("place %s: %d", vm, resp.StatusCode)
						return
					}
					req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/placements/"+d.ID, nil)
					del, err := http.DefaultClient.Do(req)
					if err != nil {
						errc <- err
						return
					}
					del.Body.Close()
					if del.StatusCode != 200 {
						errc <- fmt.Errorf("release %s: %d", d.ID, del.StatusCode)
						return
					}
				default: // read inventory and advice
					for _, path := range []string{"/v1/hosts", "/v1/placements/advice"} {
						resp, err := http.Get(ts.URL + path)
						if err != nil {
							errc <- err
							return
						}
						resp.Body.Close()
						if resp.StatusCode != 200 {
							errc <- fmt.Errorf("%s: %d", path, resp.StatusCode)
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	// Every placement was released: the inventory must be empty again.
	if st := svc.Stat(); st.Placements != 0 {
		t.Errorf("%d placements still active after release storm", st.Placements)
	}
	placed := s.counters.placements.Load()
	released := s.counters.releases.Load()
	if placed != released || placed == 0 {
		t.Errorf("placements counter %d, releases %d; want equal and nonzero", placed, released)
	}
}
