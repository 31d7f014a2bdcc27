package placement

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/appclass"
	"repro/internal/appdb"
	"repro/internal/costmodel"
)

func unitRates() costmodel.Rates {
	return costmodel.Rates{CPU: 1, Mem: 1, IO: 1, Net: 1}
}

func comp(c appclass.Class) map[appclass.Class]float64 {
	return map[appclass.Class]float64{c: 1}
}

func TestAffinity(t *testing.T) {
	r := costmodel.Rates{CPU: 10, Mem: 8, IO: 6, Net: 4, Idle: 1}
	tests := []struct {
		a, b appclass.Class
		want float64
	}{
		{appclass.CPU, appclass.CPU, 10},               // same class: full contention at α
		{appclass.IO, appclass.IO, 6},                  // same class at γ
		{appclass.CPU, appclass.IO, -0.25 * 8},         // complementary: -0.25·(10+6)/2
		{appclass.CPU, appclass.Net, -0.25 * 7},        // -0.25·(10+4)/2
		{appclass.CPU, appclass.Mem, -0.25 * 9},        // -0.25·(10+8)/2
		{appclass.IO, appclass.Mem, 0.5 * (6 + 8) / 2}, // disk-sharing pair
		{appclass.IO, appclass.Net, 0},                 // independent devices
		{appclass.Idle, appclass.CPU, 0},
		{appclass.Idle, appclass.Idle, 0},
	}
	for _, tc := range tests {
		got := Affinity(tc.a, tc.b, r)
		if got != tc.want {
			t.Errorf("Affinity(%s,%s) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
		if sym := Affinity(tc.b, tc.a, r); sym != got {
			t.Errorf("Affinity(%s,%s) = %v not symmetric (%v)", tc.b, tc.a, sym, got)
		}
	}
}

func TestCompositionScore(t *testing.T) {
	r := unitRates()
	load := map[appclass.Class]float64{appclass.CPU: 1}
	if got := CompositionScore(load, comp(appclass.CPU), r); got != 1 {
		t.Errorf("cpu on cpu = %v, want 1", got)
	}
	if got := CompositionScore(load, comp(appclass.IO), r); got >= 0 {
		t.Errorf("io on cpu = %v, want negative (complementary)", got)
	}
	if got := CompositionScore(nil, comp(appclass.CPU), r); got != 0 {
		t.Errorf("empty host = %v, want 0", got)
	}
	// Half-CPU half-IO incoming onto a CPU-loaded host: 0.5·1 + 0.5·(-0.25).
	mixed := map[appclass.Class]float64{appclass.CPU: 0.5, appclass.IO: 0.5}
	if got, want := CompositionScore(load, mixed, r), 0.5-0.5*0.25; got != want {
		t.Errorf("mixed = %v, want %v", got, want)
	}
}

func TestDominant(t *testing.T) {
	if got := Dominant(map[appclass.Class]float64{appclass.IO: 0.6, appclass.CPU: 0.4}); got != appclass.IO {
		t.Errorf("dominant = %s, want io", got)
	}
	// Tie broken in canonical order (idle, io, cpu, net, mem).
	if got := Dominant(map[appclass.Class]float64{appclass.Net: 0.5, appclass.IO: 0.5}); got != appclass.IO {
		t.Errorf("tie dominant = %s, want io", got)
	}
	if got := Dominant(nil); got != "" {
		t.Errorf("empty dominant = %q, want empty", got)
	}
}

func TestDealByClassSpreads(t *testing.T) {
	jobs := []appclass.Class{
		appclass.CPU, appclass.CPU, appclass.CPU,
		appclass.IO, appclass.IO, appclass.IO,
		appclass.Net, appclass.Net, appclass.Net,
	}
	rank := func(c appclass.Class) int {
		for i, x := range appclass.All() {
			if x == c {
				return i
			}
		}
		return len(appclass.All())
	}
	bins, err := DealByClass(jobs, 3, 3, rank)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range bins {
		seen := map[appclass.Class]bool{}
		for _, c := range b {
			if seen[c] {
				t.Errorf("bin %d repeats class %s: %v", i, c, b)
			}
			seen[c] = true
		}
	}
	if _, err := DealByClass(jobs, 0, 3, rank); err == nil {
		t.Error("zero bins: want error")
	}
	if _, err := DealByClass(jobs[:2], 3, 3, rank); err == nil {
		t.Error("count mismatch: want error")
	}
}

func newTestService(t *testing.T, hosts []HostSpec, cfg Config) *Service {
	t.Helper()
	cfg.Hosts = hosts
	if cfg.Rates == (costmodel.Rates{}) {
		cfg.Rates = unitRates()
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func threeHosts() []HostSpec {
	return []HostSpec{{Name: "h1", Slots: 3}, {Name: "h2", Slots: 3}, {Name: "h3", Slots: 3}}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("no hosts: want error")
	}
	if _, err := New(Config{Hosts: []HostSpec{{Name: "a", Slots: 0}}}); err == nil {
		t.Error("zero slots: want error")
	}
	if _, err := New(Config{Hosts: []HostSpec{{Name: "a", Slots: 1}, {Name: "a", Slots: 1}}}); err == nil {
		t.Error("duplicate host: want error")
	}
	if _, err := New(Config{Hosts: []HostSpec{{Name: "", Slots: 1}}}); err == nil {
		t.Error("empty name: want error")
	}
	if _, err := New(Config{
		Hosts: []HostSpec{{Name: "a", Slots: 1}},
		Prior: map[appclass.Class]float64{"bogus": 1},
	}); err == nil {
		t.Error("invalid prior class: want error")
	}
	if _, err := New(Config{
		Hosts: []HostSpec{{Name: "a", Slots: 1}},
		Rates: costmodel.Rates{CPU: -1},
	}); err == nil {
		t.Error("negative rate: want error")
	}
}

func TestPlaceCoLocatesComplementaryClasses(t *testing.T) {
	s := newTestService(t, threeHosts(), Config{})
	d1, err := s.PlaceComposition("cpu-app", comp(appclass.CPU), "request")
	if err != nil {
		t.Fatal(err)
	}
	if d1.Host != "h1" {
		t.Errorf("first placement on %s, want h1 (inventory order)", d1.Host)
	}
	// An I/O app should join the CPU app (negative score), not an empty
	// host (zero score).
	d2, err := s.PlaceComposition("io-app", comp(appclass.IO), "request")
	if err != nil {
		t.Fatal(err)
	}
	if d2.Host != d1.Host {
		t.Errorf("io placed on %s, want co-located with cpu on %s", d2.Host, d1.Host)
	}
	if d2.Score >= 0 {
		t.Errorf("io-on-cpu score = %v, want negative", d2.Score)
	}
	if len(d2.Alternatives) != 2 {
		t.Errorf("%d alternatives, want 2", len(d2.Alternatives))
	}
	// A second CPU app must avoid the loaded host.
	d3, err := s.PlaceComposition("cpu-app-2", comp(appclass.CPU), "request")
	if err != nil {
		t.Fatal(err)
	}
	if d3.Host == d1.Host {
		t.Errorf("second cpu app stacked on %s", d3.Host)
	}
}

func TestPlaceSpreadsSameClass(t *testing.T) {
	s := newTestService(t, threeHosts(), Config{})
	used := map[string]bool{}
	for i := 0; i < 3; i++ {
		d, err := s.PlaceComposition(fmt.Sprintf("cpu-%d", i), comp(appclass.CPU), "request")
		if err != nil {
			t.Fatal(err)
		}
		if used[d.Host] {
			t.Errorf("cpu-%d stacked on already-used host %s", i, d.Host)
		}
		used[d.Host] = true
	}
}

func TestPlaceCapacityAndRelease(t *testing.T) {
	s := newTestService(t, []HostSpec{{Name: "only", Slots: 1}}, Config{})
	d, err := s.Place("a")
	if err != nil {
		t.Fatal(err)
	}
	if d.Source != "prior" {
		t.Errorf("source = %q, want prior (no live, no history)", d.Source)
	}
	if _, err := s.Place("b"); err == nil {
		t.Error("full inventory: want error")
	}
	if !s.Release(d.ID) {
		t.Error("release active placement: want true")
	}
	if s.Release(d.ID) {
		t.Error("double release: want false")
	}
	if s.Release("p-999") {
		t.Error("unknown id: want false")
	}
	if _, err := s.Place("b"); err != nil {
		t.Errorf("place after release: %v", err)
	}
	h, ok := s.Host("only")
	if !ok || h.Used != 1 || h.Free != 0 {
		t.Errorf("host view = %+v ok=%v", h, ok)
	}
}

func TestReleaseClearsLoadExactly(t *testing.T) {
	s := newTestService(t, []HostSpec{{Name: "h", Slots: 4}}, Config{})
	var ids []string
	for i := 0; i < 4; i++ {
		d, err := s.PlaceComposition(fmt.Sprintf("a%d", i),
			map[appclass.Class]float64{appclass.CPU: 0.3, appclass.IO: 0.7}, "request")
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, d.ID)
	}
	for _, id := range ids {
		s.Release(id)
	}
	h, _ := s.Host("h")
	for c, f := range h.Load {
		if f != 0 {
			t.Errorf("residual load %s=%v after releasing everything", c, f)
		}
	}
	if h.Used != 0 {
		t.Errorf("used = %d after releasing everything", h.Used)
	}
}

func TestPredictChain(t *testing.T) {
	db := appdb.New()
	if err := db.Put(appdb.Record{
		App: "seen", Class: appclass.IO,
		Composition:   map[appclass.Class]float64{appclass.IO: 1},
		ExecutionTime: time.Minute, Samples: 10,
	}); err != nil {
		t.Fatal(err)
	}
	s := newTestService(t, threeHosts(), Config{History: db})

	if c, src := s.Predict("unseen"); src != "prior" || len(c) == 0 {
		t.Errorf("unseen = %v source %q, want prior", c, src)
	}
	if c, src := s.Predict("seen"); src != "history" || c[appclass.IO] != 1 {
		t.Errorf("seen = %v source %q, want history io=1", c, src)
	}
	s.SetLive(func(app string) (map[appclass.Class]float64, bool) {
		if app == "seen" {
			return map[appclass.Class]float64{appclass.Net: 1}, true
		}
		return nil, false
	})
	if c, src := s.Predict("seen"); src != "live" || c[appclass.Net] != 1 {
		t.Errorf("live seen = %v source %q, want live net=1", c, src)
	}
}

func TestPlaceValidation(t *testing.T) {
	s := newTestService(t, threeHosts(), Config{})
	if _, err := s.Place(""); err == nil {
		t.Error("empty app: want error")
	}
	if _, err := s.PlaceComposition("a", nil, "request"); err == nil {
		t.Error("empty composition: want error")
	}
	if _, err := s.PlaceComposition("a", map[appclass.Class]float64{"bogus": 1}, "request"); err == nil {
		t.Error("invalid class: want error")
	}
	if _, err := s.PlaceComposition("a", map[appclass.Class]float64{appclass.CPU: 2}, "request"); err == nil {
		t.Error("fraction > 1: want error")
	}
}

func TestPlacementsOrderedBySequence(t *testing.T) {
	s := newTestService(t, []HostSpec{{Name: "h", Slots: 12}}, Config{})
	for i := 0; i < 11; i++ {
		if _, err := s.Place(fmt.Sprintf("app-%02d", i)); err != nil {
			t.Fatal(err)
		}
	}
	views := s.Placements()
	if len(views) != 11 {
		t.Fatalf("%d placements, want 11", len(views))
	}
	// p-10 and p-11 must sort after p-9 (numeric, not lexical).
	for i, v := range views {
		if want := fmt.Sprintf("p-%d", i+1); v.ID != want {
			t.Errorf("placement %d has id %s, want %s", i, v.ID, want)
		}
	}
}

func TestStat(t *testing.T) {
	s := newTestService(t, threeHosts(), Config{})
	if _, err := s.Place("a"); err != nil {
		t.Fatal(err)
	}
	st := s.Stat()
	if st.Hosts != 3 || st.Slots != 9 || st.Placements != 1 {
		t.Errorf("stat = %+v, want 3 hosts, 9 slots, 1 placement", st)
	}
}

func TestAdviseFlagsDriftedHosts(t *testing.T) {
	s := newTestService(t, threeHosts(), Config{DriftThreshold: 0.5})
	d, err := s.PlaceComposition("shape-shifter", comp(appclass.CPU), "request")
	if err != nil {
		t.Fatal(err)
	}
	// No live state: realized == assumed, nothing to advise.
	if got := s.Advise(); len(got) != 0 {
		t.Fatalf("advise with no live state = %v, want none", got)
	}
	// The app's live behaviour has flipped from CPU to IO: TV distance 1.
	s.SetLive(func(app string) (map[appclass.Class]float64, bool) {
		return map[appclass.Class]float64{appclass.IO: 1}, true
	})
	advice := s.Advise()
	if len(advice) != 1 {
		t.Fatalf("advise = %v, want 1 host flagged", advice)
	}
	a := advice[0]
	if a.Host != d.Host {
		t.Errorf("flagged %s, want %s", a.Host, d.Host)
	}
	if a.Drift != 1 {
		t.Errorf("drift = %v, want 1 (full class flip)", a.Drift)
	}
	if len(a.Apps) != 1 || a.Apps[0].Assumed != appclass.CPU || a.Apps[0].Realized != appclass.IO {
		t.Errorf("app drift = %+v, want cpu->io", a.Apps)
	}
	// Below-threshold drift stays quiet.
	s.SetLive(func(app string) (map[appclass.Class]float64, bool) {
		return map[appclass.Class]float64{appclass.CPU: 0.8, appclass.IO: 0.2}, true
	})
	if got := s.Advise(); len(got) != 0 {
		t.Errorf("advise below threshold = %v, want none", got)
	}
}

func TestPlacementErrorsMentionPackage(t *testing.T) {
	_, err := New(Config{})
	if err == nil || !strings.Contains(err.Error(), "placement:") {
		t.Errorf("error %v should carry the placement: prefix", err)
	}
}

func TestParseHosts(t *testing.T) {
	cases := []struct {
		spec string
		want []HostSpec
	}{
		{"a:2", []HostSpec{{Name: "a", Slots: 2}}},
		{" hostA:4 , hostB: 2 ,", []HostSpec{{Name: "hostA", Slots: 4}, {Name: "hostB", Slots: 2}}},
		{"", nil},
		{" , ,", nil},
		{"noslots", nil},
		{"h:x", nil},
		{"h:", nil},
		{"a:1,b", nil},
	}
	for _, c := range cases {
		got, err := ParseHosts(c.spec)
		if (err == nil) != (c.want != nil) || fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Errorf("ParseHosts(%q) = %+v, %v; want %+v", c.spec, got, err, c.want)
		}
	}
}

func TestNewRefusesNonFiniteRates(t *testing.T) {
	for _, r := range []costmodel.Rates{{CPU: math.NaN()}, {Idle: math.Inf(1)}} {
		if _, err := New(Config{Hosts: []HostSpec{{Name: "a", Slots: 1}}, Rates: r}); err == nil {
			t.Errorf("New with rates %+v: want error", r)
		}
	}
}
