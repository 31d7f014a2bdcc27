package placement

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/appclass"
	"repro/internal/appdb"
	"repro/internal/costmodel"
)

// ErrNoCapacity reports that every host in the inventory is full; the
// serving layer maps it to 409 Conflict while validation failures stay
// 400s.
var ErrNoCapacity = errors.New("placement: no host has a free slot")

// HostSpec configures one host in the inventory.
type HostSpec struct {
	// Name identifies the host.
	Name string `json:"name"`
	// Slots is how many applications the host can run at once.
	Slots int `json:"slots"`
}

// ParseHosts parses a "name:slots,name:slots" inventory spec, the
// tools' -hosts flag; blanks around names, slots and commas are ignored.
func ParseHosts(spec string) ([]HostSpec, error) {
	var out []HostSpec
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, slotsStr, ok := strings.Cut(part, ":")
		if !ok {
			return nil, fmt.Errorf("host %q: want name:slots", part)
		}
		slots, err := strconv.Atoi(strings.TrimSpace(slotsStr))
		if err != nil {
			return nil, fmt.Errorf("host %q: %w", part, err)
		}
		out = append(out, HostSpec{Name: strings.TrimSpace(name), Slots: slots})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty host inventory %q", spec)
	}
	return out, nil
}

// LiveFunc looks up the live class composition of an application that
// is currently streaming snapshots (appclassd wires this to its session
// registry). The bool reports whether live state exists.
type LiveFunc func(app string) (map[appclass.Class]float64, bool)

// Config parameterizes the placement service.
type Config struct {
	// Hosts is the inventory (required, names unique, slots positive).
	Hosts []HostSpec
	// Rates are the cost-model prices weighting the affinity scores.
	// The zero value prices every class equally at 1 (idle at 0).
	Rates costmodel.Rates
	// Prior is the composition assumed for applications with no live or
	// historical state. Nil means uniform over the four active classes.
	Prior map[appclass.Class]float64
	// History is the application database consulted for returning
	// applications. Nil disables history lookups.
	History *appdb.DB
	// Live resolves live compositions; usually wired by the server via
	// SetLive. Nil disables live lookups.
	Live LiveFunc
	// DriftThreshold is the total-variation distance between a host's
	// assumed and realized class mixes above which the migration advisor
	// flags it. Zero means 0.25.
	DriftThreshold float64
	// Now supplies wall-clock time; tests inject fake clocks. Nil means
	// time.Now.
	Now func() time.Time
}

// Service is a concurrency-safe class-aware placement service.
type Service struct {
	mu         sync.Mutex
	cfg        Config
	hosts      []*host // in Config.Hosts order
	byName     map[string]*host
	placements map[string]*placed
	seq        int
	live       LiveFunc
}

// host is one inventory entry plus its resident placements and the
// per-class load vector (the sum of resident assumed compositions).
type host struct {
	spec   HostSpec
	placed map[string]*placed
	load   map[appclass.Class]float64
}

// placed is one active placement.
type placed struct {
	id      string
	app     string
	host    *host
	assumed map[appclass.Class]float64
	source  string
	score   float64
	at      time.Time
}

// New builds a placement service over the configured inventory.
func New(cfg Config) (*Service, error) {
	if len(cfg.Hosts) == 0 {
		return nil, fmt.Errorf("placement: no hosts configured")
	}
	if cfg.Rates == (costmodel.Rates{}) {
		cfg.Rates = costmodel.Rates{CPU: 1, Mem: 1, IO: 1, Net: 1}
	}
	if err := cfg.Rates.Validate(); err != nil {
		return nil, err
	}
	if cfg.Prior == nil {
		cfg.Prior = map[appclass.Class]float64{
			appclass.CPU: 0.25, appclass.Mem: 0.25, appclass.IO: 0.25, appclass.Net: 0.25,
		}
	}
	if err := validComposition(cfg.Prior); err != nil {
		return nil, fmt.Errorf("placement: prior: %w", err)
	}
	if cfg.DriftThreshold <= 0 {
		cfg.DriftThreshold = 0.25
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	s := &Service{
		cfg:        cfg,
		byName:     make(map[string]*host, len(cfg.Hosts)),
		placements: make(map[string]*placed),
		live:       cfg.Live,
	}
	for _, spec := range cfg.Hosts {
		if spec.Name == "" {
			return nil, fmt.Errorf("placement: host with empty name")
		}
		if spec.Slots <= 0 {
			return nil, fmt.Errorf("placement: host %q has %d slots, want positive", spec.Name, spec.Slots)
		}
		if _, dup := s.byName[spec.Name]; dup {
			return nil, fmt.Errorf("placement: duplicate host %q", spec.Name)
		}
		h := &host{
			spec:   spec,
			placed: make(map[string]*placed),
			load:   make(map[appclass.Class]float64),
		}
		s.hosts = append(s.hosts, h)
		s.byName[spec.Name] = h
	}
	return s, nil
}

func validComposition(comp map[appclass.Class]float64) error {
	var total float64
	for c, f := range comp {
		if !appclass.Valid(c) {
			return fmt.Errorf("invalid class %q", c)
		}
		if !(f >= 0 && f <= 1) { // also rejects NaN
			return fmt.Errorf("fraction %v for %s outside [0,1]", f, c)
		}
		total += f
	}
	if total > 1.01 {
		return fmt.Errorf("composition sums to %v > 1", total)
	}
	return nil
}

// SetLive wires the live composition lookup after construction (the
// daemon calls this with a closure over its session registry).
func (s *Service) SetLive(fn LiveFunc) {
	s.mu.Lock()
	s.live = fn
	s.mu.Unlock()
}

// Rates returns the configured cost-model rates.
func (s *Service) Rates() costmodel.Rates { return s.cfg.Rates }

// Predict estimates an application's class composition: live
// classification state first, then the mean composition of its
// historical appdb runs, then the configured prior. The source return
// is "live", "history", or "prior".
func (s *Service) Predict(app string) (map[appclass.Class]float64, string) {
	s.mu.Lock()
	live := s.live
	s.mu.Unlock()
	if live != nil {
		if comp, ok := live(app); ok && len(comp) > 0 {
			return cloneComp(comp), "live"
		}
	}
	if s.cfg.History != nil {
		if sum, err := s.cfg.History.Summarize(app); err == nil && len(sum.MeanComposition) > 0 {
			return cloneComp(sum.MeanComposition), "history"
		}
	}
	return cloneComp(s.cfg.Prior), "prior"
}

// HostScore is one candidate host's affinity score for a placement.
type HostScore struct {
	Host  string  `json:"host"`
	Score float64 `json:"score"`
	Free  int     `json:"free"`
}

// Decision is the outcome of one placement request.
type Decision struct {
	// ID releases the placement later (DELETE /v1/placements/{id}).
	ID string `json:"id"`
	// App is the placed application.
	App string `json:"app"`
	// Host is the chosen host.
	Host string `json:"host"`
	// Class is the dominant class of the predicted composition.
	Class appclass.Class `json:"class"`
	// Composition is the class composition the decision assumed.
	Composition map[appclass.Class]float64 `json:"composition"`
	// Source says where the composition came from: "live", "history",
	// "prior", or "request".
	Source string `json:"source"`
	// Score is the chosen host's affinity score (lower is better,
	// negative means complementary residents).
	Score float64 `json:"score"`
	// Alternatives ranks the other feasible hosts, best first.
	Alternatives []HostScore `json:"alternatives"`
	// At is the placement time.
	At time.Time `json:"-"`
}

// Place predicts app's composition and assigns it to the best host.
func (s *Service) Place(app string) (Decision, error) {
	if app == "" {
		return Decision{}, fmt.Errorf("placement: empty application name")
	}
	comp, source := s.Predict(app)
	return s.PlaceComposition(app, comp, source)
}

// PlaceComposition assigns app, with a caller-supplied class
// composition, to the feasible host with the lowest affinity score
// (ties broken by fewer residents, then by inventory order). It returns
// an error when every host is full.
func (s *Service) PlaceComposition(app string, comp map[appclass.Class]float64, source string) (Decision, error) {
	if app == "" {
		return Decision{}, fmt.Errorf("placement: empty application name")
	}
	if len(comp) == 0 {
		return Decision{}, fmt.Errorf("placement: empty composition for %q", app)
	}
	if err := validComposition(comp); err != nil {
		return Decision{}, fmt.Errorf("placement: %q: %w", app, err)
	}
	comp = cloneComp(comp)

	s.mu.Lock()
	defer s.mu.Unlock()
	type cand struct {
		h     *host
		score float64
		order int
	}
	cands := make([]cand, 0, len(s.hosts))
	for i, h := range s.hosts {
		if len(h.placed) >= h.spec.Slots {
			continue
		}
		cands = append(cands, cand{h: h, score: CompositionScore(h.load, comp, s.cfg.Rates), order: i})
	}
	if len(cands) == 0 {
		return Decision{}, fmt.Errorf("%w for %q", ErrNoCapacity, app)
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].score != cands[j].score {
			return cands[i].score < cands[j].score
		}
		if len(cands[i].h.placed) != len(cands[j].h.placed) {
			return len(cands[i].h.placed) < len(cands[j].h.placed)
		}
		return cands[i].order < cands[j].order
	})
	best := cands[0]
	s.seq++
	p := &placed{
		id:      fmt.Sprintf("p-%d", s.seq),
		app:     app,
		host:    best.h,
		assumed: comp,
		source:  source,
		score:   best.score,
		at:      s.cfg.Now(),
	}
	best.h.placed[p.id] = p
	for c, f := range comp {
		best.h.load[c] += f
	}
	s.placements[p.id] = p

	d := Decision{
		ID:           p.id,
		App:          app,
		Host:         best.h.spec.Name,
		Class:        Dominant(comp),
		Composition:  cloneComp(comp),
		Source:       source,
		Score:        best.score,
		Alternatives: make([]HostScore, 0, len(cands)-1),
		At:           p.at,
	}
	for _, c := range cands[1:] {
		d.Alternatives = append(d.Alternatives, HostScore{
			Host:  c.h.spec.Name,
			Score: c.score,
			Free:  c.h.spec.Slots - len(c.h.placed),
		})
	}
	return d, nil
}

// Release removes a placement by ID, freeing its slot and load. It
// reports whether the ID was active.
func (s *Service) Release(id string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.placements[id]
	if !ok {
		return false
	}
	delete(s.placements, id)
	delete(p.host.placed, id)
	// Recompute instead of subtracting so float drift cannot accumulate
	// over long placement/release churn.
	recalcLoad(p.host)
	return true
}

func recalcLoad(h *host) {
	for c := range h.load {
		delete(h.load, c)
	}
	for _, p := range h.placed {
		for c, f := range p.assumed {
			h.load[c] += f
		}
	}
}

// PlacementView is the exported state of one active placement.
type PlacementView struct {
	ID          string                     `json:"id"`
	App         string                     `json:"app"`
	Host        string                     `json:"host"`
	Class       appclass.Class             `json:"class"`
	Composition map[appclass.Class]float64 `json:"composition"`
	Source      string                     `json:"source"`
	Score       float64                    `json:"score"`
	At          time.Time                  `json:"-"`
}

// HostView is the exported state of one host: capacity, residents, and
// the per-class load vector.
type HostView struct {
	Name       string                     `json:"name"`
	Slots      int                        `json:"slots"`
	Used       int                        `json:"used"`
	Free       int                        `json:"free"`
	Load       map[appclass.Class]float64 `json:"load"`
	Placements []PlacementView            `json:"placements"`
}

func (s *Service) viewLocked(h *host) HostView {
	v := HostView{
		Name:       h.spec.Name,
		Slots:      h.spec.Slots,
		Used:       len(h.placed),
		Free:       h.spec.Slots - len(h.placed),
		Load:       cloneComp(h.load),
		Placements: make([]PlacementView, 0, len(h.placed)),
	}
	for _, p := range h.placed {
		v.Placements = append(v.Placements, viewOf(p))
	}
	sort.Slice(v.Placements, func(i, j int) bool { return v.Placements[i].ID < v.Placements[j].ID })
	return v
}

func viewOf(p *placed) PlacementView {
	return PlacementView{
		ID:          p.id,
		App:         p.app,
		Host:        p.host.spec.Name,
		Class:       Dominant(p.assumed),
		Composition: cloneComp(p.assumed),
		Source:      p.source,
		Score:       p.score,
		At:          p.at,
	}
}

// Hosts returns every host's view in inventory order.
func (s *Service) Hosts() []HostView {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]HostView, 0, len(s.hosts))
	for _, h := range s.hosts {
		out = append(out, s.viewLocked(h))
	}
	return out
}

// Host returns one host's view by name.
func (s *Service) Host(name string) (HostView, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	h, ok := s.byName[name]
	if !ok {
		return HostView{}, false
	}
	return s.viewLocked(h), true
}

// Placements returns every active placement, ordered by ID sequence.
func (s *Service) Placements() []PlacementView {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]PlacementView, 0, len(s.placements))
	for _, p := range s.placements {
		out = append(out, viewOf(p))
	}
	sort.Slice(out, func(i, j int) bool {
		return seqOf(out[i].ID) < seqOf(out[j].ID)
	})
	return out
}

// seqOf recovers the numeric sequence from a "p-N" placement ID so
// listings sort in placement order rather than lexically.
func seqOf(id string) int {
	var n int
	fmt.Sscanf(id, "p-%d", &n)
	return n
}

// Stats summarizes the inventory for /metricsz gauges.
type Stats struct {
	Hosts      int
	Slots      int
	Placements int
}

// Stat returns current inventory gauges.
func (s *Service) Stat() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{Hosts: len(s.hosts), Placements: len(s.placements)}
	for _, h := range s.hosts {
		st.Slots += h.spec.Slots
	}
	return st
}

func cloneComp(m map[appclass.Class]float64) map[appclass.Class]float64 {
	out := make(map[appclass.Class]float64, len(m))
	for c, f := range m {
		out[c] = f
	}
	return out
}
