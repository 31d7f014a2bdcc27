// Package phase implements online phase segmentation and execution
// fingerprints on top of the classification center. The paper collapses
// a whole run into one majority-vote label, but its Table 3 traces show
// applications moving through distinct CPU/IO/network phases; this
// package recovers that per-phase signal while the run is still live: a
// change-point detector over the 2-D fused feature stream splits the
// run into phases, each phase carries its own class composition and
// feature centroid, and a finalized run's phase sequence canonicalizes
// into a fingerprint that can be matched against prior runs so a
// returning application is recognized across runs.
package phase

import (
	"fmt"
	"math"
	"time"

	"repro/internal/appclass"
)

// Config parameterizes the online segmenter. The zero value selects the
// defaults below.
type Config struct {
	// Window is the half-window width W in snapshots: the detector
	// compares the mean feature vector of the W most recent snapshots
	// against the mean of the W before them and declares a boundary
	// between the halves when the means drift apart by more than
	// Threshold. Detection latency is therefore about W snapshots, and a
	// boundary is placed at most W snapshots from the true change point.
	// Default 8.
	Window int
	// MinLen is the minimum number of snapshots a closed phase may keep
	// (boundaries that would leave a shorter phase are suppressed).
	// Default 5.
	MinLen int
	// Threshold is the Euclidean distance between the two half-window
	// means that declares a change point, in feature-space units (the
	// PCA feature space is z-score derived, so class clusters sit O(1)
	// apart; see docs/phases.md for calibration guidance). Default 1.0.
	Threshold float64
}

// Segmentation defaults.
const (
	DefaultWindow    = 8
	DefaultMinLen    = 5
	DefaultThreshold = 1.0
)

func (c Config) withDefaults() Config {
	if c.Window <= 0 {
		c.Window = DefaultWindow
	}
	if c.MinLen <= 0 {
		c.MinLen = DefaultMinLen
	}
	if c.Threshold <= 0 {
		c.Threshold = DefaultThreshold
	}
	return c
}

// Phase is one detected execution phase: a maximal stretch of the run
// between two change points, described by the snapshots inside it.
type Phase struct {
	// Class is the phase's majority snapshot class.
	Class appclass.Class `json:"class"`
	// Start and End bound the phase in snapshot time (End is the time
	// of the phase's last snapshot so far).
	Start time.Duration `json:"start_ns"`
	End   time.Duration `json:"end_ns"`
	// Snapshots is the number of snapshots in the phase.
	Snapshots int `json:"snapshots"`
	// Composition maps each class to its fraction of the phase's
	// snapshots.
	Composition map[appclass.Class]float64 `json:"composition,omitempty"`
	// Centroid is the mean fused feature vector of the phase — the
	// phase's position in the classifier's PCA feature space.
	Centroid []float64 `json:"centroid,omitempty"`
	// Open marks the still-accumulating final phase of a live session.
	Open bool `json:"open,omitempty"`
}

// Duration returns the phase's time span.
func (p Phase) Duration() time.Duration { return p.End - p.Start }

// accum is the running state of one phase under construction: class
// counts and feature sums rather than fractions and means, so export,
// restore, and late rendering are all bit-exact.
type accum struct {
	start, end time.Duration
	n          int
	counts     map[appclass.Class]int
	featSum    []float64
}

func newAccum(q int) accum {
	return accum{counts: make(map[appclass.Class]int, 5), featSum: make([]float64, q)}
}

func (a *accum) add(at time.Duration, class appclass.Class, feat []float64) {
	if a.n == 0 {
		a.start = at
	}
	a.n++
	a.end = at
	a.counts[class]++
	for i, v := range feat {
		a.featSum[i] += v
	}
}

func (a *accum) remove(at time.Duration, class appclass.Class, feat []float64) {
	a.n--
	a.counts[class]--
	if a.counts[class] == 0 {
		delete(a.counts, class)
	}
	for i, v := range feat {
		a.featSum[i] -= v
	}
}

// render converts the accumulator into an immutable Phase.
func (a *accum) render(open bool) Phase {
	p := Phase{
		Start:     a.start,
		End:       a.end,
		Snapshots: a.n,
		Open:      open,
	}
	if a.n == 0 {
		return p
	}
	p.Composition = make(map[appclass.Class]float64, len(a.counts))
	bestN := -1
	for c, n := range a.counts {
		p.Composition[c] = float64(n) / float64(a.n)
		if n > bestN || (n == bestN && c < p.Class) {
			p.Class, bestN = c, n
		}
	}
	p.Centroid = make([]float64, len(a.featSum))
	for i, s := range a.featSum {
		p.Centroid[i] = s / float64(a.n)
	}
	return p
}

// entry is one ring-buffered snapshot the detector still needs: its
// time, class, and fused feature vector.
type entry struct {
	at    time.Duration
	class appclass.Class
	feat  []float64
}

// Segmenter is an online change-point detector over a per-snapshot
// feature stream. Observe is the hot path: it sums the two half-windows
// from the ring in O(W·q) time and updates the open phase in O(q), with
// no steady-state allocation (the ring buffer and feature slices are
// preallocated on first use; closing a phase allocates its accumulator,
// amortized over at least MinLen snapshots).
//
// A Segmenter is not safe for concurrent use; callers hold whatever
// lock guards the classification stream (classify.Online embeds one
// under its own single-writer discipline).
type Segmenter struct {
	cfg Config
	q   int // feature dimensionality, fixed by the first Observe

	// ring holds the 2W most recent snapshots, oldest first at
	// (head+0)%len: the newer half is the candidate new phase, the older
	// half the tail of the current one.
	ring []entry
	head int // index of the oldest entry
	n    int // entries currently buffered (≤ 2W)

	closed []accum
	cur    accum

	// armed and lastDist implement peak detection: once the half-window
	// mean distance crosses the threshold the detector arms, then splits
	// when the distance stops rising — the point where the two halves
	// straddle the change most cleanly, instead of the first crossing
	// (where the newer half still mixes both regimes).
	armed    bool
	lastDist float64

	// total counts every snapshot ever observed.
	total int
}

// NewSegmenter builds a segmenter with cfg (zero fields take defaults).
func NewSegmenter(cfg Config) *Segmenter {
	return &Segmenter{cfg: cfg.withDefaults()}
}

// Config returns the effective configuration.
func (s *Segmenter) Config() Config { return s.cfg }

// init sizes the ring and accumulators for q-dimensional features.
func (s *Segmenter) init(q int) {
	s.q = q
	w := s.cfg.Window
	s.ring = make([]entry, 2*w)
	for i := range s.ring {
		s.ring[i].feat = make([]float64, q)
	}
	s.cur = newAccum(q)
}

// Observe feeds one classified snapshot and its fused feature vector
// into the detector. Snapshots must arrive in time order; feat's length
// must stay constant across calls (its contents are copied).
func (s *Segmenter) Observe(at time.Duration, class appclass.Class, feat []float64) error {
	if s.q == 0 {
		if len(feat) == 0 {
			return fmt.Errorf("phase: empty feature vector")
		}
		s.init(len(feat))
	}
	if len(feat) != s.q {
		return fmt.Errorf("phase: feature vector has %d dims, stream has %d", len(feat), s.q)
	}
	w := s.cfg.Window

	// Shift the ring: a full ring overwrites its oldest entry.
	e := &s.ring[(s.head+s.n)%len(s.ring)]
	if s.n == 2*w {
		s.head = (s.head + 1) % len(s.ring)
	} else {
		s.n++
	}
	e.at = at
	e.class = class
	copy(e.feat, feat)
	s.cur.add(at, class, feat)
	s.total++
	if s.n < 2*w {
		return nil
	}

	// Boundary test: both halves must lie inside the current phase (a
	// fresh phase needs 2W snapshots before the detector re-arms), and
	// the split must leave the closing phase at least MinLen snapshots.
	if s.cur.n < 2*w || s.cur.n-w < s.cfg.MinLen {
		s.armed = false
		return nil
	}
	var d2 float64
	for i := 0; i < s.q; i++ {
		diff := (s.halfSum(i, w) - s.halfSum(i, 0)) / float64(w)
		d2 += diff * diff
	}
	dist := math.Sqrt(d2)
	switch {
	case !s.armed:
		if dist > s.cfg.Threshold {
			s.armed = true
			s.lastDist = dist
		}
	case dist >= s.lastDist:
		// Still rising toward the clean straddle; keep waiting.
		s.lastDist = dist
	default:
		s.armed = false
		s.split()
	}
	return nil
}

// halfSum returns feature i summed over the W ring entries from
// position from (0 is the oldest; W starts the newer half), added
// oldest first over at most two contiguous spans of the ring. The sum
// depends on the buffered entries alone, not on how the ring came to
// hold them, so a restored segmenter computes exactly what an
// uninterrupted one does.
func (s *Segmenter) halfSum(i, from int) float64 {
	w := s.cfg.Window
	p := (s.head + from) % len(s.ring)
	first := s.ring[p:min(p+w, len(s.ring))]
	var sum float64
	for k := range first {
		sum += first[k].feat[i]
	}
	rest := s.ring[:w-len(first)]
	for k := range rest {
		sum += rest[k].feat[i]
	}
	return sum
}

// split closes the current phase at the half-window boundary: the W
// newest snapshots move out of the closing phase and seed the next one.
func (s *Segmenter) split() {
	w := s.cfg.Window
	next := newAccum(s.q)
	for i := 0; i < w; i++ {
		e := &s.ring[(s.head+w+i)%len(s.ring)]
		s.cur.remove(e.at, e.class, e.feat)
		next.add(e.at, e.class, e.feat)
	}
	// The closing phase now ends at its newest remaining snapshot (the
	// last entry of the older half), not at the transferred ones.
	s.cur.end = s.ring[(s.head+w-1)%len(s.ring)].at
	s.closed = append(s.closed, s.cur)
	s.cur = next
}

// Phases returns the detected phase list, oldest first; the last entry
// is the still-open phase (marked Open) when any snapshots have been
// observed. The result is a fresh copy safe to retain.
func (s *Segmenter) Phases() []Phase {
	out := make([]Phase, 0, len(s.closed)+1)
	for i := range s.closed {
		out = append(out, s.closed[i].render(false))
	}
	if s.cur.n > 0 {
		out = append(out, s.cur.render(true))
	}
	return out
}

// Count returns how many phases the stream currently spans (closed
// phases plus the open one).
func (s *Segmenter) Count() int {
	n := len(s.closed)
	if s.cur.n > 0 {
		n++
	}
	return n
}

// Total returns the number of snapshots observed.
func (s *Segmenter) Total() int { return s.total }
