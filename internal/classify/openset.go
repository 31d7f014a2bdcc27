package classify

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/appclass"
	"repro/internal/knn"
)

// OpenSetConfig parameterizes open-set calibration. The zero value
// selects the defaults below.
type OpenSetConfig struct {
	// Quantile of the per-class training self-distances used as the
	// threshold base (default 0.99: nearly all training points of a
	// class sit within their own threshold).
	Quantile float64
	// Slack multiplies the quantile, leaving room for honest run-time
	// scatter around the training clusters (default 3.0).
	Slack float64
}

// Open-set calibration defaults.
const (
	DefaultOpenSetQuantile = 0.99
	DefaultOpenSetSlack    = 3.0
)

func (c OpenSetConfig) withDefaults() OpenSetConfig {
	if c.Quantile <= 0 || c.Quantile > 1 {
		c.Quantile = DefaultOpenSetQuantile
	}
	if c.Slack <= 0 {
		c.Slack = DefaultOpenSetSlack
	}
	return c
}

// OpenSet holds calibrated per-class novelty thresholds: a snapshot
// whose distance-to-kth-neighbour exceeds the threshold of its voted
// class is not well explained by any training class and counts as
// unknown. Thresholds are indexed by the classifier's interned class
// IDs; an OpenSet is immutable after calibration and safe for
// concurrent use.
type OpenSet struct {
	cfg OpenSetConfig
	// thresholds[id] is the novelty cutoff of interned class id.
	thresholds []float64
	// classes mirrors Classifier.classes for reporting.
	classes []appclass.Class
	// skipped records the classes calibration could not derive a
	// meaningful threshold for (fewer than two training points): their
	// threshold is +Inf, so they never flag unknown.
	skipped map[appclass.Class]error
}

// CalibrateOpenSet derives per-class thresholds from the training set
// itself: every training point's distance to its kth neighbour (itself
// included — 0 for points duplicated at least k times) is collected per
// true class, and the configured quantile of each class's self-distance
// distribution, times the slack, becomes the class's threshold. The
// calibration is deterministic given the trained model, so it is
// re-derived after restart instead of serialized.
func (c *Classifier) CalibrateOpenSet(cfg OpenSetConfig) (*OpenSet, error) {
	if err := c.ready(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	if c.trainPoints == nil || c.trainPoints.Rows() == 0 {
		return nil, fmt.Errorf("classify: open-set calibration needs retained training points")
	}
	// Collect each training point's kth self-distance, grouped by its
	// true class (the label it was trained with, not the vote).
	perClass := make(map[appclass.Class][]float64, len(c.classes))
	var s knn.Scratch
	for i := 0; i < c.trainPoints.Rows(); i++ {
		_, dist, err := c.nn.ClassifyIDDist(c.trainPoints.RowView(i), &s)
		if err != nil {
			return nil, fmt.Errorf("classify: calibrate point %d: %w", i, err)
		}
		cl := c.trainLabels[i]
		perClass[cl] = append(perClass[cl], dist)
	}
	os := &OpenSet{
		cfg:        cfg,
		thresholds: make([]float64, len(c.classes)),
		classes:    append([]appclass.Class(nil), c.classes...),
	}
	var globalMax float64
	for _, dists := range perClass {
		for _, d := range dists {
			if d > globalMax {
				globalMax = d
			}
		}
	}
	for id, cl := range c.classes {
		dists := perClass[cl]
		if len(dists) < 2 {
			// A quantile over zero or one self-distance is meaningless: a
			// single point's kth self-distance reflects its nearest
			// *foreign* neighbours, so the threshold would be garbage
			// (often wildly large or degenerate-zero). Skip the class with
			// a per-class error and an infinite threshold — it never flags
			// unknown — so one thin class cannot poison the whole
			// calibration. Callers should log SkippedClasses loudly.
			if os.skipped == nil {
				os.skipped = make(map[appclass.Class]error)
			}
			os.skipped[cl] = fmt.Errorf("classify: open-set calibration for class %s: %d training points, need at least 2", cl, len(dists))
			os.thresholds[id] = math.Inf(1)
			continue
		}
		sort.Float64s(dists)
		q := dists[int(cfg.Quantile*float64(len(dists)-1)+0.5)]
		if q == 0 {
			// Fully duplicated class: fall back to its own max, then the
			// global max, so the threshold never degenerates to zero.
			q = dists[len(dists)-1]
		}
		if q == 0 {
			q = globalMax
		}
		os.thresholds[id] = q * cfg.Slack
	}
	return os, nil
}

// Config returns the effective calibration configuration.
func (o *OpenSet) Config() OpenSetConfig { return o.cfg }

// SkippedClasses returns the classes calibration skipped because they
// had fewer than two training points, keyed to a descriptive error.
// Skipped classes carry an infinite threshold and never flag unknown;
// callers that care about open-set coverage should surface these
// loudly. The map is a copy; nil when no class was skipped.
func (o *OpenSet) SkippedClasses() map[appclass.Class]error {
	if len(o.skipped) == 0 {
		return nil
	}
	out := make(map[appclass.Class]error, len(o.skipped))
	for cl, err := range o.skipped {
		out[cl] = err
	}
	return out
}

// Threshold returns the novelty cutoff of the interned class id.
func (o *OpenSet) Threshold(id int) float64 {
	if id < 0 || id >= len(o.thresholds) {
		return 0
	}
	return o.thresholds[id]
}

// Thresholds returns the per-class cutoffs keyed by class, for reports.
func (o *OpenSet) Thresholds() map[appclass.Class]float64 {
	out := make(map[appclass.Class]float64, len(o.classes))
	for id, cl := range o.classes {
		out[cl] = o.thresholds[id]
	}
	return out
}

// unknownID reports whether a snapshot voted into interned class id at
// the given kth-neighbour distance falls outside the class's threshold.
// A NaN or infinite distance (a query no finite feature explains) is
// always unknown.
func (o *OpenSet) unknownID(id int, dist float64) bool {
	if id < 0 || id >= len(o.thresholds) {
		return false
	}
	return dist > o.thresholds[id] || math.IsNaN(dist) || math.IsInf(dist, 0)
}

// Verdict is the open-set outcome of classifying one snapshot: the
// nearest trained class is always reported, with Unknown set when the
// snapshot sits beyond that class's calibrated threshold.
type Verdict struct {
	// Class is the nearest trained class (the closed-set vote).
	Class appclass.Class
	// Unknown marks the snapshot as not explained by any trained class.
	Unknown bool
	// Distance is the snapshot's distance to its kth nearest training
	// neighbour; Threshold is the voted class's cutoff.
	Distance  float64
	Threshold float64
}

// ClassifySnapshotOpenSet classifies one snapshot through the fused
// kernel and applies the open-set test, with every buffer owned by
// scratch (allocation-free at steady state, like
// ClassifySnapshotScratch). os may be nil, in which case the verdict is
// never Unknown and Threshold is 0.
func (c *Classifier) ClassifySnapshotOpenSet(subset []int, values []float64, os *OpenSet, s *Scratch) (Verdict, error) {
	id, dist, err := c.classifySnapshotIDDist(subset, values, s)
	if err != nil {
		return Verdict{}, err
	}
	v := Verdict{Class: c.classes[id], Distance: dist}
	if os != nil {
		v.Threshold = os.Threshold(id)
		v.Unknown = os.unknownID(id, dist)
	}
	return v, nil
}
