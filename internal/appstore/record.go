// Package appstore is the fleet-scale storage engine behind the
// application database (the paper's Figure-1 asset): an embedded,
// stdlib-only log-structured store of finalized run records. Records
// are appended to the CRC32C-framed segments of internal/seglog, the
// segmented log under the journal too, and an in-memory index,
// rebuilt on open from the records' fixed headers alone (no JSON
// decode), serves secondary lookups by application, class, verdict,
// model hash, and finalize time plus a paginated Scan API. Compaction
// rewrites segments that carry deleted records and a retention policy
// (by age and by total bytes, floored so every application keeps its
// newest runs and its fingerprint-dictionary entry) bounds disk use,
// replacing the O(n) rewrite-the-world JSON persistence with an O(1)
// append on the finalize hot path.
package appstore

import (
	"fmt"
	"math"
	"time"

	"repro/internal/appclass"
	"repro/internal/phase"
)

// Record is one historical run of an application. It is aliased as
// appdb.Record: the appdb package keeps the public API, this package
// owns the storage format.
type Record struct {
	// App is the application name.
	App string `json:"app"`
	// Class is the majority-vote application class of the run.
	Class appclass.Class `json:"class"`
	// Composition is the class composition (fractions summing to ~1).
	Composition map[appclass.Class]float64 `json:"composition"`
	// ExecutionTime is the run's t1 - t0.
	ExecutionTime time.Duration `json:"execution_time_ns"`
	// Samples is the number of snapshots m in the run.
	Samples int `json:"samples"`
	// FinalizedAt is when the run's session finalized into the
	// database, unix nanoseconds (0 on records from before finalize
	// stamping). It orders Scan results and drives age-based retention;
	// zero-stamped records are exempt from age pruning.
	FinalizedAt int64 `json:"finalized_at_ns,omitempty"`
	// Gaps and GapTime account for known holes in the run's sample
	// stream (missed polls while the profiler source was down). A record
	// with nonzero gaps carries a composition estimated over partial
	// coverage rather than the full run; schedulers may weight it down.
	Gaps    int           `json:"gaps,omitempty"`
	GapTime time.Duration `json:"gap_time_ns,omitempty"`
	// Phases is the run's detected phase sequence (empty when the daemon
	// ran without online segmentation).
	Phases []phase.Phase `json:"phases,omitempty"`
	// Fingerprint is the canonicalized phase-sequence fingerprint of the
	// run, the key the fingerprint dictionary matches future runs
	// against. Nil when segmentation was off or the run had no phases.
	Fingerprint *phase.Fingerprint `json:"fingerprint,omitempty"`
	// MatchedApp and MatchScore record the best fingerprint-dictionary
	// match found when the run finalized ("" / 0 when nothing cleared
	// the match threshold).
	MatchedApp string  `json:"matched_app,omitempty"`
	MatchScore float64 `json:"match_score,omitempty"`
	// UnknownFraction is the fraction of the run's snapshots that fell
	// outside their voted class's open-set threshold.
	UnknownFraction float64 `json:"unknown_fraction,omitempty"`
	// Verdict is the open-set session verdict: the majority class when
	// the run looked like trained behaviour, appclass.Unknown when most
	// snapshots were novel, or "" when the open-set test was off.
	Verdict appclass.Class `json:"verdict,omitempty"`
	// ModelID is the short compatibility hash of the model that served
	// the run — verdict provenance, so a disagreement can be traced to
	// the model that produced it. "" on records from before model
	// stamping.
	ModelID string `json:"model_id,omitempty"`
	// TrainMetrics and TrainSamples are the run's retained raw
	// expert-metric sample rows (one value per metric in TrainMetrics,
	// uniformly decimated over the whole run), the corpus online
	// retraining refits from. Empty when the daemon ran without
	// sampling.
	TrainMetrics []string    `json:"train_metrics,omitempty"`
	TrainSamples [][]float64 `json:"train_samples,omitempty"`
}

// Row is one run as a page of runs shows it: the fields GET /v1/runs
// and appdbtool ls print. Scan builds a row from the index alone when
// the record's meta header carries the page fields (kind 2), and from
// the body otherwise. Aliased as appdb.Row.
type Row struct {
	App             string
	Class           appclass.Class
	Composition     map[appclass.Class]float64
	ExecutionTime   time.Duration
	Samples         int
	FinalizedAt     int64
	Gaps            int
	Verdict         appclass.Class
	ModelID         string
	UnknownFraction float64
	// Phases counts the run's detected phases.
	Phases int
	// Fingerprint is the fingerprint summary, Fingerprint.String(); ""
	// when the run has none.
	Fingerprint string
	MatchedApp  string
	MatchScore  float64
}

// RowOf renders a record as a page row.
func RowOf(r *Record) Row {
	m := meta{
		at: r.FinalizedAt, app: r.App, class: r.Class, verdict: r.Verdict, model: r.ModelID,
		exec: r.ExecutionTime, samples: r.Samples, gaps: r.Gaps, comp: compOf(r),
	}
	m.setPage(r)
	return m.row()
}

// compOf lists r's composition in canonical class order.
func compOf(r *Record) []compEntry {
	var comp []compEntry
	for _, c := range appclass.All() {
		if f, ok := r.Composition[c]; ok {
			comp = append(comp, compEntry{class: c, frac: f})
		}
	}
	return comp
}

// DictEntry is one fingerprint-dictionary entry: an application's
// newest fingerprinted live run, as a page row, with its decoded
// fingerprint. Aliased as appdb.DictEntry.
type DictEntry struct {
	Run         Row
	Fingerprint phase.Fingerprint
}

// Validate checks the record's invariants.
func (r Record) Validate() error {
	if r.App == "" {
		return fmt.Errorf("appdb: record has empty application name")
	}
	if !appclass.Valid(r.Class) {
		return fmt.Errorf("appdb: record for %q has invalid class %q", r.App, r.Class)
	}
	if r.ExecutionTime < 0 {
		return fmt.Errorf("appdb: record for %q has negative execution time", r.App)
	}
	if r.Samples < 0 {
		return fmt.Errorf("appdb: record for %q has negative sample count", r.App)
	}
	if r.FinalizedAt < 0 {
		return fmt.Errorf("appdb: record for %q has negative finalize time", r.App)
	}
	if r.Gaps < 0 || r.GapTime < 0 {
		return fmt.Errorf("appdb: record for %q has negative gap accounting", r.App)
	}
	var total float64
	for c, f := range r.Composition {
		if !appclass.Valid(c) {
			return fmt.Errorf("appdb: record for %q has invalid composition class %q", r.App, c)
		}
		if !(f >= 0 && f <= 1) { // also rejects NaN, which JSON cannot encode
			return fmt.Errorf("appdb: record for %q has composition fraction %v outside [0,1]", r.App, f)
		}
		total += f
	}
	if len(r.Composition) > 0 && (total < 0.99 || total > 1.01) {
		return fmt.Errorf("appdb: record for %q has composition summing to %v", r.App, total)
	}
	if !(r.UnknownFraction >= 0 && r.UnknownFraction <= 1) {
		return fmt.Errorf("appdb: record for %q has unknown fraction %v outside [0,1]", r.App, r.UnknownFraction)
	}
	if r.Verdict != "" && r.Verdict != appclass.Unknown && !appclass.Valid(r.Verdict) {
		return fmt.Errorf("appdb: record for %q has invalid verdict %q", r.App, r.Verdict)
	}
	if !(r.MatchScore >= 0 && r.MatchScore <= 1) {
		return fmt.Errorf("appdb: record for %q has match score %v outside [0,1]", r.App, r.MatchScore)
	}
	if r.MatchedApp != "" && r.Fingerprint == nil {
		return fmt.Errorf("appdb: record for %q matched %q without a fingerprint", r.App, r.MatchedApp)
	}
	if len(r.TrainSamples) > 0 && len(r.TrainMetrics) == 0 {
		return fmt.Errorf("appdb: record for %q has training samples without metric names", r.App)
	}
	for i, row := range r.TrainSamples {
		if len(row) != len(r.TrainMetrics) {
			return fmt.Errorf("appdb: record for %q training sample %d has %d values, want %d",
				r.App, i, len(row), len(r.TrainMetrics))
		}
		for j, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("appdb: record for %q training sample %d value %d is not finite", r.App, i, j)
			}
		}
	}
	return nil
}

// Summary aggregates an application's historical runs: the modal class,
// the mean composition, and the mean execution time — the "statistical
// abstracts of the application behavior" the paper stores for
// scheduling. Aliased as appdb.Summary.
type Summary struct {
	App             string
	Runs            int
	Class           appclass.Class
	MeanComposition map[appclass.Class]float64
	MeanExecution   time.Duration
}
