package classify

import (
	"fmt"
	"time"

	"repro/internal/appclass"
	"repro/internal/metrics"
)

// Stage is a maximal run of consecutive snapshots of one class (for
// DetectStages, the windowed majority class) — one execution stage of a
// multi-stage application (Section 1 motivates identifying such stages
// for migration and stage-aware scheduling).
type Stage struct {
	// Class is the stage's dominant class.
	Class appclass.Class `json:"class"`
	// Start and End are the stage's snapshot time bounds (End is the
	// time of the stage's last snapshot).
	Start time.Duration `json:"start_ns"`
	End   time.Duration `json:"end_ns"`
	// Snapshots is the number of snapshots in the stage.
	Snapshots int `json:"snapshots"`
	// Partial marks a first stage Online.Stages returns that was cut
	// mid-stage: it may have begun earlier, so its Start, Snapshots,
	// and duration may cover only its retained tail.
	Partial bool `json:"-"`
}

// Duration returns the stage's time span.
func (s Stage) Duration() time.Duration { return s.End - s.Start }

// DetectStages segments a classified run into execution stages. Each
// snapshot is relabelled with the majority class of a centered window
// of the given width (odd; 1 disables smoothing), which suppresses
// single-snapshot flicker; consecutive equal labels then merge into
// stages, and stages shorter than minLen snapshots are absorbed into
// their predecessor.
func DetectStages(trace *metrics.Trace, result *Result, window, minLen int) ([]Stage, error) {
	if trace == nil || result == nil {
		return nil, fmt.Errorf("classify: nil trace or result")
	}
	m := len(result.Snapshots)
	if m == 0 {
		return nil, fmt.Errorf("classify: result has no snapshot classes")
	}
	if trace.Len() != m {
		return nil, fmt.Errorf("classify: trace has %d snapshots, result %d", trace.Len(), m)
	}
	if window <= 0 || window%2 == 0 {
		return nil, fmt.Errorf("classify: window must be positive and odd, got %d", window)
	}
	if minLen <= 0 {
		return nil, fmt.Errorf("classify: minLen must be positive, got %d", minLen)
	}

	// Windowed majority smoothing.
	smoothed := make([]appclass.Class, m)
	half := window / 2
	for i := 0; i < m; i++ {
		lo, hi := i-half, i+half
		if lo < 0 {
			lo = 0
		}
		if hi >= m {
			hi = m - 1
		}
		counts := map[appclass.Class]int{}
		for j := lo; j <= hi; j++ {
			counts[result.Snapshots[j]]++
		}
		var best appclass.Class
		bestN := -1
		for c, n := range counts {
			if n > bestN || (n == bestN && c < best) {
				best, bestN = c, n
			}
		}
		smoothed[i] = best
	}

	// Merge consecutive equal labels into stages.
	var stages []Stage
	for i := 0; i < m; i++ {
		at := trace.At(i).Time
		if len(stages) > 0 && stages[len(stages)-1].Class == smoothed[i] {
			stages[len(stages)-1].End = at
			stages[len(stages)-1].Snapshots++
			continue
		}
		stages = append(stages, Stage{Class: smoothed[i], Start: at, End: at, Snapshots: 1})
	}

	// Absorb runt stages into their predecessor (or successor for a
	// leading runt).
	out := stages[:0]
	for _, st := range stages {
		if st.Snapshots < minLen && len(out) > 0 {
			prev := &out[len(out)-1]
			prev.End = st.End
			prev.Snapshots += st.Snapshots
			continue
		}
		if st.Snapshots < minLen && len(out) == 0 {
			// Leading runt: keep it for now; it may merge into the next
			// stage if classes match after absorption.
			out = append(out, st)
			continue
		}
		if len(out) > 0 && out[len(out)-1].Class == st.Class {
			prev := &out[len(out)-1]
			prev.End = st.End
			prev.Snapshots += st.Snapshots
			continue
		}
		out = append(out, st)
	}
	return out, nil
}

// StageSummary renders stages compactly for reports, e.g.
// "idle[12] io[17] net[19]".
func StageSummary(stages []Stage) string {
	s := ""
	for i, st := range stages {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%s[%d]", st.Class, st.Snapshots)
	}
	return s
}
