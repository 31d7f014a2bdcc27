package classify

import (
	"fmt"
	"time"

	"repro/internal/appclass"
	"repro/internal/metrics"
	"repro/internal/phase"
	"repro/internal/stats"
)

// OnlineState is the serializable running state of an Online
// classifier — everything Observe has accumulated, none of the trained
// model (the model is persisted separately via Classifier.Save). The
// daemon's checkpoints serialize one OnlineState per live VM session so
// a restart can resume mid-run exactly where the crash happened.
type OnlineState struct {
	// Counts maps class name to the number of snapshots voted for it.
	Counts map[string]int `json:"counts"`
	// Total is the number of snapshots observed.
	Total int `json:"total"`
	// FirstAtNS is the time of the first observed snapshot; the newest
	// stage holds the last class and time.
	FirstAtNS int64 `json:"first_at_ns"`
	// Dropped counts the snapshots in stages trimmed by the retention
	// cap.
	Dropped int `json:"dropped"`
	// Stages is the retained stage list, oldest first.
	Stages []Stage `json:"stages,omitempty"`
	// History is only read: a state written before sessions kept
	// stages carries its per-snapshot class sequence here, and
	// RestoreOnline folds it into stages.
	History []TimedClassState `json:"history,omitempty"`
	// Drift holds one streaming accumulator per expert metric.
	Drift []stats.WelfordState `json:"drift"`
	// Gaps and GapTimeNS account for known holes in the sample stream
	// (missed polls, breaker-open windows), so a recovered session stays
	// marked as gappy.
	Gaps      int   `json:"gaps,omitempty"`
	GapTimeNS int64 `json:"gap_time_ns,omitempty"`
	// Unknown counts snapshots outside their voted class's open-set
	// threshold. The thresholds themselves are not serialized — they are
	// deterministic given the trained model, so the restorer re-enables
	// the open-set test with freshly calibrated thresholds.
	Unknown int `json:"unknown,omitempty"`
	// Seg is the phase segmenter's full state (nil with segmentation
	// disabled), restoring which resumes the phase list bit-exactly.
	Seg *phase.SegmenterState `json:"seg,omitempty"`
	// Sampler is the training reservoir's state (nil with sampling
	// disabled), restoring which resumes deterministic sampling exactly.
	Sampler *TrainSamplerState `json:"sampler,omitempty"`
}

// TimedClassState is one classified snapshot of a per-snapshot
// history (see OnlineState.History).
type TimedClassState struct {
	AtNS  int64  `json:"at_ns"`
	Class string `json:"class"`
}

// ExportState captures the classifier's running state for
// serialization. The caller must hold whatever lock guards Observe.
func (o *Online) ExportState() OnlineState {
	st := OnlineState{
		Counts:    make(map[string]int, len(o.counts)),
		Total:     o.total,
		FirstAtNS: int64(o.firstAt),
		Dropped:   o.dropped,
		Stages:    append([]Stage(nil), o.stages...),
		Drift:     make([]stats.WelfordState, len(o.drift)),
		Gaps:      o.gaps,
		GapTimeNS: int64(o.gapTime),
		Unknown:   o.unknown,
	}
	if o.seg != nil {
		seg := o.seg.ExportState()
		st.Seg = &seg
	}
	if o.sampler != nil {
		sam := o.sampler.state()
		st.Sampler = &sam
	}
	for c, n := range o.counts {
		st.Counts[string(c)] = n
	}
	for i := range o.drift {
		st.Drift[i] = o.drift[i].State()
	}
	return st
}

// RestoreOnline reconstructs an Online classifier from an exported
// state, validating every invariant Observe would have maintained: a
// restored session continues the stream exactly where the exported one
// stopped, so checkpoint + journal-tail replay reproduces the
// uninterrupted run.
func RestoreOnline(cl *Classifier, schema *metrics.Schema, st OnlineState) (*Online, error) {
	o, err := NewOnline(cl, schema)
	if err != nil {
		return nil, err
	}
	if st.Total < 0 {
		return nil, fmt.Errorf("classify: restore: negative total %d", st.Total)
	}
	sum := 0
	for name, n := range st.Counts {
		class, err := appclass.Parse(name)
		if err != nil {
			return nil, fmt.Errorf("classify: restore: count class: %w", err)
		}
		if n < 0 {
			return nil, fmt.Errorf("classify: restore: class %s has negative count %d", name, n)
		}
		o.counts[class] = n
		sum += n
	}
	if sum != st.Total {
		return nil, fmt.Errorf("classify: restore: counts sum to %d, total is %d", sum, st.Total)
	}
	o.dropped = st.Dropped
	if len(st.Stages) == 0 {
		// A state written before sessions kept stages: fold its
		// per-snapshot history through the step Observe uses.
		for i, tc := range st.History {
			class, err := appclass.Parse(tc.Class)
			if err != nil {
				return nil, fmt.Errorf("classify: restore: history entry %d: %w", i, err)
			}
			o.extend(time.Duration(tc.AtNS), class)
		}
	}
	for i, sg := range st.Stages {
		if !appclass.Valid(sg.Class) || sg.Snapshots < 1 {
			return nil, fmt.Errorf("classify: restore: stage %d has class %q and %d snapshots", i, sg.Class, sg.Snapshots)
		}
	}
	o.stages = append(o.stages, st.Stages...)
	n := o.dropped
	for _, sg := range o.stages {
		n += sg.Snapshots
	}
	if st.Dropped < 0 || n != st.Total || (n > 0 && len(o.stages) == 0) {
		return nil, fmt.Errorf("classify: restore: %d stages hold %d snapshots beside %d dropped, total is %d",
			len(o.stages), n-o.dropped, o.dropped, st.Total)
	}
	if len(st.Drift) != len(o.subset) {
		return nil, fmt.Errorf("classify: restore: %d drift accumulators, want %d", len(st.Drift), len(o.subset))
	}
	if st.Gaps < 0 || st.GapTimeNS < 0 {
		return nil, fmt.Errorf("classify: restore: negative gap accounting (%d gaps, %dns)", st.Gaps, st.GapTimeNS)
	}
	o.gaps = st.Gaps
	o.gapTime = time.Duration(st.GapTimeNS)
	o.total = st.Total
	o.firstAt = time.Duration(st.FirstAtNS)
	for i, ws := range st.Drift {
		w, err := stats.WelfordFromState(ws)
		if err != nil {
			return nil, fmt.Errorf("classify: restore: drift %d: %w", i, err)
		}
		o.drift[i] = w
	}
	if st.Unknown < 0 || st.Unknown > st.Total {
		return nil, fmt.Errorf("classify: restore: %d unknown snapshots of %d total", st.Unknown, st.Total)
	}
	o.unknown = st.Unknown
	if st.Seg != nil {
		seg, err := phase.RestoreSegmenter(*st.Seg)
		if err != nil {
			return nil, fmt.Errorf("classify: restore: %w", err)
		}
		o.seg = seg
	}
	if st.Sampler != nil {
		sam, err := trainSamplerFromState(len(o.subset), *st.Sampler)
		if err != nil {
			return nil, err
		}
		o.sampler = sam
	}
	return o, nil
}
