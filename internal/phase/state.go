package phase

import (
	"fmt"
	"time"

	"repro/internal/appclass"
)

// AccumState is the serialized form of one phase accumulator. Sums and
// counts — not fractions and means — are stored so a restored segmenter
// renders bit-identical phases.
type AccumState struct {
	StartNS   int64                  `json:"start_ns"`
	EndNS     int64                  `json:"end_ns"`
	Snapshots int                    `json:"snapshots"`
	Counts    map[appclass.Class]int `json:"counts"`
	FeatSum   []float64              `json:"feat_sum"`
}

// EntryState is one serialized ring entry.
type EntryState struct {
	AtNS  int64          `json:"at_ns"`
	Class appclass.Class `json:"class"`
	Feat  []float64      `json:"feat"`
}

// SegmenterState is the full serialized segmenter, embedded in
// classify.OnlineState so phase detection survives checkpoint/restore.
type SegmenterState struct {
	Window    int     `json:"window"`
	MinLen    int     `json:"min_len"`
	Threshold float64 `json:"threshold"`
	Dims      int     `json:"dims,omitempty"`

	// Ring entries oldest first (head-relative order, so restore does
	// not need the head index).
	Ring []EntryState `json:"ring,omitempty"`

	Closed []AccumState `json:"closed,omitempty"`
	Cur    *AccumState  `json:"cur,omitempty"`
	Total  int          `json:"total"`

	// Peak-detection state (see Segmenter.armed).
	Armed    bool    `json:"armed,omitempty"`
	LastDist float64 `json:"last_dist,omitempty"`
}

func exportAccum(a *accum) AccumState {
	st := AccumState{
		StartNS:   int64(a.start),
		EndNS:     int64(a.end),
		Snapshots: a.n,
		Counts:    make(map[appclass.Class]int, len(a.counts)),
		FeatSum:   append([]float64(nil), a.featSum...),
	}
	for c, n := range a.counts {
		st.Counts[c] = n
	}
	return st
}

func restoreAccum(st AccumState, q int) (accum, error) {
	if len(st.FeatSum) != q {
		return accum{}, fmt.Errorf("phase: accumulator feature sum has %d dims, segmenter has %d", len(st.FeatSum), q)
	}
	total := 0
	for _, n := range st.Counts {
		if n <= 0 {
			return accum{}, fmt.Errorf("phase: accumulator has non-positive class count %d", n)
		}
		total += n
	}
	if total != st.Snapshots {
		return accum{}, fmt.Errorf("phase: accumulator counts sum to %d, snapshots say %d", total, st.Snapshots)
	}
	a := accum{
		start:   time.Duration(st.StartNS),
		end:     time.Duration(st.EndNS),
		n:       st.Snapshots,
		counts:  make(map[appclass.Class]int, len(st.Counts)),
		featSum: append([]float64(nil), st.FeatSum...),
	}
	for c, n := range st.Counts {
		a.counts[c] = n
	}
	return a, nil
}

// ExportState snapshots the segmenter for checkpointing. The result
// shares no memory with the segmenter.
func (s *Segmenter) ExportState() SegmenterState {
	st := SegmenterState{
		Window:    s.cfg.Window,
		MinLen:    s.cfg.MinLen,
		Threshold: s.cfg.Threshold,
		Dims:      s.q,
		Total:     s.total,
		Armed:     s.armed,
		LastDist:  s.lastDist,
	}
	if s.q == 0 {
		return st
	}
	st.Ring = make([]EntryState, 0, s.n)
	for i := 0; i < s.n; i++ {
		e := &s.ring[(s.head+i)%len(s.ring)]
		st.Ring = append(st.Ring, EntryState{
			AtNS:  int64(e.at),
			Class: e.class,
			Feat:  append([]float64(nil), e.feat...),
		})
	}
	st.Closed = make([]AccumState, 0, len(s.closed))
	for i := range s.closed {
		st.Closed = append(st.Closed, exportAccum(&s.closed[i]))
	}
	if s.cur.n > 0 {
		cur := exportAccum(&s.cur)
		st.Cur = &cur
	}
	return st
}

// RestoreSegmenter rebuilds a segmenter from an exported state. The
// restored segmenter continues the stream exactly where the exported
// one stopped: identical phase lists, identical future boundaries.
func RestoreSegmenter(st SegmenterState) (*Segmenter, error) {
	cfg := Config{Window: st.Window, MinLen: st.MinLen, Threshold: st.Threshold}.withDefaults()
	s := NewSegmenter(cfg)
	if st.Dims == 0 {
		if st.Total != 0 || len(st.Ring) != 0 || len(st.Closed) != 0 || st.Cur != nil {
			return nil, fmt.Errorf("phase: state has observations but no feature dimensionality")
		}
		return s, nil
	}
	if st.Dims < 0 {
		return nil, fmt.Errorf("phase: negative feature dimensionality %d", st.Dims)
	}
	s.init(st.Dims)
	if len(st.Ring) > len(s.ring) {
		return nil, fmt.Errorf("phase: state buffers %d ring entries, window %d holds at most %d",
			len(st.Ring), cfg.Window, len(s.ring))
	}
	for i, es := range st.Ring {
		if len(es.Feat) != st.Dims {
			return nil, fmt.Errorf("phase: ring entry %d has %d dims, state says %d", i, len(es.Feat), st.Dims)
		}
		e := &s.ring[i]
		e.at = time.Duration(es.AtNS)
		e.class = es.Class
		copy(e.feat, es.Feat)
	}
	s.head = 0
	s.n = len(st.Ring)
	s.closed = make([]accum, 0, len(st.Closed))
	var err error
	for i, as := range st.Closed {
		var a accum
		if a, err = restoreAccum(as, st.Dims); err != nil {
			return nil, fmt.Errorf("phase: closed phase %d: %w", i, err)
		}
		s.closed = append(s.closed, a)
	}
	if st.Cur != nil {
		if s.cur, err = restoreAccum(*st.Cur, st.Dims); err != nil {
			return nil, fmt.Errorf("phase: open phase: %w", err)
		}
	}
	// Cross-check: closed + open phases must account for every snapshot.
	sum := s.cur.n
	for i := range s.closed {
		sum += s.closed[i].n
	}
	if sum != st.Total {
		return nil, fmt.Errorf("phase: phases hold %d snapshots, total says %d", sum, st.Total)
	}
	s.total = st.Total
	s.armed = st.Armed
	s.lastDist = st.LastDist
	return s, nil
}
