package classify

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/appclass"
	"repro/internal/metrics"
	"repro/internal/stats"
)

// mixedTrace builds a multi-stage trace: an IO phase followed by a CPU
// phase, so checkpoints carry a nontrivial composition and history.
func mixedTrace(t *testing.T) *metrics.Trace {
	t.Helper()
	tr := metrics.NewTrace(metrics.ExpertSchema(), "vm1")
	add := func(src *metrics.Trace) {
		for i := 0; i < src.Len(); i++ {
			snap := src.At(i)
			snap.Time = time.Duration(tr.Len()*5) * time.Second
			if err := tr.Append(snap); err != nil {
				t.Fatal(err)
			}
		}
	}
	add(syntheticTrace(t, appclass.IO, 12, 31))
	add(syntheticTrace(t, appclass.CPU, 12, 32))
	return tr
}

// TestStateRoundTripResumesExactly interrupts an online stream halfway,
// exports/imports the state (through JSON, like a checkpoint does), and
// feeds the second half to both the original and the restored
// classifier: every observable — composition, majority class, history,
// drift — must agree.
func TestStateRoundTripResumesExactly(t *testing.T) {
	cl := trainSynthetic(t, Config{})
	schema := metrics.ExpertSchema()
	trace := mixedTrace(t)

	orig, err := NewOnline(cl, schema)
	if err != nil {
		t.Fatal(err)
	}
	half := trace.Len() / 2
	for i := 0; i < half; i++ {
		if _, err := orig.Observe(trace.At(i)); err != nil {
			t.Fatal(err)
		}
	}

	// Checkpoint shape: export -> JSON -> import.
	doc, err := json.Marshal(orig.ExportState())
	if err != nil {
		t.Fatal(err)
	}
	var st OnlineState
	if err := json.Unmarshal(doc, &st); err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreOnline(cl, schema, st)
	if err != nil {
		t.Fatalf("RestoreOnline: %v", err)
	}

	for i := half; i < trace.Len(); i++ {
		co, err := orig.Observe(trace.At(i))
		if err != nil {
			t.Fatal(err)
		}
		cr, err := restored.Observe(trace.At(i))
		if err != nil {
			t.Fatal(err)
		}
		if co != cr {
			t.Fatalf("snapshot %d: original classified %s, restored %s", i, co, cr)
		}
	}

	vo, vr := orig.Snapshot(), restored.Snapshot()
	if vo.Class != vr.Class || vo.LastClass != vr.LastClass || vo.Total != vr.Total ||
		vo.FirstAt != vr.FirstAt || vo.LastAt != vr.LastAt {
		t.Errorf("views diverge:\noriginal %+v\nrestored %+v", vo, vr)
	}
	if !reflect.DeepEqual(vo.Composition, vr.Composition) {
		t.Errorf("compositions diverge: %v vs %v", vo.Composition, vr.Composition)
	}
	if d := math.Abs(vo.Drift - vr.Drift); d > 1e-12 {
		t.Errorf("drift scores diverge by %v (%v vs %v)", d, vo.Drift, vr.Drift)
	}
	if !reflect.DeepEqual(orig.Stages(), restored.Stages()) {
		t.Errorf("stages diverge (%d vs %d stages)", len(orig.Stages()), len(restored.Stages()))
	}
	if orig.HistoryDropped() != restored.HistoryDropped() {
		t.Errorf("dropped diverge: %d vs %d", orig.HistoryDropped(), restored.HistoryDropped())
	}
}

// TestStateRoundTripCarriesGaps checkpoints a session that recorded
// sample gaps (missed polls) and expects the gap accounting to survive
// the export/restore cycle and keep accumulating afterwards.
func TestStateRoundTripCarriesGaps(t *testing.T) {
	cl := trainSynthetic(t, Config{})
	schema := metrics.ExpertSchema()
	trace := mixedTrace(t)

	o, err := NewOnline(cl, schema)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := o.Observe(trace.At(i)); err != nil {
			t.Fatal(err)
		}
	}
	o.RecordGap(5 * time.Second)
	o.RecordGap(10 * time.Second)
	o.RecordGap(-time.Second) // clamped: a gap never subtracts wall time
	gaps, gapTime := o.Gaps()
	if gaps != 3 || gapTime != 15*time.Second {
		t.Fatalf("gaps = %d/%v, want 3/15s", gaps, gapTime)
	}

	doc, err := json.Marshal(o.ExportState())
	if err != nil {
		t.Fatal(err)
	}
	var st OnlineState
	if err := json.Unmarshal(doc, &st); err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreOnline(cl, schema, st)
	if err != nil {
		t.Fatal(err)
	}
	rg, rt := restored.Gaps()
	if rg != gaps || rt != gapTime {
		t.Errorf("restored gaps = %d/%v, want %d/%v", rg, rt, gaps, gapTime)
	}
	restored.RecordGap(time.Second)
	if rg, rt = restored.Gaps(); rg != 4 || rt != 16*time.Second {
		t.Errorf("post-restore gap accumulation = %d/%v, want 4/16s", rg, rt)
	}
	view := restored.Snapshot()
	if view.Gaps != 4 || view.GapTime != 16*time.Second {
		t.Errorf("view gaps = %d/%v, want 4/16s", view.Gaps, view.GapTime)
	}

	// Negative gap accounting must be rejected on restore.
	bad := st
	bad.Gaps = -1
	if _, err := RestoreOnline(cl, schema, bad); err == nil {
		t.Error("negative gap count restored without error")
	}
	bad = st
	bad.GapTimeNS = -5
	if _, err := RestoreOnline(cl, schema, bad); err == nil {
		t.Error("negative gap time restored without error")
	}
}

// TestStateRoundTripWithTrimmedHistory checkpoints a session whose
// retention cap has already dropped stages: alternating the IO and CPU
// halves of the mixed trace opens a stage per snapshot.
func TestStateRoundTripWithTrimmedHistory(t *testing.T) {
	cl := trainSynthetic(t, Config{})
	schema := metrics.ExpertSchema()
	trace := mixedTrace(t)

	o, err := NewOnline(cl, schema)
	if err != nil {
		t.Fatal(err)
	}
	half := trace.Len() / 2
	for i := 0; i <= StageCap+StageCap/4; i++ {
		snap := trace.At(i/2%half + i%2*half)
		snap.Time = time.Duration(i) * time.Second
		if _, err := o.Observe(snap); err != nil {
			t.Fatal(err)
		}
	}
	if o.HistoryDropped() == 0 {
		t.Fatalf("test needs a trimmed stage list (%d stages)", len(o.Stages()))
	}
	restored, err := RestoreOnline(cl, schema, o.ExportState())
	if err != nil {
		t.Fatal(err)
	}
	if restored.Seen() != o.Seen() || restored.HistoryDropped() != o.HistoryDropped() {
		t.Errorf("restored seen/dropped = %d/%d, want %d/%d",
			restored.Seen(), restored.HistoryDropped(), o.Seen(), o.HistoryDropped())
	}
	if !reflect.DeepEqual(restored.Stages(), o.Stages()) {
		t.Errorf("trimmed stage lists diverge")
	}
}

func TestRestoreOnlineRejectsInvalidState(t *testing.T) {
	cl := trainSynthetic(t, Config{})
	schema := metrics.ExpertSchema()
	o, err := NewOnline(cl, schema)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.Observe(mixedTrace(t).At(0)); err != nil {
		t.Fatal(err)
	}
	good := o.ExportState()

	mutate := func(f func(*OnlineState)) OnlineState {
		doc, _ := json.Marshal(good)
		var st OnlineState
		_ = json.Unmarshal(doc, &st)
		f(&st)
		return st
	}
	last := string(good.Stages[0].Class)
	cases := map[string]OnlineState{
		"bad count class": mutate(func(s *OnlineState) { s.Counts["warp"] = s.Counts[last]; delete(s.Counts, last) }),
		"count mismatch":  mutate(func(s *OnlineState) { s.Total += 3 }),
		"stage mismatch":  mutate(func(s *OnlineState) { s.Stages = nil }),
		"negative dropped": mutate(func(s *OnlineState) {
			s.Dropped = -1
			s.Stages[0].Snapshots++
		}),
		"all dropped": mutate(func(s *OnlineState) { s.Dropped, s.Stages = 1, nil }),
		"drift arity": mutate(func(s *OnlineState) { s.Drift = s.Drift[:1] }),
		"bad drift":   mutate(func(s *OnlineState) { s.Drift[0] = stats.WelfordState{N: -1} }),
		"bad stage class": mutate(func(s *OnlineState) {
			s.Stages[0].Class = "warp"
		}),
		"empty stage": mutate(func(s *OnlineState) {
			s.Stages = append(s.Stages, Stage{Class: appclass.Class(last)})
		}),
		"bad history class": mutate(func(s *OnlineState) {
			s.Stages = nil
			s.History = []TimedClassState{{Class: "warp"}}
		}),
	}
	for name, st := range cases {
		if _, err := RestoreOnline(cl, schema, st); err == nil {
			t.Errorf("%s: want error", name)
		}
	}
}
