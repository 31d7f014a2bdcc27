package classify

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/appclass"
	"repro/internal/metrics"
	"repro/internal/phase"
	"repro/internal/testbed"
	"repro/internal/workload"
)

// runLengths is the stage list of a classified stream: consecutive
// equal classes merge into one stage.
func runLengths(times []time.Duration, classes []appclass.Class) []Stage {
	var out []Stage
	for i, c := range classes {
		if n := len(out); n > 0 && out[n-1].Class == c {
			out[n-1].End = times[i]
			out[n-1].Snapshots++
			continue
		}
		out = append(out, Stage{Class: c, Start: times[i], End: times[i], Snapshots: 1})
	}
	return out
}

// armedOnline returns an Online armed like a daemon session: phase
// segmentation, the open-set test and the training reservoir.
func armedOnline(t *testing.T, cl *Classifier, schema *metrics.Schema, oset *OpenSet) *Online {
	t.Helper()
	o, err := NewOnline(cl, schema)
	if err != nil {
		t.Fatal(err)
	}
	o.EnableSegmentation(phase.Config{})
	o.EnableOpenSet(oset)
	o.EnableSampling(0)
	return o
}

// checkpointed exports o, round-trips the state through JSON as a
// checkpoint does, and restores it. Open-set thresholds are not part
// of the state; the restorer attaches them again.
func checkpointed(t *testing.T, o *Online, cl *Classifier, schema *metrics.Schema, oset *OpenSet) *Online {
	t.Helper()
	doc, err := json.Marshal(o.ExportState())
	if err != nil {
		t.Fatal(err)
	}
	var st OnlineState
	if err := json.Unmarshal(doc, &st); err != nil {
		t.Fatal(err)
	}
	r, err := RestoreOnline(cl, schema, st)
	if err != nil {
		t.Fatalf("RestoreOnline: %v", err)
	}
	r.EnableOpenSet(oset)
	return r
}

// TestOnlineStagesMetamorphic feeds one stream of profiled snapshots
// (three mixed-class test applications back to back) three ways: one
// Observe at a time, ObserveBatch in seeded random splits, and Observe
// with an export → JSON → restore cycle at every tenth snapshot. The
// stage list, view and phase list must not depend on the way, and the
// stage list must be the run-length encoding of the classes Observe
// returned.
func TestOnlineStagesMetamorphic(t *testing.T) {
	cl := trainFromTestbed(t, Config{})
	oset, err := cl.CalibrateOpenSet(OpenSetConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var snaps []metrics.Snapshot
	var schema *metrics.Schema
	for _, e := range workload.TestSet() {
		if e.Name != "SPECseis96_B" && e.Name != "VMD" && e.Name != "XSpim" {
			continue
		}
		res, err := testbed.ProfileEntry(e, 2)
		if err != nil {
			t.Fatalf("profile %s: %v", e.Name, err)
		}
		schema = res.Trace.Schema()
		for i := 0; i < res.Trace.Len(); i++ {
			snap := res.Trace.At(i)
			snap.Time = time.Duration(len(snaps)) * 5 * time.Second
			snaps = append(snaps, snap)
		}
	}

	seq := armedOnline(t, cl, schema, oset)
	times := make([]time.Duration, len(snaps))
	classes := make([]appclass.Class, len(snaps))
	for i, snap := range snaps {
		if classes[i], err = seq.Observe(snap); err != nil {
			t.Fatal(err)
		}
		times[i] = snap.Time
	}
	want := runLengths(times, classes)
	if len(want) < 3 {
		t.Fatalf("stream has %d stages over %d snapshots; the test needs class changes", len(want), len(snaps))
	}
	if got := seq.Stages(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Stages() is not the run-length encoding of Observe's classes:\ngot  %s\nwant %s",
			StageSummary(got), StageSummary(want))
	}

	rng := rand.New(rand.NewSource(11))
	bat := armedOnline(t, cl, schema, oset)
	for i := 0; i < len(snaps); {
		n := min(1+rng.Intn(40), len(snaps)-i)
		got, err := bat.ObserveBatch(snaps[i:i+n], nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, classes[i:i+n]) {
			t.Fatalf("batch at %d: classes %v, Observe gave %v", i, got, classes[i:i+n])
		}
		i += n
	}

	cut := armedOnline(t, cl, schema, oset)
	for i, snap := range snaps {
		if i > 0 && i%10 == 0 {
			cut = checkpointed(t, cut, cl, schema, oset)
		}
		c, err := cut.Observe(snap)
		if err != nil {
			t.Fatal(err)
		}
		if c != classes[i] {
			t.Fatalf("snapshot %d after restores: class %s, Observe gave %s", i, c, classes[i])
		}
	}

	for name, o := range map[string]*Online{"batched": bat, "restored": cut} {
		if !reflect.DeepEqual(o.Stages(), want) {
			t.Errorf("%s: stages %s, want %s", name, StageSummary(o.Stages()), StageSummary(want))
		}
		if got, w := o.Snapshot(), seq.Snapshot(); !reflect.DeepEqual(got, w) {
			t.Errorf("%s: view diverges:\ngot  %+v\nwant %+v", name, got, w)
		}
		if !reflect.DeepEqual(o.Phases(), seq.Phases()) {
			t.Errorf("%s: phases diverge: %d vs %d", name, len(o.Phases()), len(seq.Phases()))
		}
	}
}

// alternating returns a fresh Online and a func that feeds it the next
// snapshot of a stream whose class flips on every snapshot (CPU, IO,
// CPU, ...), one second apart from time 0, so each snapshot opens a
// stage; the func returns how many snapshots it has fed.
func alternating(t *testing.T) (*Online, func() int) {
	t.Helper()
	cl := trainSynthetic(t, Config{})
	cpu, io := syntheticTrace(t, appclass.CPU, 8, 51), syntheticTrace(t, appclass.IO, 8, 52)
	online, err := NewOnline(cl, cpu.Schema())
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	return online, func() int {
		src := cpu
		if n%2 == 1 {
			src = io
		}
		snap := src.At(n / 2 % src.Len())
		snap.Time = time.Duration(n) * time.Second
		n++
		if _, err := online.Observe(snap); err != nil {
			t.Fatal(err)
		}
		return n
	}
}

// TestHistoryCap runs an alternating stream until the stage list first
// overshoots StageCap by 25%, then checks the retention bound, the drop
// accounting, that the view's times span the whole stream rather than
// the retained stages, and that Observe at the cap allocates nothing.
func TestHistoryCap(t *testing.T) {
	online, observe := alternating(t)
	n := 0
	check := func() {
		t.Helper()
		stages := online.Stages()
		if len(stages) > StageCap+StageCap/4 {
			t.Errorf("%d stages retained, over the cap plus 25%% (%d)", len(stages), StageCap+StageCap/4)
		}
		if online.HistoryDropped() == 0 {
			t.Fatalf("nothing dropped after %d snapshots (%d stages): the classes did not alternate", n, len(stages))
		}
		sum := online.HistoryDropped()
		for _, st := range stages {
			sum += st.Snapshots
		}
		if sum != online.Seen() {
			t.Errorf("dropped %d + retained snapshots = %d, Seen is %d", online.HistoryDropped(), sum, online.Seen())
		}
		v := online.Snapshot()
		if want := time.Duration(n-1) * time.Second; v.FirstAt != 0 || v.LastAt != want {
			t.Errorf("view spans [%v, %v], want [0, %v]", v.FirstAt, v.LastAt, want)
		}
	}
	for n < StageCap+StageCap/4+1 {
		n = observe()
	}
	check()
	// Enough runs to pass the next trim: at the cap the list reuses its
	// backing array.
	if allocs := testing.AllocsPerRun(StageCap/4+1, func() { n = observe() }); allocs != 0 {
		t.Errorf("Observe at the stage cap allocates %v per run, want 0", allocs)
	}
	check()
}

// TestOnlineTruncatedHistoryYieldsPartialFirstStage checks the Partial
// flag over an alternating stream. The cap trims whole stages, so no
// stage is Partial before or after a trim. A first stage restored as
// cut keeps the flag across a re-checkpoint until the cap trims it.
func TestOnlineTruncatedHistoryYieldsPartialFirstStage(t *testing.T) {
	online, observe := alternating(t)
	partial := func(o *Online) []int {
		var idx []int
		for i, st := range o.Stages() {
			if st.Partial {
				idx = append(idx, i)
			}
		}
		return idx
	}
	for n := 0; n < StageCap+StageCap/4; {
		n = observe()
	}
	if online.HistoryDropped() != 0 {
		t.Fatalf("%d snapshots dropped at %d stages, before the list overshot the cap",
			online.HistoryDropped(), len(online.Stages()))
	}
	if p := partial(online); len(p) != 0 {
		t.Errorf("untrimmed stage list flags stages %v Partial", p)
	}
	n := observe()
	if online.HistoryDropped() == 0 {
		t.Fatalf("nothing dropped at %d stages: the classes did not alternate", len(online.Stages()))
	}
	if p := partial(online); len(p) != 0 {
		t.Errorf("stage list trimmed by whole stages flags stages %v Partial, want none", p)
	}

	st := online.ExportState()
	st.Partial = true
	cut, err := RestoreOnline(online.cl, online.schema, st)
	if err != nil {
		t.Fatal(err)
	}
	if cut, err = RestoreOnline(online.cl, online.schema, cut.ExportState()); err != nil {
		t.Fatal(err)
	}
	if p := partial(cut); !reflect.DeepEqual(p, []int{0}) {
		t.Errorf("re-checkpointed cut stage list flags stages %v Partial, want [0]", p)
	}
	cpu, io := syntheticTrace(t, appclass.CPU, 8, 51), syntheticTrace(t, appclass.IO, 8, 52)
	for dropped := cut.HistoryDropped(); cut.HistoryDropped() == dropped; n++ {
		src := cpu
		if n%2 == 1 {
			src = io
		}
		snap := src.At(n / 2 % src.Len())
		snap.Time = time.Duration(n) * time.Second
		if _, err := cut.Observe(snap); err != nil {
			t.Fatal(err)
		}
	}
	if p := partial(cut); len(p) != 0 {
		t.Errorf("cut stage trimmed away, yet stages %v are Partial", p)
	}
}

// TestRestoreParentLayoutStages restores session states in the layout
// that kept every snapshot's class (history, hist_cap, last,
// last_at_ns and no stages), as a daemon that kept that layout left
// them in its last checkpoint. The history folds into the same stages
// Observe would have built, and the restored session classifies on
// exactly like the original. A history its cap had trimmed restores
// with the first stage Partial.
func TestRestoreParentLayoutStages(t *testing.T) {
	cl := trainSynthetic(t, Config{})
	oset, err := cl.CalibrateOpenSet(OpenSetConfig{})
	if err != nil {
		t.Fatal(err)
	}
	schema := metrics.ExpertSchema()
	trace := mixedTrace(t)
	const cutAt = 16 // 12 IO snapshots, then 4 of the CPU stage

	for _, dropped := range []int{0, 7} {
		orig := armedOnline(t, cl, schema, oset)
		var times []time.Duration
		var classes []appclass.Class
		var hist []TimedClassState
		for i := 0; i < cutAt; i++ {
			snap := trace.At(i)
			c, err := orig.Observe(snap)
			if err != nil {
				t.Fatal(err)
			}
			times, classes = append(times, snap.Time), append(classes, c)
			hist = append(hist, TimedClassState{AtNS: int64(snap.Time), Class: string(c)})
		}

		doc, err := json.Marshal(orig.ExportState())
		if err != nil {
			t.Fatal(err)
		}
		var m map[string]json.RawMessage
		if err := json.Unmarshal(doc, &m); err != nil {
			t.Fatal(err)
		}
		delete(m, "stages")
		for k, v := range map[string]any{
			"history":    hist[dropped:],
			"hist_cap":   32768,
			"dropped":    dropped,
			"last":       hist[cutAt-1].Class,
			"last_at_ns": hist[cutAt-1].AtNS,
		} {
			if m[k], err = json.Marshal(v); err != nil {
				t.Fatal(err)
			}
		}
		if doc, err = json.Marshal(m); err != nil {
			t.Fatal(err)
		}
		var st OnlineState
		if err := json.Unmarshal(doc, &st); err != nil {
			t.Fatal(err)
		}
		restored, err := RestoreOnline(cl, schema, st)
		if err != nil {
			t.Fatalf("dropped %d: RestoreOnline: %v", dropped, err)
		}
		restored.EnableOpenSet(oset)

		wantStages := func() []Stage {
			want := runLengths(times[dropped:], classes[dropped:])
			want[0].Partial = dropped > 0
			return want
		}
		if got := restored.Stages(); !reflect.DeepEqual(got, wantStages()) {
			t.Errorf("dropped %d: restored stages %+v, want %+v", dropped, got, wantStages())
		}
		if restored.HistoryDropped() != dropped {
			t.Errorf("dropped %d: HistoryDropped = %d", dropped, restored.HistoryDropped())
		}
		again, err := RestoreOnline(cl, schema, restored.ExportState())
		if err != nil {
			t.Fatalf("dropped %d: re-checkpoint: %v", dropped, err)
		}
		if got := again.Stages(); !reflect.DeepEqual(got, wantStages()) {
			t.Errorf("dropped %d: re-checkpointed stages %+v, want %+v", dropped, got, wantStages())
		}
		for i := cutAt; i < trace.Len(); i++ {
			snap := trace.At(i)
			co, err := orig.Observe(snap)
			if err != nil {
				t.Fatal(err)
			}
			cr, err := restored.Observe(snap)
			if err != nil {
				t.Fatal(err)
			}
			if co != cr {
				t.Fatalf("dropped %d: snapshot %d classified %s, restored %s", dropped, i, co, cr)
			}
			times, classes = append(times, snap.Time), append(classes, co)
		}
		if !reflect.DeepEqual(restored.Snapshot(), orig.Snapshot()) {
			t.Errorf("dropped %d: views diverge:\noriginal %+v\nrestored %+v", dropped, orig.Snapshot(), restored.Snapshot())
		}
		if got := restored.Stages(); !reflect.DeepEqual(got, wantStages()) {
			t.Errorf("dropped %d: stages after the rest of the run %+v, want %+v", dropped, got, wantStages())
		}
	}
}
