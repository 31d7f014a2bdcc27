package classify

import (
	"math"
	"testing"
	"time"

	"repro/internal/appclass"
	"repro/internal/metrics"
)

func TestOnlineMatchesBatch(t *testing.T) {
	cl := trainSynthetic(t, Config{})
	tr := syntheticTrace(t, appclass.IO, 30, 21)
	batch, err := cl.ClassifyTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	online, err := NewOnline(cl, tr.Schema())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < tr.Len(); i++ {
		got, err := online.Observe(tr.At(i))
		if err != nil {
			t.Fatal(err)
		}
		if got != batch.Snapshots[i] {
			t.Errorf("snapshot %d: online %s, batch %s", i, got, batch.Snapshots[i])
		}
	}
	if online.Seen() != 30 {
		t.Errorf("Seen = %d", online.Seen())
	}
	oc, err := online.Class()
	if err != nil || oc != batch.Class {
		t.Errorf("online class = (%s,%v), batch %s", oc, err, batch.Class)
	}
	for c, f := range batch.Composition {
		if math.Abs(online.Composition()[c]-f) > 1e-12 {
			t.Errorf("composition[%s] online %v batch %v", c, online.Composition()[c], f)
		}
	}
	if online.Last() != batch.Snapshots[29] {
		t.Errorf("Last = %s", online.Last())
	}
	n := 0
	for _, st := range online.Stages() {
		n += st.Snapshots
	}
	if n != 30 {
		t.Errorf("Stages hold %d snapshots, want 30", n)
	}
}

func TestOnlineEmptyState(t *testing.T) {
	cl := trainSynthetic(t, Config{})
	online, err := NewOnline(cl, metrics.ExpertSchema())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := online.Class(); err == nil {
		t.Error("Class with no data: want error")
	}
	if len(online.Composition()) != 0 {
		t.Error("Composition with no data should be empty")
	}
	if online.DriftScore() != 0 {
		t.Error("DriftScore with no data should be 0")
	}
}

func TestOnlineValidation(t *testing.T) {
	cl := trainSynthetic(t, Config{})
	if _, err := NewOnline(nil, metrics.ExpertSchema()); err == nil {
		t.Error("nil classifier: want error")
	}
	s, _ := metrics.NewSchema([]string{"x"})
	if _, err := NewOnline(cl, s); err == nil {
		t.Error("schema without expert metrics: want error")
	}
	online, err := NewOnline(cl, metrics.ExpertSchema())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := online.Observe(metrics.Snapshot{Values: []float64{1}}); err == nil {
		t.Error("arity mismatch: want error")
	}
}

func TestOnlineDriftScore(t *testing.T) {
	cl := trainSynthetic(t, Config{})
	online, err := NewOnline(cl, metrics.ExpertSchema())
	if err != nil {
		t.Fatal(err)
	}
	// Feed in-distribution CPU snapshots: drift should stay moderate.
	tr := syntheticTrace(t, appclass.CPU, 40, 5)
	for i := 0; i < tr.Len(); i++ {
		if _, err := online.Observe(tr.At(i)); err != nil {
			t.Fatal(err)
		}
	}
	inDist := online.DriftScore()

	// A stream with wildly shifted metrics must score higher.
	shifted, err := NewOnline(cl, metrics.ExpertSchema())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < tr.Len(); i++ {
		s := tr.At(i).Clone()
		for j := range s.Values {
			s.Values[j] = s.Values[j]*50 + 1e6
		}
		if _, err := shifted.Observe(s); err != nil {
			t.Fatal(err)
		}
	}
	if shifted.DriftScore() <= inDist {
		t.Errorf("shifted drift %v not above in-distribution %v", shifted.DriftScore(), inDist)
	}
}

func TestDetectStages(t *testing.T) {
	cl := trainSynthetic(t, Config{})
	// Build a three-stage trace: idle, then io, then net.
	tr := metrics.NewTrace(metrics.ExpertSchema(), "vm1")
	classes := []appclass.Class{appclass.Idle, appclass.IO, appclass.Net}
	for stage, c := range classes {
		sig := classSignature(c)
		for i := 0; i < 20; i++ {
			vals := append([]float64(nil), sig...)
			err := tr.Append(metrics.Snapshot{
				Time: time.Duration(stage*20+i) * 5 * time.Second, Node: "vm1", Values: vals,
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	res, err := cl.ClassifyTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	stages, err := DetectStages(tr, res, 3, 3)
	if err != nil {
		t.Fatalf("DetectStages: %v", err)
	}
	if len(stages) != 3 {
		t.Fatalf("detected %d stages (%s), want 3", len(stages), StageSummary(stages))
	}
	for i, want := range classes {
		if stages[i].Class != want {
			t.Errorf("stage %d = %s, want %s", i, stages[i].Class, want)
		}
	}
	if stages[0].Duration() <= 0 || stages[0].Snapshots != 20 {
		t.Errorf("stage 0 = %+v", stages[0])
	}
}

func TestDetectStagesSmoothsFlicker(t *testing.T) {
	cl := trainSynthetic(t, Config{})
	tr := metrics.NewTrace(metrics.ExpertSchema(), "vm1")
	// 30 io snapshots with a single cpu spike in the middle.
	for i := 0; i < 30; i++ {
		c := appclass.IO
		if i == 15 {
			c = appclass.CPU
		}
		vals := append([]float64(nil), classSignature(c)...)
		err := tr.Append(metrics.Snapshot{Time: time.Duration(i*5) * time.Second, Node: "vm1", Values: vals})
		if err != nil {
			t.Fatal(err)
		}
	}
	res, err := cl.ClassifyTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	stages, err := DetectStages(tr, res, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(stages) != 1 || stages[0].Class != appclass.IO {
		t.Errorf("flicker not smoothed: %s", StageSummary(stages))
	}
}

func TestDetectStagesValidation(t *testing.T) {
	cl := trainSynthetic(t, Config{})
	tr := syntheticTrace(t, appclass.IO, 10, 2)
	res, err := cl.ClassifyTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DetectStages(nil, res, 3, 1); err == nil {
		t.Error("nil trace: want error")
	}
	if _, err := DetectStages(tr, nil, 3, 1); err == nil {
		t.Error("nil result: want error")
	}
	if _, err := DetectStages(tr, res, 4, 1); err == nil {
		t.Error("even window: want error")
	}
	if _, err := DetectStages(tr, res, 3, 0); err == nil {
		t.Error("zero minLen: want error")
	}
	short := syntheticTrace(t, appclass.IO, 5, 2)
	if _, err := DetectStages(short, res, 3, 1); err == nil {
		t.Error("length mismatch: want error")
	}
}

func TestStageSummary(t *testing.T) {
	s := StageSummary([]Stage{
		{Class: appclass.Idle, Snapshots: 12},
		{Class: appclass.IO, Snapshots: 17},
	})
	if s != "idle[12] io[17]" {
		t.Errorf("StageSummary = %q", s)
	}
	if StageSummary(nil) != "" {
		t.Error("empty summary should be empty string")
	}
}
