package phase

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/appclass"
)

// feed pushes n synthetic snapshots of a given class around a feature
// center, starting at snapshot index start (1 s per snapshot), with a
// tiny deterministic wiggle so windows are not exactly constant.
func feed(t *testing.T, s *Segmenter, start, n int, class appclass.Class, center [2]float64) {
	t.Helper()
	for i := 0; i < n; i++ {
		wiggle := 0.01 * math.Sin(float64(start+i))
		feat := []float64{center[0] + wiggle, center[1] - wiggle}
		at := time.Duration(start+i) * time.Second
		if err := s.Observe(at, class, feat); err != nil {
			t.Fatalf("Observe(%d): %v", start+i, err)
		}
	}
}

func TestSegmenterSingleHomogeneousPhase(t *testing.T) {
	s := NewSegmenter(Config{})
	feed(t, s, 0, 100, appclass.CPU, [2]float64{2, 0})
	phases := s.Phases()
	if len(phases) != 1 {
		t.Fatalf("homogeneous stream produced %d phases, want 1: %+v", len(phases), phases)
	}
	p := phases[0]
	if p.Class != appclass.CPU || !p.Open || p.Snapshots != 100 {
		t.Errorf("phase = %+v, want open CPU phase with 100 snapshots", p)
	}
	if math.Abs(p.Centroid[0]-2) > 0.02 || math.Abs(p.Centroid[1]) > 0.02 {
		t.Errorf("centroid = %v, want ≈ [2 0]", p.Centroid)
	}
	if frac := p.Composition[appclass.CPU]; frac != 1 {
		t.Errorf("CPU composition = %v, want 1", frac)
	}
}

func TestSegmenterRecoversPlantedBoundary(t *testing.T) {
	const w = 8
	s := NewSegmenter(Config{Window: w, MinLen: 5, Threshold: 1.0})
	// 60 CPU-like snapshots, then 60 IO-like ones far away in feature
	// space: one boundary planted at snapshot 60 (t = 60 s).
	feed(t, s, 0, 60, appclass.CPU, [2]float64{2, 0})
	feed(t, s, 60, 60, appclass.IO, [2]float64{-2, 1})
	phases := s.Phases()
	if len(phases) != 2 {
		t.Fatalf("got %d phases, want 2: %+v", len(phases), phases)
	}
	if phases[0].Class != appclass.CPU || phases[1].Class != appclass.IO {
		t.Fatalf("classes = %s, %s, want cpu then io", phases[0].Class, phases[1].Class)
	}
	// The detected boundary (end of phase 0 / start of phase 1) must
	// fall within one window of the planted change point.
	planted := 60 * time.Second
	gotStart := phases[1].Start
	if diff := (gotStart - planted) / time.Second; diff < -w || diff > w {
		t.Errorf("phase 1 starts at %v, want within %d s of %v", gotStart, w, planted)
	}
	if phases[0].Open || !phases[1].Open {
		t.Errorf("open flags = %v, %v, want closed then open", phases[0].Open, phases[1].Open)
	}
	if s.Count() != 2 {
		t.Errorf("Count() = %d, want 2", s.Count())
	}
	if s.Total() != 120 {
		t.Errorf("Total() = %d, want 120", s.Total())
	}
}

func TestSegmenterThreePhases(t *testing.T) {
	s := NewSegmenter(Config{Window: 8, MinLen: 5, Threshold: 1.0})
	feed(t, s, 0, 50, appclass.CPU, [2]float64{2, 0})
	feed(t, s, 50, 50, appclass.IO, [2]float64{-2, 1})
	feed(t, s, 100, 50, appclass.Net, [2]float64{0, -2})
	phases := s.Phases()
	if len(phases) != 3 {
		t.Fatalf("got %d phases, want 3: %+v", len(phases), phases)
	}
	want := []appclass.Class{appclass.CPU, appclass.IO, appclass.Net}
	for i, p := range phases {
		if p.Class != want[i] {
			t.Errorf("phase %d class = %s, want %s", i, p.Class, want[i])
		}
	}
	total := 0
	for _, p := range phases {
		total += p.Snapshots
	}
	if total != 150 {
		t.Errorf("phases hold %d snapshots, want 150", total)
	}
}

func TestSegmenterIgnoresSubThresholdDrift(t *testing.T) {
	s := NewSegmenter(Config{Window: 8, MinLen: 5, Threshold: 1.0})
	// Slow drift: the half-window means never separate by more than the
	// threshold, so no boundary may fire.
	for i := 0; i < 200; i++ {
		feat := []float64{2 + 0.002*float64(i), 0}
		if err := s.Observe(time.Duration(i)*time.Second, appclass.CPU, feat); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Count(); got != 1 {
		t.Errorf("slow drift produced %d phases, want 1", got)
	}
}

func TestSegmenterMinLenSuppressesEarlySplit(t *testing.T) {
	// A short first phase (3 < MinLen=10) must not be closed on its own:
	// the detector waits until the split leaves at least MinLen behind.
	s := NewSegmenter(Config{Window: 4, MinLen: 10, Threshold: 1.0})
	feed(t, s, 0, 3, appclass.CPU, [2]float64{2, 0})
	feed(t, s, 3, 40, appclass.IO, [2]float64{-2, 1})
	for _, p := range s.Phases() {
		if !p.Open && p.Snapshots < 10 {
			t.Errorf("closed phase with %d snapshots violates MinLen 10: %+v", p.Snapshots, p)
		}
	}
}

func TestSegmenterFeatureDimMismatch(t *testing.T) {
	s := NewSegmenter(Config{})
	if err := s.Observe(0, appclass.CPU, []float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := s.Observe(time.Second, appclass.CPU, []float64{1}); err == nil {
		t.Fatal("dimension change accepted, want error")
	}
	// The stream stays usable with the original dimensionality.
	if err := s.Observe(2*time.Second, appclass.CPU, []float64{3, 4}); err != nil {
		t.Fatalf("valid observe after rejected one: %v", err)
	}
	if s.Total() != 2 {
		t.Errorf("Total() = %d, want 2 (rejected snapshot must not count)", s.Total())
	}
}

func TestSegmenterEmptyFeature(t *testing.T) {
	s := NewSegmenter(Config{})
	if err := s.Observe(0, appclass.CPU, nil); err == nil {
		t.Fatal("empty feature vector accepted, want error")
	}
}

// TestSegmenterRestoreResumesIdentically exports mid-stream, restores,
// feeds both segmenters the same remainder, and requires identical
// phase lists — the crash-recovery contract.
func TestSegmenterRestoreResumesIdentically(t *testing.T) {
	for _, cut := range []int{0, 3, 11, 47, 60, 75, 119} {
		orig := NewSegmenter(Config{Window: 8, MinLen: 5, Threshold: 1.0})
		stream := func(s *Segmenter, from, to int) {
			for i := from; i < to; i++ {
				var class appclass.Class
				var center [2]float64
				switch {
				case i < 45:
					class, center = appclass.CPU, [2]float64{2, 0}
				case i < 90:
					class, center = appclass.IO, [2]float64{-2, 1}
				default:
					class, center = appclass.Mem, [2]float64{0, 3}
				}
				wiggle := 0.01 * math.Sin(float64(i))
				feat := []float64{center[0] + wiggle, center[1] - wiggle}
				if err := s.Observe(time.Duration(i)*time.Second, class, feat); err != nil {
					t.Fatalf("cut %d: Observe(%d): %v", cut, i, err)
				}
			}
		}
		stream(orig, 0, cut)
		restored, err := RestoreSegmenter(orig.ExportState())
		if err != nil {
			t.Fatalf("cut %d: restore: %v", cut, err)
		}
		stream(orig, cut, 120)
		stream(restored, cut, 120)
		a, b := orig.Phases(), restored.Phases()
		if !reflect.DeepEqual(a, b) {
			t.Errorf("cut %d: phase lists diverge:\n orig: %+v\n rest: %+v", cut, a, b)
		}
		if orig.Total() != restored.Total() {
			t.Errorf("cut %d: totals diverge: %d vs %d", cut, orig.Total(), restored.Total())
		}
	}
}

// TestSegmenterRestoredEveryStepMatches restores a segmenter from its
// own export after every snapshot of a noisy multi-phase stream and
// requires its exported state, half-window distance included, to equal
// an uninterrupted segmenter's bit for bit at every step.
func TestSegmenterRestoredEveryStepMatches(t *testing.T) {
	cfg := Config{Window: 8, MinLen: 5, Threshold: 1.0}
	whole, hopped := NewSegmenter(cfg), NewSegmenter(cfg)
	rng := rand.New(rand.NewSource(3))
	centers := [][2]float64{{2, 0}, {-2, 1}, {0, 3}, {1.3, -0.7}}
	classes := []appclass.Class{appclass.CPU, appclass.IO, appclass.Mem, appclass.Net}
	for i := 0; i < 480; i++ {
		k := (i / 60) % len(centers)
		feat := []float64{centers[k][0] + 0.3*rng.NormFloat64(), centers[k][1] + 0.3*rng.NormFloat64()}
		at := time.Duration(i) * time.Second
		if err := whole.Observe(at, classes[k], feat); err != nil {
			t.Fatal(err)
		}
		if err := hopped.Observe(at, classes[k], feat); err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(whole.ExportState())
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(hopped.ExportState())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("step %d: restored state diverges:\n got %s\nwant %s", i, got, want)
		}
		if hopped, err = RestoreSegmenter(hopped.ExportState()); err != nil {
			t.Fatalf("step %d: restore: %v", i, err)
		}
	}
	if n := len(whole.Phases()); n < 6 {
		t.Fatalf("stream has %d phases, want at least 6", n)
	}
}

func TestSegmenterStateRoundTripEmpty(t *testing.T) {
	s := NewSegmenter(Config{Window: 6})
	restored, err := RestoreSegmenter(s.ExportState())
	if err != nil {
		t.Fatalf("restore empty: %v", err)
	}
	if restored.Config().Window != 6 {
		t.Errorf("window = %d, want 6", restored.Config().Window)
	}
	if len(restored.Phases()) != 0 {
		t.Errorf("empty restore has phases: %+v", restored.Phases())
	}
}

func TestRestoreSegmenterRejectsCorruptState(t *testing.T) {
	s := NewSegmenter(Config{Window: 4, MinLen: 3, Threshold: 1.0})
	feed(t, s, 0, 30, appclass.CPU, [2]float64{2, 0})
	base := s.ExportState()

	corrupt := func(name string, mutate func(*SegmenterState)) {
		st := base // shallow copy is fine: mutations below replace fields
		mutate(&st)
		if _, err := RestoreSegmenter(st); err == nil {
			t.Errorf("%s: corrupt state accepted", name)
		}
	}
	corrupt("total mismatch", func(st *SegmenterState) { st.Total += 5 })
	corrupt("ring overflow", func(st *SegmenterState) {
		extra := make([]EntryState, 20)
		for i := range extra {
			extra[i].Feat = []float64{0, 0}
		}
		st.Ring = extra
	})
	corrupt("dim mismatch in ring", func(st *SegmenterState) {
		ring := append([]EntryState(nil), base.Ring...)
		ring[0] = EntryState{Feat: []float64{1}}
		st.Ring = ring
	})
	corrupt("cur counts disagree", func(st *SegmenterState) {
		cur := *base.Cur
		cur.Snapshots++
		st.Cur = &cur
		st.Total++
	})
}
