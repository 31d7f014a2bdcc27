package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMean(t *testing.T) {
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Errorf("Mean = %v, want 2", got)
	}
	if got := Mean(nil); got != 0 {
		t.Errorf("Mean(nil) = %v, want 0", got)
	}
}

func TestVarianceStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	// Sample variance of this classic dataset is 32/7.
	want := 32.0 / 7.0
	if got := Variance(xs); math.Abs(got-want) > 1e-12 {
		t.Errorf("Variance = %v, want %v", got, want)
	}
	if got := StdDev(xs); math.Abs(got-math.Sqrt(want)) > 1e-12 {
		t.Errorf("StdDev = %v, want %v", got, math.Sqrt(want))
	}
	if Variance([]float64{5}) != 0 {
		t.Error("Variance of single value should be 0")
	}
}

func TestMinMax(t *testing.T) {
	min, max, err := MinMax([]float64{3, -1, 7, 2})
	if err != nil {
		t.Fatalf("MinMax: %v", err)
	}
	if min != -1 || max != 7 {
		t.Errorf("MinMax = (%v,%v), want (-1,7)", min, max)
	}
	if _, _, err := MinMax(nil); err == nil {
		t.Error("MinMax(nil): want error")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct {
		p    float64
		want float64
	}{
		{0, 1}, {50, 3}, {100, 5}, {25, 2},
	}
	for _, c := range cases {
		got, err := Percentile(xs, c.p)
		if err != nil {
			t.Fatalf("Percentile(%v): %v", c.p, err)
		}
		if math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if _, err := Percentile(xs, 101); err == nil {
		t.Error("Percentile(101): want error")
	}
	if _, err := Percentile(nil, 50); err == nil {
		t.Error("Percentile(nil): want error")
	}
	one, err := Percentile([]float64{42}, 75)
	if err != nil || one != 42 {
		t.Errorf("Percentile single = (%v,%v), want (42,nil)", one, err)
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	if _, err := Percentile(xs, 50); err != nil {
		t.Fatal(err)
	}
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("Percentile mutated input: %v", xs)
	}
}

func TestSummarize(t *testing.T) {
	s, err := Summarize([]float64{1, 2, 3, 4})
	if err != nil {
		t.Fatalf("Summarize: %v", err)
	}
	if s.Count != 4 || s.Mean != 2.5 || s.Min != 1 || s.Max != 4 || s.Median != 2.5 {
		t.Errorf("Summarize = %+v", s)
	}
	if _, err := Summarize(nil); err == nil {
		t.Error("Summarize(nil): want error")
	}
}

func TestZScoreFitApply(t *testing.T) {
	z := FitZScore([]float64{1, 2, 3})
	if z.Mean != 2 {
		t.Errorf("Mean = %v, want 2", z.Mean)
	}
	norm := z.ApplyAll([]float64{1, 2, 3})
	if math.Abs(Mean(norm)) > 1e-12 {
		t.Errorf("normalized mean = %v, want 0", Mean(norm))
	}
	if math.Abs(StdDev(norm)-1) > 1e-12 {
		t.Errorf("normalized stddev = %v, want 1", StdDev(norm))
	}
}

func TestZScoreConstantGuard(t *testing.T) {
	z := FitZScore([]float64{5, 5, 5})
	if z.StdDev != 1 {
		t.Errorf("constant input StdDev = %v, want 1 (guard)", z.StdDev)
	}
	if got := z.Apply(5); got != 0 {
		t.Errorf("Apply(5) = %v, want 0", got)
	}
}

func TestMajorityVote(t *testing.T) {
	got, n, err := MajorityVote([]string{"cpu", "io", "cpu", "cpu", "net"})
	if err != nil {
		t.Fatalf("MajorityVote: %v", err)
	}
	if got != "cpu" || n != 3 {
		t.Errorf("MajorityVote = (%q,%d), want (cpu,3)", got, n)
	}
	if _, _, err := MajorityVote(nil); err == nil {
		t.Error("MajorityVote(nil): want error")
	}
}

func TestMajorityVoteTieDeterministic(t *testing.T) {
	got, _, err := MajorityVote([]string{"net", "cpu"})
	if err != nil {
		t.Fatal(err)
	}
	if got != "cpu" {
		t.Errorf("tie broken to %q, want lexicographically smallest (cpu)", got)
	}
}

func TestComposition(t *testing.T) {
	c := Composition([]string{"cpu", "cpu", "io", "idle"})
	if math.Abs(c["cpu"]-0.5) > 1e-12 || math.Abs(c["io"]-0.25) > 1e-12 {
		t.Errorf("Composition = %v", c)
	}
	var total float64
	for _, v := range c {
		total += v
	}
	if math.Abs(total-1) > 1e-12 {
		t.Errorf("composition total = %v, want 1", total)
	}
	if len(Composition(nil)) != 0 {
		t.Error("Composition(nil) should be empty")
	}
}

func TestConfusionMatrix(t *testing.T) {
	cm := NewConfusionMatrix([]string{"cpu", "io"})
	for _, pair := range [][2]string{{"cpu", "cpu"}, {"cpu", "io"}, {"io", "io"}, {"io", "io"}} {
		if err := cm.Add(pair[0], pair[1]); err != nil {
			t.Fatalf("Add: %v", err)
		}
	}
	if cm.Total() != 4 {
		t.Errorf("Total = %d, want 4", cm.Total())
	}
	if cm.Count("cpu", "io") != 1 {
		t.Errorf("Count(cpu,io) = %d, want 1", cm.Count("cpu", "io"))
	}
	if got := cm.Accuracy(); math.Abs(got-0.75) > 1e-12 {
		t.Errorf("Accuracy = %v, want 0.75", got)
	}
	if got := cm.Recall("cpu"); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("Recall(cpu) = %v, want 0.5", got)
	}
	if err := cm.Add("bogus", "cpu"); err == nil {
		t.Error("Add with unknown label: want error")
	}
	if err := cm.Add("cpu", "bogus"); err == nil {
		t.Error("Add with unknown prediction: want error")
	}
}

func TestConfusionMatrixEmpty(t *testing.T) {
	cm := NewConfusionMatrix([]string{"a"})
	if cm.Accuracy() != 0 {
		t.Error("Accuracy of empty matrix should be 0")
	}
	if cm.Recall("a") != 0 {
		t.Error("Recall with no observations should be 0")
	}
	if cm.Recall("zzz") != 0 {
		t.Error("Recall of unknown label should be 0")
	}
}

func TestWelfordMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	xs := make([]float64, 500)
	var w Welford
	for i := range xs {
		xs[i] = rng.NormFloat64()*7 + 3
		w.Add(xs[i])
	}
	if w.Count() != len(xs) {
		t.Errorf("Count = %d, want %d", w.Count(), len(xs))
	}
	if math.Abs(w.Mean()-Mean(xs)) > 1e-9 {
		t.Errorf("Welford mean %v != batch mean %v", w.Mean(), Mean(xs))
	}
	if math.Abs(w.Variance()-Variance(xs)) > 1e-9 {
		t.Errorf("Welford variance %v != batch variance %v", w.Variance(), Variance(xs))
	}
}

// TestWelfordStaysFinite: ordinary observations update exactly as the
// textbook recurrence does, and one that would overflow the mean or M2
// (or is not a number) is skipped, leaving a state WelfordFromState
// accepts.
func TestWelfordStaysFinite(t *testing.T) {
	var w Welford
	var want WelfordState
	for _, x := range []float64{3, -1.5, 1e6, 0.25, 1e150} {
		w.Add(x)
		want.N++
		d := x - want.Mean
		want.Mean += d / float64(want.N)
		want.M2 += d * (x - want.Mean)
	}
	if got := w.State(); got != want {
		t.Fatalf("state = %+v, want %+v", got, want)
	}
	for _, x := range []float64{1e160, math.MaxFloat64, -math.MaxFloat64, math.Inf(1), math.NaN()} {
		w.Add(x)
		if got := w.State(); got != want {
			t.Errorf("after Add(%g): state = %+v, want it unchanged at %+v", x, got, want)
		}
	}
	if _, err := WelfordFromState(w.State()); err != nil {
		t.Errorf("WelfordFromState: %v", err)
	}
}

func TestWelfordZScoreGuard(t *testing.T) {
	var w Welford
	w.Add(4)
	w.Add(4)
	z := w.ZScore()
	if z.StdDev != 1 {
		t.Errorf("constant stream StdDev = %v, want guard 1", z.StdDev)
	}
}

// Property: variance is non-negative and invariant under shifting.
func TestVarianceShiftInvarianceProperty(t *testing.T) {
	f := func(raw [8]float64, shift float64) bool {
		xs := make([]float64, len(raw))
		for i, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				x = 0
			}
			xs[i] = math.Mod(x, 1e4)
		}
		if math.IsNaN(shift) || math.IsInf(shift, 0) {
			shift = 0
		}
		shift = math.Mod(shift, 1e4)
		v1 := Variance(xs)
		shifted := make([]float64, len(xs))
		for i := range xs {
			shifted[i] = xs[i] + shift
		}
		v2 := Variance(shifted)
		return v1 >= 0 && math.Abs(v1-v2) <= 1e-6*(1+v1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: composition fractions always sum to 1 for non-empty input.
func TestCompositionSumsToOneProperty(t *testing.T) {
	f := func(choices []uint8) bool {
		if len(choices) == 0 {
			return true
		}
		names := []string{"cpu", "io", "net", "mem", "idle"}
		labels := make([]string, len(choices))
		for i, c := range choices {
			labels[i] = names[int(c)%len(names)]
		}
		var total float64
		for _, v := range Composition(labels) {
			total += v
		}
		return math.Abs(total-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestConfusionMatrixPrecision(t *testing.T) {
	cm := NewConfusionMatrix([]string{"cpu", "io"})
	// Predictions of "io": 2 correct, 1 wrong (true cpu).
	_ = cm.Add("io", "io")
	_ = cm.Add("io", "io")
	_ = cm.Add("cpu", "io")
	_ = cm.Add("cpu", "cpu")
	if got := cm.Precision("io"); math.Abs(got-2.0/3.0) > 1e-12 {
		t.Errorf("Precision(io) = %v, want 2/3", got)
	}
	if got := cm.Precision("cpu"); got != 1 {
		t.Errorf("Precision(cpu) = %v, want 1", got)
	}
	if cm.Precision("zzz") != 0 {
		t.Error("Precision of unknown label should be 0")
	}
	empty := NewConfusionMatrix([]string{"a"})
	if empty.Precision("a") != 0 {
		t.Error("Precision with no predictions should be 0")
	}
}
