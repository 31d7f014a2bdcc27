package bench

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(xs,
// n=4), the spread definition the benchmark is accepted by.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3.5, 1.25}, [3]float64{0.6875, 2.375, 4.0625}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
	} {
		got := quartiles(c.xs)
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
				break
			}
		}
	}
}

func TestVerdict(t *testing.T) {
	base := []float64{10, 10.2, 9.9, 10.1, 10, 9.8, 10.3, 10, 9.9, 10.1}
	scale := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, x := range base {
			out[i] = x * f
		}
		return out
	}
	pairs := func(b []float64) [][2]float64 {
		var out [][2]float64
		for i := range base {
			out = append(out, [2]float64{base[i], b[i]})
		}
		return out
	}
	for _, c := range []struct {
		name  string
		b     []float64
		lower bool
		want  string
	}{
		{"faster", scale(0.8), true, Better},
		{"same", scale(1), true, NoWorse},
		{"slightly slower", scale(1.05), true, NoWorse},
		{"slower", scale(1.2), true, Worse},
		{"higher is better", scale(1.2), false, Better},
	} {
		if got := verdict(base, c.b, pairs(c.b), c.lower, 0.1); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
	noisy := []float64{5, 15, 8, 12, 10, 6, 14, 9, 11, 10}
	if got := verdict(noisy, noisy, nil, true, 0.1); got != Unresolved {
		t.Errorf("noisy base: verdict %q, want %q", got, Unresolved)
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "BENCHMARK.json")
	os.WriteFile(spec, []byte(`{"workloads":[{"name":"w","why":"x"}],
		"end_to_end":[{"name":"lat_ms","unit":"ms","better":"lower","bound":0.1}],
		"per_layer":[{"name":"l.us","unit":"us","better":"lower"}]}`), 0o644)
	// write records ten runs whose lat_ms is f times the base's; the
	// seeds in bad are incorrect and read 1000 times faster.
	write := func(name string, f float64, bad ...int64) string {
		path := filepath.Join(dir, name)
		for seed := int64(1); seed <= 10; seed++ {
			r := &Result{Workload: "w", Seed: seed, Correct: true, Attempted: 1,
				Metrics: []Metric{{"lat_ms", f * (10 + float64(seed%3)/10), "ms"}}}
			for _, b := range bad {
				if b == seed {
					r.Correct, r.Failed, r.Metrics[0].Value = false, 1, r.Metrics[0].Value/1000
				}
			}
			if err := AppendRecord(path, r); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	base := write("a.json", 1)
	rows, err := Compare(spec, base, write("b.json", 0.7))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || !strings.HasSuffix(rows[1], Better) || !strings.Contains(rows[1], "lat_ms (ms)") {
		t.Errorf("rows = %q", rows)
	}
	// An incorrect run is excluded, and a change with more of them than
	// the base is worse, however fast its correct runs.
	rows, err = Compare(spec, base, write("c.json", 0.7, 3))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 || !strings.Contains(rows[1], "incorrect runs") || !strings.HasSuffix(rows[2], Worse) ||
		!strings.Contains(rows[2], "7.07 [7.035 ") {
		t.Errorf("rows = %q", rows)
	}
}

// TestCompareSpeedFactors checks that a scaled metric gets a raw row and
// that speed factors whose quartile ranges do not overlap are flagged.
func TestCompareSpeedFactors(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "BENCHMARK.json")
	os.WriteFile(spec, []byte(`{"workloads":[{"name":"w","why":"x"}],
		"end_to_end":[{"name":"lat_ms","unit":"ms","better":"lower","bound":0.1}],"per_layer":[]}`), 0o644)
	write := func(name string, speed float64) string {
		path := filepath.Join(dir, name)
		for seed := int64(1); seed <= 10; seed++ {
			r := &Result{Workload: "w", Seed: seed, Correct: true, Attempted: 1,
				SpeedFactor: speed + float64(seed)/100, SetupSpeedFactor: 1}
			r.addScaled("lat_ms", 10*speed, r.SpeedFactor, "ms")
			if err := AppendRecord(path, r); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	rows, err := Compare(spec, write("a.json", 1), write("b.json", 1.5))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"lat_ms (ms)", "lat_ms raw (ms)", "speed_factor (x)", "setup_speed_factor (x)"}
	if len(rows) != 1+len(want) {
		t.Fatalf("rows = %q", rows)
	}
	for i, w := range want {
		if !strings.Contains(rows[1+i], w) {
			t.Errorf("row %d = %q, want %s", 1+i, rows[1+i], w)
		}
	}
	if !strings.HasSuffix(rows[2], Worse) || !strings.HasSuffix(rows[3], Differ) || !strings.HasSuffix(rows[4], Comparable) {
		t.Errorf("rows = %q", rows)
	}
}
