package bench

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
)

// MetricSpec is one metric of BENCHMARK.json.
type MetricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// Spec is the part of BENCHMARK.json the benchmark reads.
type Spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []MetricSpec `json:"end_to_end"`
	PerLayer []MetricSpec `json:"per_layer"`
}

// LoadSpec reads BENCHMARK.json.
func LoadSpec(path string) (*Spec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Spec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// quartiles returns the first, second and third quartiles of xs by the
// method of Python's statistics.quantiles(xs, n=4) (its default
// "exclusive" method), so spreads here match the ones the acceptance
// check computes.
func quartiles(xs []float64) [3]float64 {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	var q [3]float64
	switch n := len(d); n {
	case 0:
		return [3]float64{math.NaN(), math.NaN(), math.NaN()}
	case 1:
		return [3]float64{d[0], d[0], d[0]}
	default:
		m := n + 1
		for i := 1; i <= 3; i++ {
			j := i * m / 4
			if j < 1 {
				j = 1
			}
			if j > n-1 {
				j = n - 1
			}
			delta := float64(i*m - j*4)
			q[i-1] = (d[j-1]*(4-delta) + d[j]*delta) / 4
		}
	}
	return q
}

// Verdict classes of a compared metric.
const (
	Better     = "better"
	NoWorse    = "no worse"
	Worse      = "worse"
	Unresolved = "unresolved"
)

// verdict judges change runs b against base runs a of one metric.
// pairs holds (a, b) values run with the same seed. A gain needs the
// change to win at least nine tenths of the pairs (ties count for
// neither) by more than the base's quartile spread. A median worse by
// more than bound (a share of the base median) is a regression. Where
// the base's own spread exceeds the bound, the comparison is unresolved
// unless every change run beats every base run.
func verdict(a, b []float64, pairs [][2]float64, lowerBetter bool, bound float64) string {
	qa, qb := quartiles(a), quartiles(b)
	gain := qa[1] - qb[1]
	if !lowerBetter {
		gain = -gain
	}
	wins := 0
	for _, p := range pairs {
		if (lowerBetter && p[1] < p[0]) || (!lowerBetter && p[1] > p[0]) {
			wins++
		}
	}
	spread := qa[2] - qa[0]
	if len(pairs) > 0 && wins*10 >= 9*len(pairs) && gain > spread {
		return Better
	}
	if spread > bound*math.Abs(qa[1]) {
		if allBetter(a, b, lowerBetter) {
			return NoWorse
		}
		return Unresolved
	}
	if -gain > bound*math.Abs(qa[1]) {
		return Worse
	}
	return NoWorse
}

func allBetter(a, b []float64, lowerBetter bool) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	worstB, bestA := b[0], a[0]
	for _, x := range b {
		if (lowerBetter && x > worstB) || (!lowerBetter && x < worstB) {
			worstB = x
		}
	}
	for _, x := range a {
		if (lowerBetter && x < bestA) || (!lowerBetter && x > bestA) {
			bestA = x
		}
	}
	if lowerBetter {
		return worstB < bestA
	}
	return worstB > bestA
}

// Differ and Comparable mark whether two sets ran on a machine of
// different speed.
const (
	Differ     = "differ"
	Comparable = "comparable"
)

// Compare reads two -out results files, base then change, and returns
// one row per workload and metric with each side's median and quartiles
// and the verdict under the spec's bounds. Only correct runs give
// values. A change with more incorrect runs of a workload than the base
// is worse on every metric of it: a gain does not count when more
// requests fail. A metric divided by a speed factor gets a second row of
// its raw values, and each workload gets rows of its speed factors,
// which differ when the two sets' quartile ranges do not overlap: the
// scaled verdicts then lean on the factor's correction. Per-layer
// metrics carry no bound and get no verdict.
func Compare(specPath, basePath, changePath string) ([]string, error) {
	spec, err := LoadSpec(specPath)
	if err != nil {
		return nil, err
	}
	base, err := readRecords(basePath)
	if err != nil {
		return nil, err
	}
	change, err := readRecords(changePath)
	if err != nil {
		return nil, err
	}
	rows := []string{fmt.Sprintf("%-14s %-34s %-30s %-30s %s", "workload", "metric", "base median [q1 q3]", "change median [q1 q3]", "verdict")}
	row := func(w, name string, a, b []float64, v string) {
		qa, qb := quartiles(a), quartiles(b)
		rows = append(rows, fmt.Sprintf("%-14s %-34s %-30s %-30s %s", w, name,
			fmt.Sprintf("%.4g [%.4g %.4g]", qa[1], qa[0], qa[2]),
			fmt.Sprintf("%.4g [%.4g %.4g]", qb[1], qb[0], qb[2]), v))
	}
	for _, w := range spec.Workloads {
		for _, set := range []struct {
			metrics []MetricSpec
			trace   bool
		}{{spec.EndToEnd, false}, {spec.PerLayer, true}} {
			badA, badB := incorrect(base, w.Name, set.trace), incorrect(change, w.Name, set.trace)
			if badA+badB > 0 {
				rows = append(rows, fmt.Sprintf("%-14s %-34s %-30d %-30d %s", w.Name, "incorrect runs (excluded)", badA, badB, "-"))
			}
			judge := func(a, b []float64, aSeeds, bSeeds []int64, m MetricSpec) string {
				switch {
				case set.trace:
					return "-"
				case badB > badA:
					return Worse
				}
				return verdict(a, b, pair(a, aSeeds, b, bSeeds), m.Better == "lower", m.Bound)
			}
			for _, m := range set.metrics {
				get := func(r record) (float64, bool) { v, ok := r.Metrics[m.Name]; return v.Value, ok }
				raw := func(r record) (float64, bool) { v, ok := r.Raw[m.Name]; return v, ok }
				a, aSeeds := values(base, w.Name, set.trace, get)
				b, bSeeds := values(change, w.Name, set.trace, get)
				if len(a) == 0 && len(b) == 0 {
					continue
				}
				row(w.Name, m.Name+" ("+m.Unit+")", a, b, judge(a, b, aSeeds, bSeeds, m))
				a, aSeeds = values(base, w.Name, set.trace, raw)
				b, bSeeds = values(change, w.Name, set.trace, raw)
				if len(a) > 0 || len(b) > 0 {
					row(w.Name, m.Name+" raw ("+m.Unit+")", a, b, judge(a, b, aSeeds, bSeeds, m))
				}
			}
			for _, f := range []struct {
				name string
				get  func(record) (float64, bool)
			}{
				{"speed_factor", func(r record) (float64, bool) { return r.SpeedFactor, r.SpeedFactor != 0 }},
				{"setup_speed_factor", func(r record) (float64, bool) { return r.SetupSpeedFactor, r.SetupSpeedFactor != 0 }},
			} {
				a, _ := values(base, w.Name, set.trace, f.get)
				b, _ := values(change, w.Name, set.trace, f.get)
				if len(a) == 0 && len(b) == 0 {
					continue
				}
				qa, qb := quartiles(a), quartiles(b)
				v := Comparable
				if qa[2] < qb[0] || qb[2] < qa[0] {
					v = Differ
				}
				row(w.Name, f.name+" (x)", a, b, v)
			}
		}
	}
	return rows, nil
}

// values returns the values get finds across the matching correct runs,
// with each run's seed.
func values(recs []record, workload string, trace bool, get func(record) (float64, bool)) ([]float64, []int64) {
	var vs []float64
	var seeds []int64
	for _, r := range recs {
		if r.Workload != workload || r.Trace != trace || !r.Correct {
			continue
		}
		if v, ok := get(r); ok {
			vs = append(vs, v)
			seeds = append(seeds, r.Seed)
		}
	}
	return vs, seeds
}

// incorrect counts the matching runs that were not correct.
func incorrect(recs []record, workload string, trace bool) int {
	n := 0
	for _, r := range recs {
		if r.Workload == workload && r.Trace == trace && !r.Correct {
			n++
		}
	}
	return n
}

// pair matches base and change runs made with the same seed, each run
// used once.
func pair(a []float64, aSeeds []int64, b []float64, bSeeds []int64) [][2]float64 {
	used := make([]bool, len(b))
	var out [][2]float64
	for i, s := range aSeeds {
		for j, t := range bSeeds {
			if !used[j] && s == t {
				used[j] = true
				out = append(out, [2]float64{a[i], b[j]})
				break
			}
		}
	}
	return out
}
