// Package stats provides the small statistics toolkit used throughout
// the classifier: summary statistics, z-score normalization, percentile
// estimation, majority voting and confusion matrices. It complements
// internal/linalg with the scalar and labelled-data side of the paper's
// "statistical abstracts of the application behavior".
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrEmpty is returned when a statistic is requested over no data.
var ErrEmpty = errors.New("stats: empty input")

// Mean returns the arithmetic mean of xs, or 0 for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the unbiased (n-1) sample variance of xs. Fewer than
// two samples yield 0.
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(n-1)
}

// StdDev returns the sample standard deviation of xs.
func StdDev(xs []float64) float64 {
	return math.Sqrt(Variance(xs))
}

// MinMax returns the smallest and largest values in xs.
func MinMax(xs []float64) (min, max float64, err error) {
	if len(xs) == 0 {
		return 0, 0, ErrEmpty
	}
	min, max = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	return min, max, nil
}

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using
// linear interpolation between closest ranks.
func Percentile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if p < 0 || p > 100 {
		return 0, fmt.Errorf("stats: percentile %v out of [0,100]", p)
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0], nil
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo], nil
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac, nil
}

// Summary bundles the descriptive statistics the application database
// stores alongside each historical run.
type Summary struct {
	Count  int
	Mean   float64
	StdDev float64
	Min    float64
	Max    float64
	Median float64
}

// Summarize computes a Summary of xs.
func Summarize(xs []float64) (Summary, error) {
	if len(xs) == 0 {
		return Summary{}, ErrEmpty
	}
	min, max, err := MinMax(xs)
	if err != nil {
		return Summary{}, err
	}
	med, err := Percentile(xs, 50)
	if err != nil {
		return Summary{}, err
	}
	return Summary{
		Count:  len(xs),
		Mean:   Mean(xs),
		StdDev: StdDev(xs),
		Min:    min,
		Max:    max,
		Median: med,
	}, nil
}

// ZScore holds the mean and standard deviation of one variable so test
// data can be normalized with the parameters learned from training data,
// exactly as the paper's preprocessor normalizes selected metrics to
// zero mean and unit variance.
type ZScore struct {
	Mean   float64
	StdDev float64
}

// FitZScore learns normalization parameters from xs. A constant variable
// gets StdDev 1 so that normalization maps it to a constant 0 instead of
// dividing by zero.
func FitZScore(xs []float64) ZScore {
	sd := StdDev(xs)
	if sd == 0 {
		sd = 1
	}
	return ZScore{Mean: Mean(xs), StdDev: sd}
}

// Apply normalizes a single value.
func (z ZScore) Apply(x float64) float64 {
	return (x - z.Mean) / z.StdDev
}

// ApplyAll normalizes a slice, returning a new slice.
func (z ZScore) ApplyAll(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = z.Apply(x)
	}
	return out
}

// MajorityVote returns the most frequent label and its count. Ties are
// broken by the lexicographically smallest label so results are
// deterministic (the paper uses an odd k precisely to avoid most ties).
func MajorityVote(labels []string) (string, int, error) {
	if len(labels) == 0 {
		return "", 0, ErrEmpty
	}
	counts := make(map[string]int, len(labels))
	for _, l := range labels {
		counts[l]++
	}
	best, bestCount := "", -1
	for l, c := range counts {
		if c > bestCount || (c == bestCount && l < best) {
			best, bestCount = l, c
		}
	}
	return best, bestCount, nil
}

// Composition returns the fraction of each label in labels, summing to 1.
func Composition(labels []string) map[string]float64 {
	out := make(map[string]float64)
	if len(labels) == 0 {
		return out
	}
	for _, l := range labels {
		out[l]++
	}
	n := float64(len(labels))
	for l := range out {
		out[l] /= n
	}
	return out
}

// ConfusionMatrix counts predicted-vs-true label pairs for classifier
// evaluation.
type ConfusionMatrix struct {
	labels []string
	index  map[string]int
	counts [][]int
	total  int
}

// NewConfusionMatrix creates a matrix over a fixed label set.
func NewConfusionMatrix(labels []string) *ConfusionMatrix {
	idx := make(map[string]int, len(labels))
	ls := append([]string(nil), labels...)
	for i, l := range ls {
		idx[l] = i
	}
	counts := make([][]int, len(ls))
	for i := range counts {
		counts[i] = make([]int, len(ls))
	}
	return &ConfusionMatrix{labels: ls, index: idx, counts: counts}
}

// Add records one observation with the given true and predicted labels.
// Unknown labels are rejected.
func (c *ConfusionMatrix) Add(trueLabel, predicted string) error {
	ti, ok := c.index[trueLabel]
	if !ok {
		return fmt.Errorf("stats: unknown true label %q", trueLabel)
	}
	pi, ok := c.index[predicted]
	if !ok {
		return fmt.Errorf("stats: unknown predicted label %q", predicted)
	}
	c.counts[ti][pi]++
	c.total++
	return nil
}

// Count returns the number of observations with the given labels.
func (c *ConfusionMatrix) Count(trueLabel, predicted string) int {
	ti, ok := c.index[trueLabel]
	if !ok {
		return 0
	}
	pi, ok := c.index[predicted]
	if !ok {
		return 0
	}
	return c.counts[ti][pi]
}

// Accuracy returns the fraction of observations on the diagonal, or 0
// when empty.
func (c *ConfusionMatrix) Accuracy() float64 {
	if c.total == 0 {
		return 0
	}
	var correct int
	for i := range c.labels {
		correct += c.counts[i][i]
	}
	return float64(correct) / float64(c.total)
}

// Total returns the number of observations recorded.
func (c *ConfusionMatrix) Total() int { return c.total }

// Labels returns the label set in construction order.
func (c *ConfusionMatrix) Labels() []string {
	return append([]string(nil), c.labels...)
}

// Recall returns the per-class recall for the given true label (diagonal
// over row sum), or 0 when the class has no observations.
func (c *ConfusionMatrix) Recall(label string) float64 {
	ti, ok := c.index[label]
	if !ok {
		return 0
	}
	var row int
	for _, v := range c.counts[ti] {
		row += v
	}
	if row == 0 {
		return 0
	}
	return float64(c.counts[ti][ti]) / float64(row)
}

// Precision returns the per-class precision for the given predicted
// label (diagonal over column sum), or 0 when the label was never
// predicted.
func (c *ConfusionMatrix) Precision(label string) float64 {
	pi, ok := c.index[label]
	if !ok {
		return 0
	}
	var col int
	for ti := range c.labels {
		col += c.counts[ti][pi]
	}
	if col == 0 {
		return 0
	}
	return float64(c.counts[pi][pi]) / float64(col)
}

// Welford implements numerically stable streaming mean/variance, used by
// the online classifier extension to update normalization parameters
// incrementally.
type Welford struct {
	n    int
	mean float64
	m2   float64
}

// Add incorporates one observation. An observation that would
// overflow the mean or the sum of squared deviations (a finite value
// past ~1e154 can) is skipped, so the accumulator stays finite and its
// state stays serializable.
func (w *Welford) Add(x float64) {
	n := w.n + 1
	d := x - w.mean
	mean := w.mean + d/float64(n)
	m2 := w.m2 + d*(x-mean)
	if !(math.Abs(mean) <= math.MaxFloat64 && m2 <= math.MaxFloat64) {
		return // an overflow, or a NaN, which no comparison holds for
	}
	w.n, w.mean, w.m2 = n, mean, m2
}

// Count returns the number of observations seen.
func (w *Welford) Count() int { return w.n }

// Mean returns the running mean.
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the running unbiased sample variance.
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// StdDev returns the running sample standard deviation.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }

// ZScore snapshots the current normalization parameters, with the same
// constant-variable guard as FitZScore.
func (w *Welford) ZScore() ZScore {
	sd := w.StdDev()
	if sd == 0 {
		sd = 1
	}
	return ZScore{Mean: w.mean, StdDev: sd}
}

// WelfordState is the exported form of a Welford accumulator, used to
// persist streaming drift statistics across daemon restarts (session
// checkpoints serialize it as JSON).
type WelfordState struct {
	N    int     `json:"n"`
	Mean float64 `json:"mean"`
	M2   float64 `json:"m2"`
}

// State exports the accumulator for serialization.
func (w *Welford) State() WelfordState {
	return WelfordState{N: w.n, Mean: w.mean, M2: w.m2}
}

// WelfordFromState reconstructs an accumulator exported with State.
func WelfordFromState(s WelfordState) (Welford, error) {
	if s.N < 0 {
		return Welford{}, fmt.Errorf("stats: welford state has negative count %d", s.N)
	}
	if math.IsNaN(s.Mean) || math.IsInf(s.Mean, 0) || math.IsNaN(s.M2) || math.IsInf(s.M2, 0) || s.M2 < 0 {
		return Welford{}, fmt.Errorf("stats: welford state has invalid moments (mean %v, m2 %v)", s.Mean, s.M2)
	}
	return Welford{n: s.N, mean: s.Mean, m2: s.M2}, nil
}
