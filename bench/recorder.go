package bench

import (
	"fmt"
	"sort"
	"time"
)

// Recorder keeps every latency sample of one request kind. Samples are
// few enough (tens of thousands per run) to keep whole, so percentiles
// are exact order statistics rather than histogram estimates.
type Recorder struct {
	d      []time.Duration
	sorted bool
}

// Add records one sample.
func (r *Recorder) Add(d time.Duration) {
	r.d = append(r.d, d)
	r.sorted = false
}

// Merge appends o's samples.
func (r *Recorder) Merge(o *Recorder) {
	r.d = append(r.d, o.d...)
	r.sorted = false
}

// Len returns the number of samples.
func (r *Recorder) Len() int { return len(r.d) }

// Quantile returns the nearest-rank p-quantile (0 < p <= 1): the
// smallest sample with at least a p share of samples at or below it.
// It returns 0 without samples.
func (r *Recorder) Quantile(p float64) time.Duration {
	if len(r.d) == 0 {
		return 0
	}
	if !r.sorted {
		sort.Slice(r.d, func(a, b int) bool { return r.d[a] < r.d[b] })
		r.sorted = true
	}
	return r.d[rank(len(r.d), p)-1]
}

// rank is the 1-based nearest rank of quantile p over n samples,
// computed in integer parts per million so 0.999 × 1000 is exactly 999.
func rank(n int, p float64) int {
	k := (int64(n)*int64(p*1e6+0.5) + 1e6 - 1) / 1e6
	if k < 1 {
		k = 1
	}
	if k > int64(n) {
		k = int64(n)
	}
	return int(k)
}

// tailLadder is the percentile ladder Tail climbs.
var tailLadder = []float64{0.5, 0.9, 0.99, 0.999, 0.9999}

// Beyond returns how many samples lie above the p-quantile's rank.
func (r *Recorder) Beyond(p float64) int { return len(r.d) - rank(len(r.d), p) }

// Tail returns the highest ladder percentile that still has at least ten
// samples beyond it, the tail a run of this size can resolve. ok is
// false when not even the median qualifies.
func (r *Recorder) Tail() (p float64, v time.Duration, ok bool) {
	for _, q := range tailLadder {
		if r.Beyond(q) < 10 {
			break
		}
		p, ok = q, true
	}
	if !ok {
		return 0, 0, false
	}
	return p, r.Quantile(p), true
}

// percentileName renders 0.999 as "p999" and 0.5 as "p50".
func percentileName(p float64) string {
	s := fmt.Sprintf("%g", p*100)
	out := []byte{'p'}
	for i := 0; i < len(s); i++ {
		if s[i] != '.' {
			out = append(out, s[i])
		}
	}
	return string(out)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
