package bench

import (
	"testing"
	"time"
)

func recorderOf(n int) *Recorder {
	r := &Recorder{}
	for i := n; i >= 1; i-- { // out of order on purpose
		r.Add(time.Duration(i) * time.Millisecond)
	}
	return r
}

// TestTailRule checks the reported tail is the highest percentile with
// at least ten samples beyond it.
func TestTailRule(t *testing.T) {
	cases := []struct {
		n     int
		p     float64
		value time.Duration
		ok    bool
	}{
		{n: 15, ok: false}, // the median has only 7 beyond
		{n: 20, p: 0.5, value: 10 * time.Millisecond, ok: true},
		{n: 999, p: 0.9, value: 900 * time.Millisecond, ok: true}, // p99 would leave 9
		{n: 1000, p: 0.99, value: 990 * time.Millisecond, ok: true},
		{n: 9999, p: 0.99, value: 9900 * time.Millisecond, ok: true},
		{n: 10000, p: 0.999, value: 9990 * time.Millisecond, ok: true},
		{n: 100000, p: 0.9999, value: 99990 * time.Millisecond, ok: true},
	}
	for _, c := range cases {
		r := recorderOf(c.n)
		p, v, ok := r.Tail()
		if ok != c.ok || p != c.p || v != c.value {
			t.Errorf("n=%d: Tail() = %v %v %v, want %v %v %v", c.n, p, v, ok, c.p, c.value, c.ok)
		}
		if ok && r.Beyond(p) < 10 {
			t.Errorf("n=%d: %v has only %d samples beyond it", c.n, p, r.Beyond(p))
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	r := recorderOf(10)
	for _, c := range []struct {
		p    float64
		want time.Duration
	}{{0.1, 1}, {0.5, 5}, {0.55, 6}, {0.9, 9}, {0.99, 10}, {1, 10}} {
		if got := r.Quantile(c.p); got != c.want*time.Millisecond {
			t.Errorf("Quantile(%v) = %v, want %v", c.p, got, c.want*time.Millisecond)
		}
	}
	if got := (&Recorder{}).Quantile(0.5); got != 0 {
		t.Errorf("empty Quantile = %v, want 0", got)
	}
	if got := percentileName(0.999); got != "p999" {
		t.Errorf("percentileName(0.999) = %q", got)
	}
}
