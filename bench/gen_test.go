package bench

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestGeneratorRefusesMoreConnectionsThanCPUs(t *testing.T) {
	if _, err := NewGenerator(runtime.NumCPU() + 1); err == nil {
		t.Errorf("NewGenerator(NumCPU+1) succeeded")
	}
	if _, err := NewGenerator(0); err == nil {
		t.Errorf("NewGenerator(0) succeeded")
	}
	g, err := NewGenerator(1)
	if err != nil || g.Conns() != 1 {
		t.Fatalf("NewGenerator(1) = %v, %v", g, err)
	}
}

// TestCoordinatedOmission stalls the server once for 200 ms. The
// requests scheduled during the stall are served in microseconds once
// it ends, but they were due long before: timed from their schedule,
// they must push the p99 past 100 ms.
func TestCoordinatedOmission(t *testing.T) {
	var served atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if served.Add(1) == 100 {
			time.Sleep(200 * time.Millisecond)
		}
	}))
	defer ts.Close()
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()

	const n, rate = 1000, 1000 // one second of requests at 1 ms spacing
	evs := make([]Event, n)
	for i := range evs {
		evs[i] = Event{Due: time.Duration(i) * time.Second / rate, Kind: KindIngest}
	}
	send := func(ctx context.Context, i int) error {
		resp, err := hc.Get(ts.URL)
		if err != nil {
			return err
		}
		io.Copy(io.Discard, resp.Body)
		return resp.Body.Close()
	}
	g, err := NewGenerator(1)
	if err != nil {
		t.Fatal(err)
	}
	st := g.OpenLoop(context.Background(), time.Now().Add(10*time.Millisecond), 0, []Schedule{{Events: evs, Send: send}})
	if st.Failed != 0 || st.Sent[KindIngest] != n {
		t.Fatalf("sent %d, failed %d: %v", st.Sent[KindIngest], st.Failed, st.Errors)
	}
	lat := &st.Latency[KindIngest]
	if p99 := lat.Quantile(0.99); p99 < 100*time.Millisecond {
		t.Errorf("p99 = %v, want >= 100ms: the stall was not charged to the requests queued behind it", p99)
	}
	if p50 := lat.Quantile(0.5); p50 > 50*time.Millisecond {
		t.Errorf("p50 = %v: the stall should touch about a fifth of the requests, not most", p50)
	}
}
