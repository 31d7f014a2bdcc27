package bench

import (
	"context"
	"net/http"
	"os"
	"regexp"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// TestSmoke runs every workload at 1/20 of its rates for half a second
// against an in-process server (no build, no exec), end to end and
// traced. Every reply must satisfy the oracle, and each mode must emit
// exactly the metric set BENCHMARK.json declares for it.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke run takes several seconds")
	}
	spec, err := LoadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	in, err := GenerateInputs(dir, 7)
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Work: dir, Window: 500 * time.Millisecond, Scale: 1.0 / 20, Setups: 1, TraceDir: dir}
	if len(spec.Workloads) != len(Workloads()) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(spec.Workloads), len(Workloads()))
	}
	for i, w := range Workloads() {
		if i < len(spec.Workloads) && spec.Workloads[i].Name != w.Name {
			t.Errorf("workload %d is %q, BENCHMARK.json says %q", i, w.Name, spec.Workloads[i].Name)
		}
		for _, traced := range []bool{false, true} {
			run, want := RunE2E, spec.EndToEnd
			if traced {
				run, want = RunTrace, spec.PerLayer
			}
			res, err := run(context.Background(), w, in, opt)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d: %v", w.Name, traced, res.Correct, res.Attempted, res.Failed, res.Errors)
			}
			checkNames(t, w.Name, res.Metrics, want)
		}
	}
	if _, err := os.Stat(dir + "/churn-query.json"); err != nil {
		t.Errorf("no trace file: %v", err)
	}
}

// TestChurnIngestFailureFailsRun fails four churn ingest requests. The
// finishes of the runs they carried must fail at once rather than wait
// for a last batch that will never be acknowledged, and the run must
// return, incorrect.
func TestChurnIngestFailureFailsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs an in-process daemon for a second")
	}
	dir := t.TempDir()
	in, err := GenerateInputs(dir, 7)
	if err != nil {
		t.Fatal(err)
	}
	// Runs of two or three batches, so finishes fall due in the open loop.
	w := Workload{Name: "churn-fault", Binary: true, VMs: 8, Groups: 1, Rows: 8, Rate: 80,
		Churn: true, RunMin: 16, RunMax: 24}
	var posts atomic.Int64
	opt := Options{Work: dir, Window: time.Second, Scale: 1, Setups: 1, Wrap: func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/ingest.bin" {
				if n := posts.Add(1); n > 10 && n <= 14 {
					http.Error(rw, "injected fault", http.StatusServiceUnavailable)
					return
				}
			}
			h.ServeHTTP(rw, r)
		})
	}}
	var res *Result
	done := make(chan struct{})
	go func() {
		defer close(done)
		res, err = RunE2E(context.Background(), w, in, opt)
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("the run did not return: a finish is waiting for a batch that failed")
	}
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 {
		t.Errorf("correct=%v failed=%d, want an incorrect run", res.Correct, res.Failed)
	}
	if !strings.Contains(strings.Join(res.Errors, "\n"), "finish not sent") {
		t.Errorf("no finish was refused for a failed run: %q", res.Errors)
	}
}

func checkNames(t *testing.T, workload string, got []Metric, want []MetricSpec) {
	t.Helper()
	var g, w []string
	for _, m := range got {
		g = append(g, m.Name+" "+m.Unit)
		if !metricName.MatchString(m.Name) {
			t.Errorf("%s: metric name %q has characters outside [A-Za-z0-9_.-]", workload, m.Name)
		}
	}
	for _, m := range want {
		w = append(w, m.Name+" "+m.Unit)
	}
	sort.Strings(g)
	sort.Strings(w)
	if len(g) != len(w) {
		t.Errorf("%s: emitted %v, BENCHMARK.json declares %v", workload, g, w)
		return
	}
	for i := range g {
		if g[i] != w[i] {
			t.Errorf("%s: emitted %v, BENCHMARK.json declares %v", workload, g, w)
			return
		}
	}
}
