// Package bench is appclassbench: an open-loop load generator and
// per-layer probe harness for appclassd. It builds the daemon from the
// tree, generates every input from one seed, replays four traffic mixes
// against a fresh daemon each, checks every reply against an in-process
// oracle, and reports end-to-end and per-layer metrics.
package bench

import (
	"fmt"
	"time"
)

// Workload is one traffic mix and the daemon configuration it runs
// against. Rates are for the whole workload; the generator splits them
// across its connections.
type Workload struct {
	Name string

	// Binary selects POST /v1/ingest.bin; false sends JSON values
	// arrays to POST /v1/ingest.
	Binary bool
	// VMs is the number of long-lived VMs, or of run slots with Churn.
	VMs int
	// Groups × Rows snapshots make one ingest request: Groups VMs, Rows
	// consecutive snapshots each.
	Groups, Rows int
	// Rate is ingest requests per second in the open-loop phases.
	Rate float64
	// QueryRate is GET /v1/runs requests per second (the operator's
	// dashboard, sent on the last connection with the finishes).
	QueryRate float64
	// Churn makes each slot a sequence of runs of RunMin..RunMax
	// snapshots, finished on the last connection after the run's last
	// batch is acked; the next run takes the slot under a new VM name.
	Churn          bool
	RunMin, RunMax int
	// Drain is how many live VMs are finished (timed) after the peak
	// phase; with Churn every live run is.
	Drain int
	// SeedSnapshots is the per-VM length of the crash journal the daemon
	// recovers at start (0 for none).
	SeedSnapshots int
	// PriorRuns is the number of records in the application database the
	// daemon opens at start (0 for an empty one), spread over PriorApps
	// applications.
	PriorRuns, PriorApps int
	// FsyncAlways selects -fsync always -fsync-group-commit; otherwise
	// the daemon's default fsync interval applies.
	FsyncAlways bool
}

// Workloads returns the four traffic mixes in run order. In the long-
// lived workloads each connection owns half the VMs and the ingest
// requests alternate between them. Churn sends every ingest request on
// one connection and every finish and query on the other (the
// operator's), so control requests never wait behind ingest on their
// own connection. Ingest rates keep the connections about a quarter
// busy in all on a 2-core machine, leaving headroom for a slow host
// before the queue, not the service, sets the latency.
//
// Every workload but durable-small starts over a 10,000-record store of
// 200 applications, so set-up time is mostly the store's index rebuild
// rather than process start.
func Workloads() []Workload {
	return []Workload{
		// The production shape: the classify kernel and the journal
		// append dominate.
		{
			Name:   "fleet-bin",
			Binary: true, VMs: 512, Groups: 16, Rows: 8, Rate: 450,
			Drain: 32, PriorRuns: 10000, PriorApps: 200,
		},
		// The same VMs over JSON: encoding/json decode takes most of the
		// handler time, so classify or journal gains show smaller here
		// and a change to the shared ingest core must not slow it.
		{
			Name:   "fleet-json",
			Binary: false, VMs: 512, Groups: 4, Rows: 8, Rate: 300,
			Drain: 32, PriorRuns: 10000, PriorApps: 200,
		},
		// fsync=always group commit with 8 snapshots per request over a
		// 128k-snapshot crash journal: per-request cost, the fsync wait
		// and recovery (set-up) dominate.
		{
			Name:   "durable-small",
			Binary: true, VMs: 64, Groups: 1, Rows: 8, Rate: 600,
			Drain: 32, SeedSnapshots: 2000, FsyncAlways: true,
		},
		// Short runs finishing at ~3/s beside /v1/runs reads: the appdb
		// append, the fingerprint dictionary read and match, and Scan
		// dominate.
		{
			Name:   "churn-query",
			Binary: true, VMs: 64, Groups: 1, Rows: 8, Rate: 225, QueryRate: 10,
			Churn: true, RunMin: 400, RunMax: 800, PriorRuns: 10000, PriorApps: 200,
		},
	}
}

// FindWorkload returns the named workload.
func FindWorkload(name string) (Workload, error) {
	for _, w := range Workloads() {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("unknown workload %q", name)
}

// Timeline is one run's phase lengths. The open loop runs Warmup then
// Window back to back; only the Window is recorded.
type Timeline struct {
	Warmup, Window, Peak time.Duration
}

// NewTimeline derives the phase lengths from the measured window.
func NewTimeline(window time.Duration) Timeline {
	warm := window / 6
	if warm < 250*time.Millisecond {
		warm = 250 * time.Millisecond
	}
	peak := window / 4
	if peak < 250*time.Millisecond {
		peak = 250 * time.Millisecond
	}
	return Timeline{Warmup: warm, Window: window, Peak: peak}
}

// scaled returns w with every rate, VM count and seeded-state size
// multiplied by f (the smoke test runs at 1/20 scale). A stopping daemon
// finalizes every live session against a dictionary that grows with
// each, so the VM count sets how long the stop takes.
func (w Workload) scaled(f float64) Workload {
	if f == 1 {
		return w
	}
	w.Rate *= f
	w.QueryRate *= f
	w.VMs = max(8, int(float64(w.VMs)*f))
	w.SeedSnapshots = int(float64(w.SeedSnapshots) * f)
	w.PriorRuns = int(float64(w.PriorRuns) * f)
	if w.PriorApps > 0 {
		w.PriorApps = max(1, int(float64(w.PriorApps)*f))
	}
	w.Drain = min(w.Drain, 8)
	return w
}
