package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"
)

// Options configure one run.
type Options struct {
	// Work is the disk-backed directory run state is created under.
	Work string
	// Daemon is the appclassd binary to exec; empty runs the server in
	// process (the smoke test).
	Daemon string
	// Window is the measured open-loop window.
	Window time.Duration
	// Scale multiplies every rate and seeded-state size (1 = as
	// specified).
	Scale float64
	// Setups is how many times the daemon is set up; setup_s is their
	// median and the last one carries the load.
	Setups int
	// TraceDir receives the Chrome trace files of traced runs.
	TraceDir string
	// Log receives progress and warnings.
	Log io.Writer
	// Wrap, when set, wraps the in-process server's handler: tests
	// inject faults with it.
	Wrap func(http.Handler) http.Handler
}

func (o Options) logf(format string, args ...any) {
	if o.Log != nil {
		fmt.Fprintf(o.Log, format+"\n", args...)
	}
}

// connCount is the number of sender connections: two (one per core of
// the reference machine), never more than the machine has CPUs.
func connCount() int {
	if n := runtime.NumCPU(); n < 2 {
		return n
	}
	return 2
}

// prepare creates the run's state directory with its seeded journal and
// store, returning the directory and the seeded state.
func prepare(w Workload, in *Inputs, p *plan, opt Options) (string, stateDirs, error) {
	if err := os.MkdirAll(opt.Work, 0o755); err != nil {
		return "", stateDirs{}, err
	}
	if err := requireDisk(opt.Work); err != nil {
		return "", stateDirs{}, err
	}
	base, err := os.MkdirTemp(opt.Work, w.Name+"-")
	if err != nil {
		return "", stateDirs{}, err
	}
	seed := stateDirs{Journal: filepath.Join(base, "seed", "journal"), DB: filepath.Join(base, "seed", "db")}
	for _, d := range []string{seed.Journal, seed.DB} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return base, seed, err
		}
	}
	if w.SeedSnapshots > 0 {
		if err := p.seedJournal(in, seed.Journal); err != nil {
			return base, seed, fmt.Errorf("seed journal: %w", err)
		}
	}
	if w.PriorRuns > 0 {
		if err := p.seedStore(in, in.Seed, seed.DB); err != nil {
			return base, seed, fmt.Errorf("seed store: %w", err)
		}
	}
	return base, seed, syncTree(filepath.Join(base, "seed"))
}

// setUp starts opt.Setups fresh instances over copies of the seeded
// state, timing each from exec to the first /readyz 200, and returns
// the last one running with the median setup time.
func setUp(w Workload, in *Inputs, base string, seed stateDirs, opt Options) (target, float64, error) {
	var times []float64
	for i := 0; ; i++ {
		dir := filepath.Join(base, fmt.Sprintf("run%d", i))
		st := stateDirs{Journal: filepath.Join(dir, "journal"), DB: filepath.Join(dir, "db")}
		if err := copyTree(filepath.Join(base, "seed"), dir); err != nil {
			return nil, 0, err
		}
		last := i+1 >= opt.Setups
		if last {
			// The loaded daemon's state goes to disk first; the earlier
			// copies are deleted before their writeback is due.
			if err := syncTree(dir); err != nil {
				return nil, 0, err
			}
		}
		var t target
		var d time.Duration
		var err error
		if opt.Daemon != "" {
			t, d, err = startDaemon(opt.Daemon, w.daemonArgs(in.ModelPath, st))
		} else {
			t, d, err = startInProcess(in, w, st, opt.Wrap)
		}
		if err != nil {
			return nil, 0, err
		}
		times = append(times, d.Seconds())
		if last {
			return t, median(times), nil
		}
		if err := t.Kill(); err != nil {
			return nil, 0, err
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, 0, err
		}
	}
}

// RunE2E runs workload w against a fresh daemon: set-up, the open-loop
// warm-up and window, the closed-loop peak, the drain, SIGTERM, and the
// oracle's after-the-fact checks. The returned result carries every
// end-to-end metric.
func RunE2E(ctx context.Context, w Workload, in *Inputs, opt Options) (*Result, error) {
	w = w.scaled(opt.Scale)
	tl := NewTimeline(opt.Window)
	gen, err := NewGenerator(connCount())
	if err != nil {
		return nil, err
	}
	p := buildPlan(w, in, in.Seed, tl.Warmup+tl.Window, gen.Conns())
	base, seed, err := prepare(w, in, p, opt)
	if base != "" {
		defer os.RemoveAll(base)
	}
	if err != nil {
		return nil, err
	}
	sp := startSpeedProbe()
	defer sp.Stop()
	t0 := time.Now()
	tgt, setup, err := setUp(w, in, base, seed, opt)
	if err != nil {
		return nil, err
	}
	setupSlow := sp.slowdown(t0, time.Now())
	res := &Result{Workload: w.Name, Seed: in.Seed, SetupSpeedFactor: setupSlow}
	res.addScaled("setup_s", setup, setupSlow, "s")
	o := newOracle()
	err = drive(ctx, w, in, p, gen, tgt, tl, o, sp, res)
	if serr := tgt.Stop(); serr != nil {
		res.fail("stop: %v", serr)
	}
	if err != nil {
		return nil, err
	}
	if w.Churn {
		// Replayed after the daemon stops so the reference Online does not
		// compete with it for the CPUs.
		for _, msg := range o.replayFinished(in, p) {
			res.fail("%s", msg)
		}
	}
	res.info("fail_frac", ratio(float64(res.Failed), float64(res.Attempted)), "ratio")
	res.Correct = res.Failed == 0
	return res, nil
}

// drive sends the whole load to a ready target and fills res. Every time
// it reports is divided (every rate multiplied) by the machine's
// slowdown over the open loop, which it also reports as speed_factor.
func drive(ctx context.Context, w Workload, in *Inputs, p *plan, gen *Generator, tgt target, tl Timeline, o *oracle, sp *speedProbe, res *Result) error {
	conns := make([]*conn, gen.Conns())
	for c := range conns {
		conns[c] = newConn(tgt.URL(), newHTTPClient(), p, o, in)
		defer conns[c].close()
		if err := conns[c].handshake(ctx); err != nil {
			return fmt.Errorf("handshake: %w", err)
		}
	}
	if w.SeedSnapshots > 0 {
		checkRecovered(ctx, conns[0], p, w.SeedSnapshots, res)
	}
	before, err := conns[0].get(ctx, "/metricsz")
	if err != nil {
		return err
	}

	// Open loop: warm-up then the recorded window, with the target's CPU
	// time read at the window's edges.
	windowSnaps := make([]int64, len(conns))
	scheds := make([]Schedule, len(conns))
	for c := range conns {
		c := c
		cp := &p.conns[c]
		scheds[c] = Schedule{Events: cp.events(), Send: func(ctx context.Context, i int) error {
			it := &cp.items[i]
			switch it.Kind {
			case KindIngest:
				n, err := conns[c].ingest(ctx, it.groups)
				if it.Due >= tl.Warmup {
					windowSnaps[c] += int64(n)
				}
				return err
			case KindFinish:
				return conns[c].finishAfterLastBatch(ctx, int(it.target))
			default:
				return conns[c].query(ctx, int(it.target))
			}
		}}
	}
	if p.ingestDone != nil {
		// Churn ingest rides connection 0 alone.
		scheds[0].Done = func() { close(p.ingestDone) }
	}
	start := time.Now().Add(20 * time.Millisecond)
	var open *LoopStats
	win := sampled(ctx, tgt, start.Add(tl.Warmup), start.Add(tl.Warmup+tl.Window), func() {
		open = gen.OpenLoop(ctx, start, tl.Warmup, scheds)
	})
	if win.err != nil {
		return win.err
	}
	slow := sp.slowdown(start, start.Add(tl.Warmup+tl.Window))

	// Closed-loop peak over the VMs still live, with the target's
	// resident set sampled throughout; then the drain.
	p.livePeak()
	peakSend := make([]func(context.Context) (int, error), len(conns))
	for c := range conns {
		c, rot := c, 0
		vms := p.peak[c]
		peakSend[c] = func(ctx context.Context) (int, error) {
			if len(vms) == 0 {
				time.Sleep(time.Millisecond)
				return 0, nil
			}
			gs := make([]group, 0, w.Groups)
			for g := 0; g < w.Groups && g < len(vms); g++ {
				gs = append(gs, group{vm: int32(vms[(rot+g)%len(vms)]), n: int32(w.Rows)})
			}
			rot = (rot + w.Groups) % len(vms)
			return conns[c].ingest(ctx, gs)
		}
	}
	var peak *PeakStats
	now := time.Now()
	busy := sampled(ctx, tgt, now, now.Add(tl.Peak), func() {
		peak = gen.ClosedLoop(ctx, tl.Peak, peakSend)
	})
	if busy.err != nil {
		return busy.err
	}
	drainLat, drainSent := drainRuns(ctx, conns[len(conns)-1], p, res)

	after, err := conns[0].get(ctx, "/metricsz")
	if err != nil {
		return err
	}
	mb, ma := parseMetricsz(before), parseMetricsz(after)
	for _, name := range []string{"appclassd_ingest_shed_total", "appclassd_ingest_errors_total"} {
		res.info(name, ma[name]-mb[name], "count")
	}

	res.Attempted += open.Sent[KindIngest] + open.Sent[KindFinish] + open.Sent[KindQuery] + open.Abandoned +
		peak.Sent[KindIngest] + drainSent
	res.Failed += open.Failed + open.Abandoned + peak.Failed
	for _, e := range append(open.Errors, peak.Errors...) {
		if len(res.Errors) < 16 {
			res.Errors = append(res.Errors, e)
		}
	}

	ack := &open.Latency[KindIngest]
	var snaps int64
	for _, n := range windowSnaps {
		snaps += n
	}
	finish := &open.Latency[KindFinish]
	if !w.Churn {
		finish = drainLat
	}
	query := &open.Latency[KindQuery]
	lat := func(r *Recorder, p float64) float64 { return ms(r.Quantile(p)) / slow }
	res.SpeedFactor = slow
	res.addScaled("ack_p50_ms", ms(ack.Quantile(0.5)), slow, "ms")
	res.addScaled("cpu_us_per_snap", win.cpu.Seconds()*1e6/float64(max(snaps, 1)), slow, "us")
	res.add("rss_mb", median(busy.rssKB)/1024, "MiB")

	// Printed for the reader, not gated: their run-to-run spread exceeds
	// any bound the benchmark could set (README.md has the measurements).
	res.info("speed_factor", slow, "x")
	res.info("setup_speed_factor", res.SetupSpeedFactor, "x")
	// The kernel's thread CPU clock does not count stolen time, which
	// delays every wakeup on the request path instead.
	res.info("steal_pct", 100*win.steal, "%")
	res.info("peak_snaps_s", peak.SliceMedian()*slow, "snaps/s")
	// Each request kind's sample count, the percentiles ps, and the
	// highest percentile with at least ten samples beyond it, if higher.
	kinds := func(name string, r *Recorder, ps ...float64) {
		if r.Len() == 0 {
			return
		}
		res.info(name+"_samples", float64(r.Len()), "count")
		for _, p := range ps {
			res.info(name+"_"+percentileName(p)+"_ms", lat(r, p), "ms")
		}
		if p, _, ok := r.Tail(); ok && p > ps[len(ps)-1] {
			res.info(name+"_"+percentileName(p)+"_ms", lat(r, p), "ms")
		}
	}
	kinds("ack", ack, 0.9, 0.99) // the median is gated, above
	kinds("finish", finish, 0.5, 0.95, 0.99)
	kinds("query", query, 0.5, 0.99)
	res.info("window_snaps", float64(snaps), "count")
	res.info("gen_late_p99_ms", ms(open.Late.Quantile(0.99)), "ms")
	if late := open.Late.Quantile(0.99); late > 5*time.Millisecond {
		res.Errors = append(res.Errors, fmt.Sprintf("warning: generator p99 lateness %v exceeds 5ms; the run measured the generator too", late))
	}
	return nil
}

// procSample is what the target's /proc files showed over a phase.
type procSample struct {
	cpu   time.Duration // CPU time the target used
	rssKB []float64     // its resident set, every rssPeriod
	steal float64       // share of the machine's CPU time the hypervisor took
	err   error
}

// rssPeriod is the resident-set sampling cadence. rss_mb is the median
// over the peak phase, the daemon's working memory at full load: a
// single reading, or the high-water mark, lands wherever the garbage
// collector's sawtooth happens to be, and in the lightly loaded window
// the runtime returns set-up garbage to the kernel in some runs and
// not in others.
const rssPeriod = 100 * time.Millisecond

// sampled runs phase while a second goroutine reads the target's CPU
// time at from and to and its resident set every rssPeriod in between.
func sampled(ctx context.Context, tgt target, from, to time.Time, phase func()) procSample {
	var ps procSample
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		ps = sampleProc(ctx, tgt, from, to)
	}()
	phase()
	wg.Wait()
	return ps
}

func sampleProc(ctx context.Context, tgt target, from, to time.Time) procSample {
	var ps procSample
	if !sleepUntil(ctx, from) {
		ps.err = ctx.Err()
		return ps
	}
	c0, err := tgt.CPU()
	if err != nil {
		ps.err = err
		return ps
	}
	s0, t0, err := procSteal()
	if err != nil {
		ps.err = err
		return ps
	}
	for t := from.Add(rssPeriod); t.Before(to); t = t.Add(rssPeriod) {
		if !sleepUntil(ctx, t) {
			ps.err = ctx.Err()
			return ps
		}
		kb, err := tgt.RSSKB()
		if err != nil {
			ps.err = err
			return ps
		}
		ps.rssKB = append(ps.rssKB, float64(kb))
	}
	if !sleepUntil(ctx, to) {
		ps.err = ctx.Err()
		return ps
	}
	c1, err := tgt.CPU()
	if err != nil {
		ps.err = err
		return ps
	}
	s1, t1, err := procSteal()
	ps.cpu, ps.steal, ps.err = c1-c0, ratio(s1-s0, t1-t0), err
	return ps
}

// checkRecovered asks the freshly recovered daemon for every VM's
// snapshot count, which must equal the seeded journal's.
func checkRecovered(ctx context.Context, c *conn, p *plan, want int, res *Result) {
	for _, v := range p.vms {
		res.Attempted++
		raw, err := c.get(ctx, "/v1/vms/"+url.PathEscape(v.name))
		if err != nil {
			res.fail("recovered %s: %v", v.name, err)
			continue
		}
		var got struct {
			Snapshots int `json:"snapshots"`
		}
		if err := json.Unmarshal(raw, &got); err != nil || got.Snapshots != want {
			res.fail("%v", mismatch("recovered %s has %d snapshots, journal holds %d", v.name, got.Snapshots, want))
		}
	}
}

// drainRuns finishes the plan's drain set back to back on the control
// connection, the operator ending runs one after another, timing every
// finish; then it fetches every finished run's stored record not yet
// verified. Failures are counted into res; it returns the finish
// latencies and how many requests it sent.
func drainRuns(ctx context.Context, ctl *conn, p *plan, res *Result) (*Recorder, int64) {
	lat := &Recorder{}
	var sent int64
	check := func(err error) {
		sent++
		if err != nil {
			res.fail("%v", err)
		}
	}
	for _, vi := range p.drainSet() {
		t := time.Now()
		err := ctl.finish(ctx, vi)
		if err == nil {
			lat.Add(time.Since(t))
		}
		check(err)
	}
	for {
		e, ok := ctl.o.nextPending()
		if !ok {
			break
		}
		check(ctl.verifyStored(ctx, e))
	}
	return lat, sent
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
