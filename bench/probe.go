package bench

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/appclass"
	"repro/internal/appdb"
	"repro/internal/appstore"
	"repro/internal/classify"
	"repro/internal/metrics"
	"repro/internal/phase"
	"repro/internal/wal"
	"repro/internal/wire"
)

// span is one timed call, kept in memory until the run ends.
type span struct {
	name   string
	start  time.Duration // since the trace's epoch
	dur    time.Duration
	req    int64 // request id shared by a parent and its probes
	parent string
}

// spanLog collects spans and per-name totals.
type spanLog struct {
	epoch time.Time
	spans []span
	total map[string]time.Duration
	calls map[string]int64
}

func newSpanLog() *spanLog {
	l := &spanLog{}
	l.reset()
	return l
}

// reset drops every span and total recorded so far.
func (l *spanLog) reset() {
	l.epoch, l.spans = time.Now(), nil
	l.total, l.calls = make(map[string]time.Duration), make(map[string]int64)
}

func (l *spanLog) add(name string, start time.Time, dur time.Duration, req int64, parent string) {
	l.spans = append(l.spans, span{name: name, start: start.Sub(l.epoch), dur: dur, req: req, parent: parent})
	l.total[name] += dur
	l.calls[name]++
}

// timed runs f as a probe span under the current request.
func (l *spanLog) timed(name string, req int64, parent string, f func() error) error {
	t := time.Now()
	err := f()
	l.add(name, t, time.Since(t), req, parent)
	return err
}

// writeChrome writes the spans as Chrome trace-event JSON ("X" complete
// events, microsecond times): the daemon's handler calls on thread 1,
// the shadow pipeline's probe calls on thread 2, linked by args.req.
func (l *spanLog) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	evs := make([]event, 0, len(l.spans))
	for _, s := range l.spans {
		tid := 1
		args := map[string]any{"req": s.req}
		if s.parent != "" {
			tid = 2
			args["parent"] = s.parent
		}
		layer, _, _ := strings.Cut(s.name, ".")
		evs = append(evs, event{Name: s.name, Cat: layer, Ph: "X",
			Ts: float64(s.start) / 1e3, Dur: float64(s.dur) / 1e3, Pid: 1, Tid: tid, Args: args})
	}
	b, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// handlerTransport serves requests by calling the daemon's handler
// directly, timing each call as the parent span of its request.
type handlerTransport struct {
	h     http.Handler
	log   *spanLog
	req   int64  // id of the last request served
	name  string // span name of the last request served
	start time.Time
}

func (t *handlerTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	t.req++
	t.name = ""
	switch p := r.URL.Path; {
	case strings.HasPrefix(p, "/v1/ingest"):
		t.name = "server.handle"
	case strings.HasSuffix(p, "/finish"):
		t.name = "server.finish"
	case p == "/v1/runs":
		t.name = "server.runs_query"
	}
	t.start = time.Now()
	t.h.ServeHTTP(rec, r)
	if t.name != "" {
		t.log.add(t.name, t.start, time.Since(t.start), t.req, "")
	}
	return rec.Result(), nil
}

// shadow is the trace's second pipeline: the same inputs replayed
// through each layer's public calls — its own journal under the same
// fsync policy, its own classify.Online per VM armed like the daemon's,
// and its own copy of the store — each call a probe span under the
// request that carried the input.
type shadow struct {
	in    *Inputs
	p     *plan
	tr    *handlerTransport
	log   *spanLog
	j     *wal.Journal
	db    *appdb.DB
	model string
	onl   map[int]*classify.Online

	scratch classify.Scratch
	frame   []byte
	rows    [][]float64
	snaps   []metrics.Snapshot
	groups  []wire.Group
	snapsN  int64
	err     error
}

// session returns VM vi's shadow Online, creating it on first use.
func (sh *shadow) session(vi int) (*classify.Online, error) {
	if o, ok := sh.onl[vi]; ok {
		return o, nil
	}
	o, err := sh.in.reference()
	if err != nil {
		return nil, err
	}
	sh.onl[vi] = o
	return o, nil
}

// ingested replays one acknowledged ingest request: wire decode of the
// batch's binary encoding, journal append, durability wait, online
// classification, and the bare classify kernel.
func (sh *shadow) ingested(gs []group, starts []int) {
	req, parent := sh.tr.req, sh.tr.name
	sh.groups = sh.groups[:0]
	for i, g := range gs {
		v := sh.p.vms[g.vm]
		wg := wire.Group{VM: v.name}
		for k := starts[i]; k < starts[i]+int(g.n); k++ {
			wg.Times = append(wg.Times, timeOf(k))
			wg.Rows = append(wg.Rows, v.trace.Rows[v.row(k)])
		}
		sh.groups = append(sh.groups, wg)
	}
	cols := sh.in.Schema.Len()
	frame, start := wire.BeginFrame(sh.frame[:0])
	frame, err := wire.AppendBatch(frame, 1, cols, sh.groups)
	if err != nil {
		sh.fail(err)
		return
	}
	sh.frame = wire.EndFrame(frame, start)

	type decoded struct{ start, end int }
	var spans []decoded
	sh.fail(sh.log.timed("wire.decode", req, parent, func() error {
		sh.snaps = sh.snaps[:0]
		payload, _, err := wire.NextFrame(sh.frame)
		if err != nil {
			return err
		}
		bv, err := wire.ParseBatchHeader(payload, cols)
		if err != nil {
			return err
		}
		n := 0
		for g := 0; g < bv.Groups(); g++ {
			gv, err := bv.Next()
			if err != nil {
				return err
			}
			s := len(sh.snaps)
			for r := 0; r < gv.Rows; r++ {
				for len(sh.rows) <= n {
					sh.rows = append(sh.rows, make([]float64, cols))
				}
				row := sh.rows[n]
				n++
				for c := 0; c < cols; c++ {
					row[c] = gv.Value(c, r)
				}
				// The daemon interns VM names per stream; the plan's name
				// stands in for that lookup.
				sh.snaps = append(sh.snaps, metrics.Snapshot{
					Time: time.Duration(gv.TimeSeconds(r) * float64(time.Second)), Node: sh.p.vms[gs[g].vm].name, Values: row,
				})
			}
			spans = append(spans, decoded{s, len(sh.snaps)})
		}
		return nil
	}))
	var token int64
	sh.fail(sh.log.timed("wal.append", req, parent, func() error {
		for i, d := range spans {
			_, t, err := sh.j.AppendBatchDeferred(sh.p.vms[gs[i].vm].name, sh.snaps[d.start:d.end])
			if err != nil {
				return err
			}
			token = max(token, t)
		}
		return nil
	}))
	sh.fail(sh.log.timed("wal.wait_durable", req, parent, func() error { return sh.j.WaitDurable(token) }))
	sh.fail(sh.log.timed("classify.observe", req, parent, func() error {
		for i, d := range spans {
			o, err := sh.session(int(gs[i].vm))
			if err != nil {
				return err
			}
			if _, err := o.ObserveBatch(sh.snaps[d.start:d.end], nil); err != nil {
				return err
			}
		}
		return nil
	}))
	sh.fail(sh.log.timed("classify.kernel", req, parent, func() error {
		for i := range sh.snaps {
			if _, err := sh.in.Classifier.ClassifySnapshotScratch(sh.in.subset, sh.snaps[i].Values, &sh.scratch); err != nil {
				return err
			}
		}
		return nil
	}))
	sh.snapsN += int64(len(sh.snaps))
}

// finished replays one finish the way the daemon finalizes: the
// fingerprint dictionary read, the phase fingerprint and best match,
// and the record append. The daemon's reply must agree with the shadow
// Online, which saw the same snapshots.
func (sh *shadow) finished(vi int, rep finishReply) {
	req, parent := sh.tr.req, sh.tr.name
	o, err := sh.session(vi)
	if err != nil {
		sh.fail(err)
		return
	}
	delete(sh.onl, vi)
	view := o.Snapshot()
	if rep.Samples != view.Total || rep.Class != string(view.Class) || rep.Verdict != string(view.Verdict) || rep.Phases != len(view.Phases) {
		sh.fail(mismatch("finish %s: daemon samples %d class %q verdict %q phases %d, shadow Online %d %q %q %d",
			rep.VM, rep.Samples, rep.Class, rep.Verdict, rep.Phases, view.Total, view.Class, view.Verdict, len(view.Phases)))
	}
	var dict map[string]phase.Fingerprint
	sh.log.timed("appdb.fingerprints", req, parent, func() error { dict = sh.db.Fingerprints(); return nil })
	if view.Total == 0 {
		return
	}
	rec := appdb.Record{
		App: rep.VM, Class: view.Class, Composition: view.Composition, ExecutionTime: max(view.LastAt-view.FirstAt, 0),
		Samples: view.Total, Phases: view.Phases, UnknownFraction: view.UnknownFraction, Verdict: view.Verdict, ModelID: sh.model,
	}
	rec.TrainMetrics, rec.TrainSamples = o.TrainSamples()
	sh.log.timed("phase.match", req, parent, func() error {
		if fp := phase.NewFingerprint(view.Phases); !fp.Empty() {
			rec.Fingerprint = &fp
			if m, ok := phase.BestMatch(fp, dict); ok && m.Score >= phase.DefaultMatchThreshold {
				rec.MatchedApp, rec.MatchScore = m.App, m.Score
			}
		}
		return nil
	})
	rec.FinalizedAt = time.Now().UnixNano()
	sh.fail(sh.log.timed("appdb.put", req, parent, func() error { return sh.db.Put(rec) }))
}

// queried replays one /v1/runs request as a store Scan with the same
// filter, cursor and page size.
func (sh *shadow) queried(q url.Values) {
	req, parent := sh.tr.req, sh.tr.name
	f := appdb.Filter{App: q.Get("app"), Class: appclass.Class(q.Get("class")), Verdict: appclass.Class(q.Get("verdict"))}
	cursor, _ := strconv.ParseUint(q.Get("cursor"), 10, 64)
	sh.fail(sh.log.timed("appdb.scan", req, parent, func() error {
		_, _, err := sh.db.Scan(f, cursor, queryLimit)
		return err
	}))
}

func (sh *shadow) fail(err error) {
	if err != nil && sh.err == nil {
		sh.err = err
	}
}

// RunTrace replays w's request sequence in process, on one goroutine at
// the workload's rate: every request goes through the daemon's handler
// (server.New with the configuration the daemon's flags produce) as a
// parent span, then through the shadow pipeline's per-layer calls as
// probe spans. It writes the spans to a Chrome trace file and returns
// the per-layer metrics.
func RunTrace(ctx context.Context, w Workload, in *Inputs, opt Options) (*Result, error) {
	w = w.scaled(opt.Scale)
	tl := NewTimeline(opt.Window)
	p := buildPlan(w, in, in.Seed, tl.Warmup+tl.Window, connCount())
	base, seed, err := prepare(w, in, p, opt)
	if base != "" {
		defer os.RemoveAll(base)
	}
	if err != nil {
		return nil, err
	}
	live := stateDirs{Journal: filepath.Join(base, "live", "journal"), DB: filepath.Join(base, "live", "db")}
	sdir := stateDirs{Journal: filepath.Join(base, "shadow", "journal"), DB: filepath.Join(base, "shadow", "db")}
	for _, pair := range [][2]string{{seed.Journal, live.Journal}, {seed.DB, live.DB}, {seed.DB, sdir.DB}} {
		if err := copyTree(pair[0], pair[1]); err != nil {
			return nil, err
		}
	}
	res := &Result{Workload: w.Name, Seed: in.Seed, Trace: true}
	log := newSpanLog()

	// Start-up probes over the seeded state.
	t := time.Now()
	var replayed int
	if _, err := wal.Replay(seed.Journal, wal.Position{}, func(wal.Position, wal.Record) error { replayed++; return nil }); err != nil {
		return nil, err
	}
	replayMS := ms(time.Since(t))
	t = time.Now()
	sdb, err := appdb.Open(sdir.DB, appstore.Options{})
	if err != nil {
		return nil, err
	}
	defer sdb.Close()
	openMS := ms(time.Since(t))
	l, err := w.serverFor(in, live)
	if err != nil {
		return nil, err
	}
	t = time.Now()
	if err := l.start(); err != nil {
		l.close()
		return nil, err
	}
	recoverMS := ms(time.Since(t))
	// The live server is never shut down: its graceful flush finalizes
	// every live session against a fingerprint dictionary that grows with
	// each one, which takes minutes at fleet scale and measures nothing
	// here. Its goroutines and files end with the process.
	policy := wal.FsyncInterval
	if w.FsyncAlways {
		policy = wal.FsyncAlways
	}
	sj, err := wal.Open(wal.Config{Dir: sdir.Journal, Fsync: policy, FsyncEvery: time.Second, GroupCommit: w.FsyncAlways})
	if err != nil {
		return nil, err
	}
	defer sj.Close()

	tr := &handlerTransport{h: l.srv.Handler(), log: log}
	o := newOracle()
	sh := &shadow{in: in, p: p, tr: tr, log: log, j: sj, db: sdb, model: l.srv.ActiveModelID(), onl: make(map[int]*classify.Online)}
	if w.SeedSnapshots > 0 {
		// The shadow sessions start where the recovered daemon's do.
		for vi, v := range p.vms {
			on, err := sh.session(vi)
			if err != nil {
				return nil, err
			}
			for k := 0; k < w.SeedSnapshots; k++ {
				snap := metrics.Snapshot{Time: time.Duration(timeOf(k) * float64(time.Second)), Values: v.trace.Rows[v.row(k)]}
				if _, err := on.Observe(snap); err != nil {
					return nil, err
				}
			}
		}
	}
	hc := &http.Client{Transport: tr}
	conns := make([]*conn, len(p.conns))
	for c := range conns {
		conns[c] = newConn("http://appclassd.invalid", hc, p, o, in)
		conns[c].sh = sh
		if err := conns[c].handshake(ctx); err != nil {
			return nil, err
		}
	}
	if w.SeedSnapshots > 0 {
		checkRecovered(ctx, conns[0], p, w.SeedSnapshots, res)
	}
	before, err := conns[0].get(ctx, "/metricsz")
	if err != nil {
		return nil, err
	}
	log.reset() // the handshakes and checks above are not part of the replay
	if p.ingestDone != nil {
		// The replay is sequential: by a finish's turn every batch due
		// before it has been sent, so a finish never waits.
		close(p.ingestDone)
	}

	// One goroutine replays every connection's events in due order.
	type ref struct{ c, i int }
	var order []ref
	for c := range p.conns {
		for i := range p.conns[c].events() {
			order = append(order, ref{c, i})
		}
	}
	sort.SliceStable(order, func(a, b int) bool {
		return p.conns[order[a].c].items[order[a].i].Due < p.conns[order[b].c].items[order[b].i].Due
	})
	var late Recorder
	start := time.Now()
	stop := start.Add(tl.Warmup + tl.Window + maxBehind)
	var ingestReqs int64
	for _, r := range order {
		it := &p.conns[r.c].items[r.i]
		due := start.Add(it.Due)
		if time.Now().Before(due) {
			if !sleepUntil(ctx, due) {
				break
			}
			late.Add(time.Since(due))
		} else if time.Now().After(stop) {
			break
		}
		res.Attempted++
		var err error
		switch it.Kind {
		case KindIngest:
			_, err = conns[r.c].ingest(ctx, it.groups)
			ingestReqs++
		case KindFinish:
			err = conns[r.c].finishAfterLastBatch(ctx, int(it.target))
		default:
			err = conns[r.c].query(ctx, int(it.target))
		}
		if err != nil {
			res.fail("%v", err)
		}
	}
	after, err := conns[0].get(ctx, "/metricsz")
	if err != nil {
		return nil, err
	}
	queryTotal, queries := log.total["server.runs_query"], log.calls["server.runs_query"]
	var ckpt []float64
	for i := 0; i < 3; i++ {
		t := time.Now()
		if err := l.srv.Checkpoint(); err != nil {
			return nil, err
		}
		ckpt = append(ckpt, ms(time.Since(t)))
	}
	p.livePeak()
	_, drainSent := drainRuns(ctx, conns[len(conns)-1], p, res)
	res.Attempted += drainSent
	final, err := conns[0].get(ctx, "/metricsz")
	if err != nil {
		return nil, err
	}
	if sh.err != nil {
		res.fail("shadow pipeline: %v", sh.err)
	}
	res.Correct = res.Failed == 0

	mb, ma, mf := parseMetricsz(before), parseMetricsz(after), parseMetricsz(final)
	delta := func(m map[string]float64, name string) float64 { return m[name] - mb[name] }
	per := func(name string, n int64) float64 {
		if n == 0 {
			return 0
		}
		return float64(log.total[name]) / float64(n)
	}
	probeSum := log.total["wal.append"] + log.total["wal.wait_durable"] + log.total["classify.observe"]
	if w.Binary {
		probeSum += log.total["wire.decode"]
	}
	res.add("wire.decode_us_per_req", per("wire.decode", ingestReqs)/1e3, "us")
	res.add("server.handle_us_per_req", per("server.handle", ingestReqs)/1e3, "us")
	res.add("server.other_us_per_req", (float64(log.total["server.handle"])-float64(probeSum))/float64(max(ingestReqs, 1))/1e3, "us")
	res.add("server.checkpoint_ms", median(ckpt), "ms")
	res.add("server.recover_ms", recoverMS, "ms")
	res.add("server.finish_us", per("server.finish", log.calls["server.finish"])/1e3, "us")
	res.add("server.runs_query_us", float64(queryTotal)/float64(max(queries, 1))/1e3, "us")
	res.add("wal.append_us_per_req", per("wal.append", ingestReqs)/1e3, "us")
	res.add("wal.wait_durable_us_per_req", per("wal.wait_durable", ingestReqs)/1e3, "us")
	res.add("wal.replay_ms", replayMS, "ms")
	res.add("classify.observe_us_per_snap", per("classify.observe", sh.snapsN)/1e3, "us")
	res.add("classify.kernel_ns_per_snap", per("classify.kernel", sh.snapsN), "ns")
	res.add("phase.match_us_per_finish", per("phase.match", log.calls["phase.match"])/1e3, "us")
	res.add("appdb.fingerprints_ms_per_finish", per("appdb.fingerprints", log.calls["appdb.fingerprints"])/1e6, "ms")
	res.add("appdb.put_us", per("appdb.put", log.calls["appdb.put"])/1e3, "us")
	res.add("appdb.scan_us", per("appdb.scan", log.calls["appdb.scan"])/1e3, "us")
	res.add("appdb.open_ms", openMS, "ms")
	res.add("wal.records_per_req", delta(ma, "appclassd_journal_records_total")/float64(max(ingestReqs, 1)), "ratio")
	res.add("appdb.finalize_append_us", ratio(delta(mf, "appclassd_finalize_append_seconds_total")*1e6, delta(mf, "appclassd_finalize_appends_total")), "us")
	res.add("classify.unknown_frac", ratio(delta(ma, "appclassd_unknown_snapshots_total"), delta(ma, "appclassd_snapshots_ingested_total")), "ratio")
	res.add("gen.late_p99_ms", ms(late.Quantile(0.99)), "ms")

	res.info("trace_requests", float64(res.Attempted), "count")
	res.info("trace_spans", float64(len(log.spans)), "count")
	res.info("trace_seed_journal_records", float64(replayed), "count")
	file := filepath.Join(opt.TraceDir, w.Name+".json")
	if err := log.writeChrome(file); err != nil {
		return nil, err
	}
	opt.logf("%s: trace written to %s", w.Name, file)
	return res, nil
}

func ratio(a, b float64) float64 {
	if b == 0 || math.IsNaN(a) {
		return 0
	}
	return a / b
}
