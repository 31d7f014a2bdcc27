package bench

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"time"

	"repro/internal/appclass"
	"repro/internal/appdb"
	"repro/internal/appstore"
	"repro/internal/metrics"
	"repro/internal/phase"
	"repro/internal/server"
	"repro/internal/wal"
)

// Kind is what a scheduled request does.
type Kind uint8

const (
	KindIngest Kind = iota
	KindFinish
	KindQuery
	numKinds
)

// Event is one scheduled request: due is its send time measured from the
// start of the open loop.
type Event struct {
	Due  time.Duration
	Kind Kind
}

// group is one VM's slice of an ingest request: its next n snapshots.
type group struct {
	vm int32
	n  int32
}

// plan is a workload's whole generated request sequence: the VMs, and
// per connection the open-loop events in due order with each event's
// payload (ingest groups, the VM to finish, the query's rotation index).
type plan struct {
	w     Workload
	vms   []*vm
	conns []connPlan
	// peak lists, per connection, the VMs it owns: it alone sends their
	// snapshots, in the open loop of the long-lived workloads and in the
	// closed-loop peak of every workload.
	peak [][]int
	// ingestDone, with churn, closes when the connection carrying churn
	// ingest has stopped sending, every batch sent or the rest abandoned:
	// a finish still waiting for its run's last batch then fails.
	ingestDone chan struct{}
}

type connPlan struct {
	items []item
}

// item is one scheduled request with its payload: the ingest groups, the
// VM to finish, or the query's rotation index.
type item struct {
	Event
	groups []group
	target int32
}

// finishSlack is how long after a run's last batch is due its finish is
// due: enough for the batch's ack on an unloaded connection.
const finishSlack = 20 * time.Millisecond

func seedFor(seed int64, name string) int64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return seed ^ int64(h.Sum64())
}

// buildPlan generates w's request sequence for an open loop of length
// span over conns connections. The same seed gives the same VMs, rows,
// and schedule.
func buildPlan(w Workload, in *Inputs, seed int64, span time.Duration, conns int) *plan {
	p := &plan{w: w, conns: make([]connPlan, conns), peak: make([][]int, conns)}
	rng := rand.New(rand.NewSource(seedFor(seed, w.Name)))
	ctl := conns - 1 // the connection carrying finishes and queries
	if w.Churn {
		p.buildChurn(in, seed, span, ctl)
	} else {
		// Every trace gets the same share of VMs, so the seed changes which
		// VM replays what from where but not the application mix.
		apps := rng.Perm(len(in.Traces))
		for i := 0; i < w.VMs; i++ {
			tr := in.Traces[apps[i%len(apps)]]
			p.vms = append(p.vms, &vm{name: fmt.Sprintf("vm-%03d", i), trace: tr, start: rng.Intn(len(tr.Rows))})
			p.peak[i%conns] = append(p.peak[i%conns], i)
		}
		// The requests alternate between the connections, each cycling
		// through its own VMs, so two requests can be in flight at once
		// (and their journal appends share an fsync under group commit).
		period := time.Duration(float64(time.Second) / w.Rate)
		rot := make([]int, conns)
		for j := 0; ; j++ {
			due := time.Duration(j) * period
			if due >= span {
				break
			}
			c := j % conns
			own := p.peak[c]
			gs := make([]group, 0, w.Groups)
			for g := 0; g < w.Groups && g < len(own); g++ {
				gs = append(gs, group{vm: int32(own[(rot[c]+g)%len(own)]), n: int32(w.Rows)})
			}
			rot[c] = (rot[c] + w.Groups) % len(own)
			p.conns[c].add(Event{Due: due, Kind: KindIngest}, gs, 0)
		}
	}
	if w.QueryRate > 0 {
		period := time.Duration(float64(time.Second) / w.QueryRate)
		for q := 0; ; q++ {
			due := period/2 + time.Duration(q)*period
			if due >= span {
				break
			}
			p.conns[ctl].add(Event{Due: due, Kind: KindQuery}, nil, int32(q))
		}
	}
	return p
}

// buildChurn lays out churn runs: connection 0 sends every ingest batch,
// round-robin over the slots; each slot replays a sequence of runs, each
// a seeded 400-800-snapshot slice of a seeded application under its own
// VM name. A run whose last batch is due inside the open loop gets a
// finish event on the control connection.
func (p *plan) buildChurn(in *Inputs, seed int64, span time.Duration, ctl int) {
	w := p.w
	p.ingestDone = make(chan struct{})
	type slot struct {
		rng *rand.Rand
		cur int // index into p.vms of the slot's current run, -1 before the first
		gen int
	}
	slots := make([]slot, w.VMs)
	for s := range slots {
		slots[s] = slot{rng: rand.New(rand.NewSource(seedFor(seed, fmt.Sprintf("%s/slot%d", w.Name, s)))), cur: -1}
	}
	// Slot s's j'th run replays apps[(s+j) mod len], so every seed runs the
	// same application mix, and its first run is cut to the fraction
	// (stagger[s]+½)/VMs of its length. Every slot starts at once: the
	// stagger makes the finishes arrive at their steady rate from the
	// start rather than all after the first full run and, being a
	// permutation, keeps their number in a window nearly the same for
	// every seed.
	rng := rand.New(rand.NewSource(seedFor(seed, w.Name+"/churn")))
	apps := rng.Perm(len(in.Traces))
	stagger := rng.Perm(w.VMs)
	newRun := func(s *slot, si int) int {
		tr := in.Traces[apps[(si+s.gen)%len(apps)]]
		length := w.RunMin + s.rng.Intn(w.RunMax-w.RunMin+1)
		if s.gen == 0 {
			length = max(1, int((float64(stagger[si])+0.5)/float64(w.VMs)*float64(length)))
		}
		v := &vm{
			name:    fmt.Sprintf("run-%02d-%03d", si, s.gen),
			trace:   tr,
			start:   s.rng.Intn(len(tr.Rows)),
			length:  length,
			settled: make(chan struct{}),
		}
		s.gen++
		p.vms = append(p.vms, v)
		return len(p.vms) - 1
	}
	planned := make(map[int]int)
	period := time.Duration(float64(time.Second) / w.Rate)
	for j := 0; ; j++ {
		due := time.Duration(j) * period
		if due >= span {
			break
		}
		si := j % w.VMs
		s := &slots[si]
		if s.cur < 0 || planned[s.cur] == p.vms[s.cur].length {
			s.cur = newRun(s, si)
		}
		v := p.vms[s.cur]
		n := w.Rows
		if left := v.length - planned[s.cur]; n > left {
			n = left
		}
		planned[s.cur] += n
		p.conns[0].add(Event{Due: due, Kind: KindIngest}, []group{{vm: int32(s.cur), n: int32(n)}}, 0)
		if planned[s.cur] == v.length {
			if fdue := due + finishSlack; fdue < span {
				p.conns[ctl].add(Event{Due: fdue, Kind: KindFinish}, nil, int32(s.cur))
			}
		}
	}
}

func (cp *connPlan) add(e Event, gs []group, target int32) {
	cp.items = append(cp.items, item{Event: e, groups: gs, target: target})
}

// events returns the connection's schedule in due order (stable, so
// equal-due events keep their generation order).
func (cp *connPlan) events() []Event {
	sort.SliceStable(cp.items, func(a, b int) bool { return cp.items[a].Due < cp.items[b].Due })
	out := make([]Event, len(cp.items))
	for i := range cp.items {
		out[i] = cp.items[i].Event
	}
	return out
}

// livePeak assigns every VM not finished in the open loop to a peak
// connection, alternating, for workloads whose VM ownership changes
// between phases (churn).
func (p *plan) livePeak() {
	if !p.w.Churn {
		return
	}
	for c := range p.peak {
		p.peak[c] = nil
	}
	k := 0
	for i, v := range p.vms {
		if v.finished || v.sent == 0 {
			continue
		}
		p.peak[k%len(p.peak)] = append(p.peak[k%len(p.peak)], i)
		k++
	}
}

// drainSet returns the VMs finished after the peak: every live run with
// churn, otherwise the first Drain VMs.
func (p *plan) drainSet() []int {
	var out []int
	if p.w.Churn {
		for _, vs := range p.peak {
			out = append(out, vs...)
		}
		sort.Ints(out)
		return out
	}
	for i := 0; i < p.w.Drain && i < len(p.vms); i++ {
		out = append(out, i)
	}
	return out
}

// stateDirs are the on-disk inputs and working state one daemon opens.
type stateDirs struct {
	Journal, DB string
}

// seedJournal writes the crash journal durable-small recovers from: the
// first SeedSnapshots rows of every VM, in 8-row batches interleaved
// across VMs, stamped with the daemon's model hash and never
// checkpointed. The VMs' cursors then continue where the journal ends.
func (p *plan) seedJournal(in *Inputs, dir string) error {
	j, err := wal.Open(wal.Config{Dir: dir, Fsync: wal.FsyncNever})
	if err != nil {
		return err
	}
	defer j.Close()
	// server.New derives the boot model hash exactly as the daemon does
	// and stamps it onto the journal (Journal.SetModelHash).
	if _, err := server.New(server.Config{Classifier: in.Classifier, Journal: j}); err != nil {
		return err
	}
	rows := p.w.Rows
	snaps := make([]metrics.Snapshot, 0, rows)
	for k := 0; k < p.w.SeedSnapshots; k += rows {
		for _, v := range p.vms {
			snaps = snaps[:0]
			for r := k; r < k+rows && r < p.w.SeedSnapshots; r++ {
				snaps = append(snaps, metrics.Snapshot{
					Time:   time.Duration(timeOf(r) * float64(time.Second)),
					Node:   v.name,
					Values: v.trace.Rows[v.row(r)],
				})
			}
			if _, err := j.AppendBatch(v.name, snaps); err != nil {
				return err
			}
		}
	}
	for _, v := range p.vms {
		v.sent = p.w.SeedSnapshots
		v.acked.Store(int64(p.w.SeedSnapshots))
	}
	return j.Sync()
}

// priorPool is how many distinct reference runs, each priorRunMin to
// priorRunMax snapshots long, the prior store's records are drawn from.
const (
	priorPool                = 32
	priorRunMin, priorRunMax = 400, 800
)

// seedStore writes the application database the daemon opens: PriorRuns
// finalized runs built the way the daemon finalizes a session (class,
// composition, phases, fingerprint, verdict), cycling over PriorApps
// application names. Opening the store rebuilds its index over every
// record, while a finish reads only each application's newest
// fingerprint, so the dictionary holds PriorApps entries.
func (p *plan) seedStore(in *Inputs, seed int64, dir string) error {
	srv, err := server.New(server.Config{Classifier: in.Classifier})
	if err != nil {
		return err
	}
	model := srv.ActiveModelID()
	db, err := appdb.Open(dir, appstore.Options{NoFsync: true})
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seedFor(seed, p.w.Name+"/prior")))
	apps := rng.Perm(len(in.Traces))
	pool := make([]appdb.Record, 0, priorPool)
	for i := 0; i < priorPool && i < p.w.PriorRuns; i++ {
		tr := in.Traces[apps[i%len(apps)]]
		v := &vm{trace: tr, start: rng.Intn(len(tr.Rows))}
		n := priorRunMin + rng.Intn(priorRunMax-priorRunMin+1)
		rec, err := in.referenceRecord(v, n)
		if err != nil {
			db.Close()
			return err
		}
		rec.ModelID = model
		rec.TrainMetrics, rec.TrainSamples = nil, nil
		pool = append(pool, rec)
	}
	base := time.Now().Add(-time.Hour).UnixNano()
	for i := 0; i < p.w.PriorRuns; i++ {
		rec := pool[i%len(pool)]
		rec.App = priorApp(i % p.w.PriorApps)
		rec.FinalizedAt = base + int64(i)*int64(time.Millisecond)
		if err := db.Put(rec); err != nil {
			db.Close()
			return err
		}
	}
	return db.Close()
}

// priorApp names the prior store's i'th application.
func priorApp(i int) string { return fmt.Sprintf("prior-%04d", i) }

// referenceRecord replays v's first n snapshots through a reference
// Online and builds the record the daemon's finalize would store.
func (in *Inputs) referenceRecord(v *vm, n int) (appdb.Record, error) {
	o, err := in.reference()
	if err != nil {
		return appdb.Record{}, err
	}
	for k := 0; k < n; k++ {
		snap := metrics.Snapshot{Time: time.Duration(timeOf(k) * float64(time.Second)), Values: v.trace.Rows[v.row(k)]}
		if _, err := o.Observe(snap); err != nil {
			return appdb.Record{}, err
		}
	}
	view := o.Snapshot()
	rec := appdb.Record{
		Class:           view.Class,
		Composition:     view.Composition,
		ExecutionTime:   view.LastAt - view.FirstAt,
		Samples:         view.Total,
		Phases:          view.Phases,
		UnknownFraction: view.UnknownFraction,
		Verdict:         view.Verdict,
	}
	rec.TrainMetrics, rec.TrainSamples = o.TrainSamples()
	if fp := phase.NewFingerprint(view.Phases); !fp.Empty() {
		rec.Fingerprint = &fp
	}
	return rec, nil
}

// verdictRotation is the verdict filter the /v1/runs rotation cycles.
var verdictRotation = append([]appclass.Class{appclass.Unknown}, appclass.All()...)
