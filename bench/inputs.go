package bench

import (
	"fmt"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/appclass"
	"repro/internal/classify"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/modelreg"
	"repro/internal/phase"
	"repro/internal/testbed"
	"repro/internal/workload"
)

// SnapshotInterval is the sampling period the generated streams carry in
// their time stamps (the paper's d = 5 s).
const SnapshotInterval = 5.0

// Inputs is everything a run generates from its seed before any daemon
// starts: the model artifact the daemon loads, the profiled traces the
// VMs replay, and the oracle's per-row expectations.
type Inputs struct {
	Seed       int64
	ModelPath  string
	Classifier *classify.Classifier
	Schema     *metrics.Schema
	Traces     []*Trace

	subset  []int
	openset *classify.OpenSet
}

// Trace is one profiled application run, replayed cyclically by the VMs
// assigned to it.
type Trace struct {
	App  string
	Rows [][]float64
	// JSON holds each row's values array pre-encoded for the JSON path
	// (strconv 'g' -1 round-trips exactly, as encoding/json does).
	JSON [][]byte
	// Expect is the oracle's answer for each row, from the same model
	// file the daemon loads.
	Expect []Expect
}

// Expect is the per-snapshot truth: the fused-kernel class and whether
// the open-set test (calibrated with the daemon's defaults) flags it.
type Expect struct {
	Class   appclass.Class
	Unknown bool
}

// GenerateInputs trains the classifier for seed, saves it to
// dir/model.json with modelreg.SaveFile, reloads it from that file (so
// the oracle uses exactly what the daemon loads), and profiles every
// Table-3 and extended application into a trace.
func GenerateInputs(dir string, seed int64) (*Inputs, error) {
	svc, err := core.NewService(core.Options{Seed: seed})
	if err != nil {
		return nil, fmt.Errorf("train model: %w", err)
	}
	path := filepath.Join(dir, "model.json")
	if err := modelreg.SaveFile(path, svc.Classifier()); err != nil {
		return nil, err
	}
	m, err := modelreg.LoadFile(path, modelreg.DefaultParams(), 0)
	if err != nil {
		return nil, err
	}
	in := &Inputs{Seed: seed, ModelPath: path, Classifier: m.Classifier, Schema: metrics.DefaultSchema()}
	if in.subset, err = in.Classifier.GatherIndices(in.Schema); err != nil {
		return nil, err
	}
	if in.openset, err = in.Classifier.CalibrateOpenSet(classify.OpenSetConfig{}); err != nil {
		return nil, err
	}
	entries := append(workload.TestSet(), workload.ExtendedSet()...)
	var scratch classify.Scratch
	for i, e := range entries {
		res, err := testbed.ProfileEntry(e, seed*int64(len(entries))+int64(i))
		if err != nil {
			return nil, err
		}
		if !res.Trace.Schema().Equal(in.Schema) {
			return nil, fmt.Errorf("trace %s: schema differs from the daemon's", e.Name)
		}
		tr := &Trace{App: e.Name}
		for r := 0; r < res.Trace.Len(); r++ {
			vals := res.Trace.At(r).Values
			v, err := in.Classifier.ClassifySnapshotOpenSet(in.subset, vals, in.openset, &scratch)
			if err != nil {
				return nil, err
			}
			// The per-snapshot truth is ClassifySnapshot's; the open-set
			// call adds only the unknown flag and must agree on the class.
			class, err := in.Classifier.ClassifySnapshot(in.Schema, vals)
			if err != nil {
				return nil, err
			}
			if class != v.Class {
				return nil, fmt.Errorf("trace %s row %d: ClassifySnapshot says %q, the open-set kernel %q", e.Name, r, class, v.Class)
			}
			tr.Rows = append(tr.Rows, vals)
			tr.JSON = append(tr.JSON, jsonValues(vals))
			tr.Expect = append(tr.Expect, Expect{Class: v.Class, Unknown: v.Unknown})
		}
		if len(tr.Rows) == 0 {
			return nil, fmt.Errorf("trace %s is empty", e.Name)
		}
		in.Traces = append(in.Traces, tr)
	}
	return in, nil
}

func jsonValues(vals []float64) []byte {
	b := []byte{'['}
	for i, v := range vals {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendFloat(b, v, 'g', -1, 64)
	}
	return append(b, ']')
}

// reference returns a classify.Online armed like the daemon arms every
// session: default phase segmentation, default open-set thresholds and
// the default training reservoir.
func (in *Inputs) reference() (*classify.Online, error) {
	o, err := classify.NewOnline(in.Classifier, in.Schema)
	if err != nil {
		return nil, err
	}
	o.EnableSegmentation(phase.Config{})
	o.EnableOpenSet(in.openset)
	o.EnableSampling(0)
	return o, nil
}

// vm is one simulated VM (or one churn run): a cyclic replay of a trace
// from a seeded row offset. sent is advanced only by the connection that
// owns the VM in the current phase; acked is read across connections.
type vm struct {
	name  string
	trace *Trace
	start int
	sent  int
	acked atomic.Int64

	// length is a churn run's planned snapshot count. settled closes once
	// the run's ingest is over, every snapshot acked or a batch failed,
	// releasing the run's finish; only a fully acked run is finished.
	length   int
	settled  chan struct{}
	settle   sync.Once
	finished bool
}

func (v *vm) row(k int) int { return (v.start + k) % len(v.trace.Rows) }

// settleRun closes a churn run's settled channel (once).
func (v *vm) settleRun() {
	if v.settled != nil {
		v.settle.Do(func() { close(v.settled) })
	}
}

// timeOf is snapshot k's time stamp in seconds.
func timeOf(k int) float64 { return float64(k+1) * SnapshotInterval }

// expectRun is the oracle's view of a finished VM from the per-row
// table: snapshot count, majority class (ties to the smaller name, as
// classify.Online breaks them) and open-set verdict.
func (v *vm) expectRun(n int) (appclass.Class, appclass.Class) {
	counts := make(map[appclass.Class]int)
	unknown := 0
	for k := 0; k < n; k++ {
		e := v.trace.Expect[v.row(k)]
		counts[e.Class]++
		if e.Unknown {
			unknown++
		}
	}
	var best appclass.Class
	bestN := -1
	for c, m := range counts {
		if m > bestN || (m == bestN && c < best) {
			best, bestN = c, m
		}
	}
	verdict := best
	if n > 0 && float64(unknown)/float64(n) > classify.UnknownVerdictFraction {
		verdict = appclass.Unknown
	}
	return best, verdict
}
