package bench

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
)

// Metric is one named measurement.
type Metric struct {
	Name  string
	Value float64
	Unit  string
}

// Result is one workload run's outcome. Metrics are the run mode's
// BENCHMARK.json set (end-to-end, or per-layer with tracing); Info are
// further numbers printed for the reader but not gated.
type Result struct {
	Workload  string
	Seed      int64
	Trace     bool
	Correct   bool
	Attempted int64
	Failed    int64
	Metrics   []Metric
	Info      []Metric
	Errors    []string
	// SpeedFactor and SetupSpeedFactor are the machine's slowdowns over
	// the open loop and over set-up; Raw holds, by name, each metric that
	// was divided by one of them as measured.
	SpeedFactor, SetupSpeedFactor float64
	Raw                           map[string]float64
}

func (r *Result) add(name string, v float64, unit string) {
	r.Metrics = append(r.Metrics, Metric{name, v, unit})
}

// addScaled adds a time measured as raw, divided by the slowdown speed.
func (r *Result) addScaled(name string, raw, speed float64, unit string) {
	if r.Raw == nil {
		r.Raw = make(map[string]float64)
	}
	r.Raw[name] = raw
	r.add(name, raw/speed, unit)
}
func (r *Result) info(name string, v float64, unit string) {
	r.Info = append(r.Info, Metric{name, v, unit})
}

// fail counts one failure with its reason.
func (r *Result) fail(format string, args ...any) {
	r.Failed++
	if len(r.Errors) < 16 {
		r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
	}
}

// WriteLines prints one "workload metric value unit" line per metric
// and info value.
func (r *Result) WriteLines(w io.Writer) {
	for _, m := range append(append([]Metric(nil), r.Metrics...), r.Info...) {
		fmt.Fprintf(w, "%s %s %s %s\n", r.Workload, m.Name, formatValue(m.Value), m.Unit)
	}
}

func formatValue(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summaryJSON is the result line the benchmark prints last.
type summaryJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

// record is one line of a -out results file.
type record struct {
	Workload         string             `json:"workload"`
	Seed             int64              `json:"seed"`
	Trace            bool               `json:"trace"`
	SpeedFactor      float64            `json:"speed_factor,omitempty"`
	SetupSpeedFactor float64            `json:"setup_speed_factor,omitempty"`
	Raw              map[string]float64 `json:"raw,omitempty"`
	summaryJSON
}

func (r *Result) summary() summaryJSON {
	s := summaryJSON{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: make(map[string]metricJSON)}
	for _, m := range r.Metrics {
		v := m.Value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		s.Metrics[m.Name] = metricJSON{Value: v, Unit: m.Unit}
	}
	return s
}

// SummaryJSON returns the single-line JSON summary of one run.
func (r *Result) SummaryJSON() ([]byte, error) { return json.Marshal(r.summary()) }

// AppendRecord appends r as one JSON line to path.
func AppendRecord(path string, r *Result) error {
	b, err := json.Marshal(record{Workload: r.Workload, Seed: r.Seed, Trace: r.Trace,
		SpeedFactor: r.SpeedFactor, SetupSpeedFactor: r.SetupSpeedFactor, Raw: r.Raw, summaryJSON: r.summary()})
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readRecords loads a -out results file.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var rec record
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, n, err)
		}
		out = append(out, rec)
	}
	return out, sc.Err()
}

// parseMetricsz reads the unlabelled samples of a Prometheus text page.
func parseMetricsz(raw []byte) map[string]float64 {
	out := make(map[string]float64)
	for _, line := range strings.Split(string(raw), "\n") {
		if line == "" || line[0] == '#' || strings.ContainsRune(line, '{') {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(strings.TrimSpace(val), 64); err == nil {
			out[name] = v
		}
	}
	return out
}
