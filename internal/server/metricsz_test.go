package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/appclass"
	"repro/internal/appdb"
	"repro/internal/appstore"
	"repro/internal/metrics"
	"repro/internal/modelreg"
	"repro/internal/wal"
	"repro/internal/wire"
)

var updateGolden = flag.Bool("update", false, "rewrite the /metricsz golden files under testdata")

// modelLabel matches a label whose value is a model id. Ids hash the
// trained classifier, so the golden files name none in particular.
var modelLabel = regexp.MustCompile(`\b(id|candidate|model|guard)="[^"]*"`)

// metricszShape scrapes /metricsz and returns its shape: every HELP and
// TYPE line, and each sample's name and labels with the value stripped
// and model ids normalized, in page order.
func metricszShape(t *testing.T, h http.Handler) string {
	t.Helper()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/metricsz", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("GET /metricsz = %d", w.Code)
	}
	var b strings.Builder
	for _, line := range strings.Split(strings.TrimSuffix(w.Body.String(), "\n"), "\n") {
		if !strings.HasPrefix(line, "#") {
			i := strings.LastIndexByte(line, ' ')
			if i < 0 {
				t.Fatalf("sample line has no value: %q", line)
			}
			line = modelLabel.ReplaceAllString(line[:i], `$1="MODEL"`)
		}
		b.WriteString(line)
		b.WriteByte('\n')
	}
	return b.String()
}

// checkGolden compares got with testdata/name, or rewrites the file
// under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (go test -run TestMetricszGolden -update writes it)", err)
	}
	want, have := strings.Split(string(raw), "\n"), strings.Split(got, "\n")
	for i := 0; i < len(want) || i < len(have); i++ {
		var wl, hl string
		if i < len(want) {
			wl = want[i]
		}
		if i < len(have) {
			hl = have[i]
		}
		if wl != hl {
			t.Fatalf("%s:%d differs:\n want %q\n have %q\n(go test -run TestMetricszGolden -update rewrites it if the change is intended)", path, i+1, wl, hl)
		}
	}
}

// lifecycleServer is a journaled server over a segmented store and the
// expert schema, whose ModelDir holds boot.json, the serving model, and
// alt.json, a second model over the same expert metrics. A probation it
// arms lasts the test and never breaches. cfg's other fields pass
// through.
func lifecycleServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	dir, modelDir := t.TempDir(), t.TempDir()
	if err := modelreg.SaveFile(filepath.Join(modelDir, "boot.json"), classifier(t)); err != nil {
		t.Fatal(err)
	}
	if err := modelreg.SaveFile(filepath.Join(modelDir, "alt.json"), altClassifier(t)); err != nil {
		t.Fatal(err)
	}
	j, err := wal.Open(wal.Config{Dir: filepath.Join(dir, "journal"), Fsync: wal.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() }) // after the server's shutdown cleanup
	db, err := appdb.Open(filepath.Join(dir, "store"), appstore.Options{NoFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	cfg.Schema, cfg.DB, cfg.Journal, cfg.ModelDir = metrics.ExpertSchema(), db, j, modelDir
	cfg.ProbationWindow, cfg.ProbationMinSnapshots = time.Hour, 1<<40
	return newTestServer(t, cfg)
}

// fullServer is a server with every subsystem /metricsz reports on: a
// journal, a segmented store, a placement inventory and the supervised
// tasks, with a model under probation and a second one staged as the
// shadow candidate, both having classified traffic.
func fullServer(t *testing.T) *Server {
	t.Helper()
	s := lifecycleServer(t, Config{
		Placement:       threeHostPlacer(t),
		CheckpointEvery: time.Hour,
		StoreMaintEvery: time.Hour,
		ScrubEvery:      time.Hour,
	})
	s.StartJanitor()
	s.StartCheckpointer()
	s.StartStoreMaint()
	s.StartScrubber()
	s.StartProbationWatcher()

	h := s.Handler()
	ingestTraceRange(t, s, "vm-done", sigTrace(t, appclass.IO, 10, 21), 0, 10)
	if w := postJSON(t, h, "/v1/vms/vm-done/finish", nil); w.Code != http.StatusOK {
		t.Fatalf("finish: %d %s", w.Code, w.Body.String())
	}
	if w := postJSON(t, h, "/v1/placements", map[string]any{"app": "PostMark"}); w.Code != http.StatusOK {
		t.Fatalf("place: %d %s", w.Code, w.Body.String())
	}
	// Promote the alternative model (arming its probation), then stage
	// the displaced boot model as the shadow candidate.
	var alt modelJSON
	w := postJSON(t, h, "/v1/models", map[string]any{"path": "alt.json"})
	if w.Code != http.StatusCreated {
		t.Fatalf("load alt: %d %s", w.Code, w.Body.String())
	}
	if err := json.Unmarshal(w.Body.Bytes(), &alt); err != nil {
		t.Fatal(err)
	}
	if w := postJSON(t, h, "/v1/models/"+alt.ID+"/promote", nil); w.Code != http.StatusOK {
		t.Fatalf("promote: %d %s", w.Code, w.Body.String())
	}
	if w := postJSON(t, h, "/v1/models", map[string]any{"path": "boot.json"}); w.Code != http.StatusCreated {
		t.Fatalf("load boot as candidate: %d %s", w.Code, w.Body.String())
	}
	for i, c := range []appclass.Class{appclass.IO, appclass.CPU, appclass.Net} {
		ingestTraceRange(t, s, "vm-"+string(c), sigTrace(t, c, 20, int64(30+i)), 0, 20)
	}
	if s.probationView() == nil || s.shadow.Load() == nil {
		t.Fatal("want a probation window and a shadow candidate at once")
	}
	return s
}

// TestMetricszGolden pins the /metricsz page: families, help, types,
// label sets and their order, for a bare server and for one with every
// subsystem configured. It also checks that every series the dashboard
// reads is on the full page, so a rename cannot blank a card.
func TestMetricszGolden(t *testing.T) {
	bare := newTestServer(t, Config{})
	checkGolden(t, "metricsz_bare.golden", metricszShape(t, bare.Handler()))

	full := metricszShape(t, fullServer(t).Handler())
	checkGolden(t, "metricsz_full.golden", full)

	js, err := os.ReadFile(filepath.Join("dashboard", "app.js"))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range regexp.MustCompile(`appclassd_[a-z_]+`).FindAllString(string(js), -1) {
		if !strings.Contains(full, "# TYPE "+name+" ") {
			t.Errorf("dashboard/app.js reads %s, which /metricsz does not emit", name)
		}
	}
}

// parseMetricsz checks one /metricsz page: every family has one HELP
// and one TYPE line ahead of its samples, which follow each other, and
// every sample value parses.
func parseMetricsz(page string) error {
	families := map[string]bool{}
	family := ""
	for _, line := range strings.Split(strings.TrimSuffix(page, "\n"), "\n") {
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, _, _ := strings.Cut(rest, " ")
			if families[name] {
				return fmt.Errorf("family %s appears twice", name)
			}
			families[name], family = true, ""
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, typ, _ := strings.Cut(rest, " ")
			if typ != "counter" && typ != "gauge" {
				return fmt.Errorf("family %s has type %q", name, typ)
			}
			family = name
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return fmt.Errorf("sample line has no value: %q", line)
		}
		if _, err := strconv.ParseFloat(line[i+1:], 64); err != nil {
			return fmt.Errorf("sample %q: %v", line, err)
		}
		name, labels, hasLabels := strings.Cut(line[:i], "{")
		if name != family || hasLabels && !strings.HasSuffix(labels, "}") {
			return fmt.Errorf("sample %q outside its family (last TYPE %s)", line, family)
		}
	}
	return nil
}

// parseStatus checks one /v1/status body: every family under metrics
// is a number or a list of {labels, value}.
func parseStatus(body []byte) error {
	var st struct {
		Durability string                     `json:"durability"`
		Metrics    map[string]json.RawMessage `json:"metrics"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		return err
	}
	if st.Durability != "journaled" {
		return fmt.Errorf("durability %q, want journaled", st.Durability)
	}
	if _, ok := st.Metrics["appclassd_uptime_seconds"]; !ok {
		return fmt.Errorf("metrics has no appclassd_uptime_seconds: %s", body)
	}
	for name, raw := range st.Metrics {
		var v float64
		if json.Unmarshal(raw, &v) == nil {
			continue
		}
		var list []struct {
			Labels map[string]string `json:"labels"`
			Value  *float64          `json:"value"`
		}
		if err := json.Unmarshal(raw, &list); err != nil || len(list) == 0 {
			return fmt.Errorf("metrics.%s is %s, neither a number nor a labeled list", name, raw)
		}
		for _, smp := range list {
			if len(smp.Labels) == 0 || smp.Value == nil {
				return fmt.Errorf("metrics.%s sample %s lacks labels or a value", name, raw)
			}
		}
	}
	return nil
}

// TestScrapeDuringIngestAndPromote scrapes /metricsz and /v1/status
// while the state they read changes under them: JSON and binary
// batches arrive and sessions finish, a candidate is loaded and
// promoted back and forth, and checkpoints run. Every page and every
// body must parse. Run it under -race.
func TestScrapeDuringIngestAndPromote(t *testing.T) {
	s := lifecycleServer(t, Config{})
	schema := s.cfg.Schema
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	hc := ts.Client()
	// post sends body as JSON and decodes the answer into out, if given.
	post := func(path string, body, out any) (int, error) {
		b, err := json.Marshal(body)
		if err != nil {
			return 0, err
		}
		resp, err := hc.Post(ts.URL+path, "application/json", bytes.NewReader(b))
		if err != nil {
			return 0, err
		}
		defer resp.Body.Close()
		if out != nil {
			return resp.StatusCode, json.NewDecoder(resp.Body).Decode(out)
		}
		_, err = io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, err
	}
	get := func(path string) ([]byte, error) {
		resp, err := hc.Get(ts.URL + path)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("GET %s = %d", path, resp.StatusCode)
		}
		return body, err
	}
	trace := sigTrace(t, appclass.IO, 40, 41)

	// Each actor runs its step until stop closes or the step fails;
	// halt stops them all and waits, also when the promoter below fails
	// the test.
	stop := make(chan struct{})
	var actors sync.WaitGroup
	spawn := func(what string, step func(i int) error) {
		actors.Add(1)
		go func() {
			defer actors.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if err := step(i); err != nil {
					t.Errorf("%s: %v", what, err)
					return
				}
			}
		}()
	}
	halt := sync.OnceFunc(func() {
		close(stop)
		actors.Wait()
	})
	defer halt()
	for g := 0; g < 2; g++ {
		// JSON batches; every eighth one finishes its session.
		spawn("JSON ingest", func(i int) error {
			vm := fmt.Sprintf("json-%d-%d", g, i/8)
			code, err := post("/v1/ingest", map[string]any{"snapshots": []any{
				map[string]any{"vm": vm, "time_s": float64(i), "values": trace.At(i % trace.Len()).Values},
			}}, nil)
			if err == nil && code == http.StatusOK && i%8 == 7 {
				code, err = post("/v1/vms/"+vm+"/finish", nil, nil)
			}
			if err == nil && code != http.StatusOK {
				err = fmt.Errorf("status %d", code)
			}
			return err
		})
	}
	c := wire.NewClient(ts.URL, schema.Names(), hc)
	spawn("binary ingest", func(i int) error {
		// Send re-handshakes once after a hot swap; a second swap in
		// between can still leave it stale.
		_, err := c.Send(context.Background(), []wire.Group{
			{VM: "bin-vm", Times: []float64{float64(i)}, Rows: [][]float64{trace.At(i % trace.Len()).Values}},
		})
		var stale *wire.StaleStreamError
		if errors.As(err, &stale) {
			return nil
		}
		return err
	})
	spawn("checkpoint", func(int) error { return s.Checkpoint() })
	scraped := make([]atomic.Int64, 4)
	for g := range scraped {
		spawn("scrape", func(int) error {
			page, err := get("/metricsz")
			if err == nil {
				err = parseMetricsz(string(page))
			}
			if err != nil {
				return fmt.Errorf("/metricsz: %w", err)
			}
			body, err := get("/v1/status")
			if err == nil {
				err = parseStatus(body)
			}
			if err != nil {
				return fmt.Errorf("/v1/status: %w", err)
			}
			scraped[g].Add(1)
			return nil
		})
	}

	// The promoter: load a candidate, let it shadow some traffic, and
	// promote it, arming a probation whose guard then sees traffic too;
	// the two models swap back and forth.
	for round, path := range []string{"alt.json", "boot.json", "alt.json", "boot.json"} {
		var m modelJSON
		if code, err := post("/v1/models", map[string]string{"path": path}, &m); err != nil || code != http.StatusCreated {
			t.Fatalf("round %d: load %s = %d, %v", round, path, code, err)
		}
		waitFor(t, 10*time.Second, "the candidate to shadow traffic", func() bool {
			se := s.shadow.Load()
			return se != nil && se.snaps.Load() > 0
		})
		if code, err := post("/v1/models/"+m.ID+"/promote", nil, nil); err != nil || code != http.StatusOK {
			t.Fatalf("round %d: promote %s = %d, %v", round, m.ID, code, err)
		}
		waitFor(t, 10*time.Second, "the probation guard to see traffic", func() bool {
			pb := s.probation.Load()
			return pb != nil && pb.eval.snaps.Load() > 0
		})
	}
	waitFor(t, 10*time.Second, "every scraper to finish a scrape", func() bool {
		for g := range scraped {
			if scraped[g].Load() == 0 {
				return false
			}
		}
		return true
	})
	halt()
	if n := s.counters.modelPromotes.Load(); n != 4 {
		t.Errorf("promotes = %d, want 4", n)
	}
}
