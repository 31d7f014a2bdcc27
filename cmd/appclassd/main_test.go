package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/appclass"
	"repro/internal/appdb"
	"repro/internal/appstore"
	"repro/internal/classify"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/modelreg"
	"repro/internal/placement"
	"repro/internal/wal"
)

func TestParseFlags(t *testing.T) {
	cfg, err := parseFlags(nil)
	if err != nil {
		t.Fatalf("defaults: %v", err)
	}
	if cfg.addr != ":8080" || cfg.ttl != 5*time.Minute || cfg.poll != 5*time.Second || cfg.seed != 1 {
		t.Errorf("defaults = %+v", cfg)
	}
	cfg, err = parseFlags([]string{"-addr", "127.0.0.1:0", "-ttl", "30s", "-shards", "4", "-gmetad", "http://x/", "-db", "a.json"})
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if cfg.addr != "127.0.0.1:0" || cfg.ttl != 30*time.Second || cfg.shards != 4 || cfg.gmetad != "http://x/" || cfg.dbPath != "a.json" {
		t.Errorf("parsed = %+v", cfg)
	}
	if _, err := parseFlags([]string{"-no-such-flag"}); err == nil {
		t.Error("unknown flag: want error")
	}
	if _, err := parseFlags([]string{"stray"}); err == nil {
		t.Error("positional argument: want error")
	}
}

func TestParseAppdbFlags(t *testing.T) {
	cfg, err := parseFlags([]string{"-db", "appdb", "-dashboard", "-appdb-max-bytes", "1048576", "-appdb-retain", "720h"})
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if !cfg.dashboard || cfg.appdbMaxBytes != 1<<20 || cfg.appdbRetain != 720*time.Hour {
		t.Errorf("parsed = %+v", cfg)
	}
	for _, args := range [][]string{
		{"-appdb-max-bytes", "1048576"},
		{"-appdb-retain", "720h"},
		{"-db", "appdb", "-appdb-max-bytes", "-1"},
		{"-db", "appdb", "-appdb-retain", "-1h"},
	} {
		if _, err := parseFlags(args); err == nil {
			t.Errorf("%v: want error", args)
		}
	}
}

func TestRunRejectsMissingModel(t *testing.T) {
	cfg, err := parseFlags([]string{"-model", "/does/not/exist.json"})
	if err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), cfg, nil); err == nil {
		t.Error("missing model file: want error")
	}
}

// savedModel trains the classifier once per test binary and serializes
// it, so the daemon tests boot from -model instead of retraining.
var (
	modelOnce  sync.Once
	modelBytes []byte
	modelErr   error
)

func savedModel(t *testing.T) string {
	t.Helper()
	modelOnce.Do(func() {
		svc, err := core.NewService(core.Options{Seed: 1})
		if err != nil {
			modelErr = err
			return
		}
		var buf bytes.Buffer
		if err := svc.Classifier().Save(&buf); err != nil {
			modelErr = err
			return
		}
		modelBytes = buf.Bytes()
	})
	if modelErr != nil {
		t.Fatalf("train model: %v", modelErr)
	}
	path := filepath.Join(t.TempDir(), "model.json")
	if err := os.WriteFile(path, modelBytes, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRunStartupShutdown boots the daemon on an ephemeral port from a
// pre-trained model, ingests one snapshot, shuts down via context
// cancellation, and expects the flushed session in the database store.
func TestRunStartupShutdown(t *testing.T) {
	dbPath := filepath.Join(t.TempDir(), "appdb")
	cfg, err := parseFlags([]string{"-addr", "127.0.0.1:0", "-model", savedModel(t), "-db", dbPath})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ready := make(chan string, 1)
	errc := make(chan error, 1)
	go func() { errc <- run(ctx, cfg, ready) }()

	var addr string
	select {
	case addr = <-ready:
	case err := <-errc:
		t.Fatalf("daemon exited before ready: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("daemon never became ready")
	}
	base := "http://" + addr

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}

	body, _ := json.Marshal(map[string]any{"snapshots": []any{map[string]any{
		"vm":     "smoke-vm",
		"time_s": 0,
		"values": make([]float64, metrics.DefaultSchema().Len()),
	}}})
	resp, err = http.Post(base+"/v1/ingest", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("ingest: %v", err)
	}
	raw := new(bytes.Buffer)
	raw.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("ingest = %d: %s", resp.StatusCode, raw.String())
	}

	cancel()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("run returned: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon never shut down")
	}

	db, err := appdb.Open(dbPath, appstore.Options{})
	if err != nil {
		t.Fatalf("db not written on shutdown: %v", err)
	}
	defer db.Close()
	rec, err := db.Latest("smoke-vm")
	if err != nil {
		t.Fatalf("flushed session missing from db: %v", err)
	}
	if rec.FinalizedAt == 0 {
		t.Error("flushed session has no finalize stamp")
	}
}

// TestRunLegacyDBMigration points -db at a legacy whole-file JSON
// database and expects the daemon to convert it in place and keep its
// records queryable.
func TestRunLegacyDBMigration(t *testing.T) {
	dbPath := filepath.Join(t.TempDir(), "appdb.json")
	legacy := appdb.New()
	if err := legacy.Put(appdb.Record{
		App:           "historic",
		Class:         appclass.CPU,
		Composition:   map[appclass.Class]float64{appclass.CPU: 1},
		ExecutionTime: time.Minute,
		Samples:       12,
	}); err != nil {
		t.Fatal(err)
	}
	if err := legacy.SaveFile(dbPath); err != nil {
		t.Fatal(err)
	}

	cfg, err := parseFlags([]string{"-addr", "127.0.0.1:0", "-model", savedModel(t), "-db", dbPath})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ready := make(chan string, 1)
	errc := make(chan error, 1)
	go func() { errc <- run(ctx, cfg, ready) }()

	var addr string
	select {
	case addr = <-ready:
	case err := <-errc:
		t.Fatalf("daemon exited before ready: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("daemon never became ready")
	}

	resp, err := http.Get("http://" + addr + "/v1/runs?app=historic")
	if err != nil {
		t.Fatalf("runs: %v", err)
	}
	var runs struct {
		Count int `json:"count"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&runs); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 || runs.Count != 1 {
		t.Fatalf("migrated record not served: status %d count %d", resp.StatusCode, runs.Count)
	}

	cancel()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("run returned: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon never shut down")
	}
}

// TestRunDashboard boots the daemon with -dashboard, finalizes one
// session, and fetches the dashboard page plus the paginated run query
// it is built on — the smoke path CI exercises.
func TestRunDashboard(t *testing.T) {
	cfg, err := parseFlags([]string{
		"-addr", "127.0.0.1:0", "-model", savedModel(t),
		"-db", filepath.Join(t.TempDir(), "appdb"), "-dashboard",
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ready := make(chan string, 1)
	errc := make(chan error, 1)
	go func() { errc <- run(ctx, cfg, ready) }()

	var addr string
	select {
	case addr = <-ready:
	case err := <-errc:
		t.Fatalf("daemon exited before ready: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("daemon never became ready")
	}
	base := "http://" + addr

	body, _ := json.Marshal(map[string]any{"snapshots": []any{map[string]any{
		"vm":     "dash-vm",
		"time_s": 0,
		"values": make([]float64, metrics.DefaultSchema().Len()),
	}}})
	resp, err := http.Post(base+"/v1/ingest", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("ingest: %v", err)
	}
	resp.Body.Close()
	resp, err = http.Post(base+"/v1/vms/dash-vm/finish", "application/json", nil)
	if err != nil {
		t.Fatalf("finish: %v", err)
	}
	resp.Body.Close()

	resp, err = http.Get(base + "/dashboard/")
	if err != nil {
		t.Fatalf("dashboard: %v", err)
	}
	page := new(bytes.Buffer)
	page.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("dashboard = %d", resp.StatusCode)
	}
	if !bytes.Contains(page.Bytes(), []byte(`id="sessions"`)) {
		t.Error("dashboard page missing the sessions table")
	}

	resp, err = http.Get(base + "/v1/runs?limit=10")
	if err != nil {
		t.Fatalf("runs: %v", err)
	}
	var runs struct {
		Count int `json:"count"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&runs); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 || runs.Count != 1 {
		t.Fatalf("runs query: status %d count %d, want 200/1", resp.StatusCode, runs.Count)
	}

	cancel()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("run returned: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon never shut down")
	}
}

func TestRunFailsOnBusyPort(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	cfg, err := parseFlags([]string{"-addr", l.Addr().String(), "-model", savedModel(t)})
	if err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), cfg, nil); err == nil {
		t.Error("busy port: want error")
	}
}

func TestParsePlacementFlags(t *testing.T) {
	cfg, err := parseFlags([]string{"-hosts", "a:2,b:4", "-rates", "10,8,6,4,1", "-drift", "0.4"})
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if cfg.hosts != "a:2,b:4" || cfg.rates != "10,8,6,4,1" || cfg.drift != 0.4 {
		t.Errorf("parsed = %+v", cfg)
	}
	if _, err := parseFlags([]string{"-rates", "1,1,1,1,0"}); err == nil {
		t.Error("-rates without -hosts: want error")
	}
}

func TestParseHosts(t *testing.T) {
	hosts, err := parseHosts(" hostA:4 , hostB:2 ")
	if err != nil {
		t.Fatalf("parseHosts: %v", err)
	}
	want := []placement.HostSpec{{Name: "hostA", Slots: 4}, {Name: "hostB", Slots: 2}}
	if len(hosts) != 2 || hosts[0] != want[0] || hosts[1] != want[1] {
		t.Errorf("hosts = %+v, want %+v", hosts, want)
	}
	for _, bad := range []string{"", "noslots", "h:x", ","} {
		if _, err := parseHosts(bad); err == nil {
			t.Errorf("parseHosts(%q): want error", bad)
		}
	}
}

func TestParseRates(t *testing.T) {
	r, err := parseRates("10, 8, 6, 4, 1")
	if err != nil {
		t.Fatalf("parseRates: %v", err)
	}
	if r.CPU != 10 || r.Mem != 8 || r.IO != 6 || r.Net != 4 || r.Idle != 1 {
		t.Errorf("rates = %+v", r)
	}
	for _, bad := range []string{"", "1,2,3", "1,2,3,4,x"} {
		if _, err := parseRates(bad); err == nil {
			t.Errorf("parseRates(%q): want error", bad)
		}
	}
}

// TestRunWithPlacement boots the daemon with a host inventory and
// exercises the placement API end to end over TCP.
func TestRunWithPlacement(t *testing.T) {
	cfg, err := parseFlags([]string{
		"-addr", "127.0.0.1:0", "-model", savedModel(t),
		"-hosts", "rack1:2,rack2:2", "-rates", "10,8,6,4,1",
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ready := make(chan string, 1)
	errc := make(chan error, 1)
	go func() { errc <- run(ctx, cfg, ready) }()

	var addr string
	select {
	case addr = <-ready:
	case err := <-errc:
		t.Fatalf("daemon exited before ready: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("daemon never became ready")
	}
	base := "http://" + addr

	resp, err := http.Post(base+"/v1/placements", "application/json",
		bytes.NewReader([]byte(`{"app":"newcomer"}`)))
	if err != nil {
		t.Fatalf("placement: %v", err)
	}
	var d struct {
		Host   string `json:"host"`
		Source string `json:"source"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&d); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("placement = %d", resp.StatusCode)
	}
	if d.Host != "rack1" && d.Host != "rack2" {
		t.Errorf("placed on %q, want a configured host", d.Host)
	}
	if d.Source != "prior" {
		t.Errorf("source = %q, want prior for an unseen app", d.Source)
	}

	resp, err = http.Get(base + "/v1/hosts")
	if err != nil {
		t.Fatalf("hosts: %v", err)
	}
	var hosts struct {
		Count int `json:"count"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&hosts); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if hosts.Count != 2 {
		t.Errorf("hosts count = %d, want 2", hosts.Count)
	}

	cancel()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("run returned: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon never shut down")
	}
}

func TestParseJournalFlags(t *testing.T) {
	cfg, err := parseFlags([]string{
		"-journal-dir", "/tmp/j", "-fsync", "always", "-fsync-interval", "2s",
		"-checkpoint-every", "10s", "-journal-segment-bytes", "1024", "-journal-max-bytes", "4096",
	})
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if cfg.journalDir != "/tmp/j" || cfg.fsync != "always" || cfg.fsyncInterval != 2*time.Second ||
		cfg.checkpointEvery != 10*time.Second || cfg.journalSegBytes != 1024 || cfg.journalMaxBytes != 4096 {
		t.Errorf("parsed = %+v", cfg)
	}
	if _, err := parseFlags([]string{"-journal-dir", "/tmp/j", "-fsync", "sometimes"}); err == nil {
		t.Error("bad fsync policy: want error")
	}
	for _, args := range [][]string{
		{"-fsync", "always"},
		{"-checkpoint-every", "10s"},
		{"-journal-max-bytes", "4096"},
		{"-fsync-group-commit", "-fsync", "always"},
	} {
		if _, err := parseFlags(args); err == nil {
			t.Errorf("%v without -journal-dir: want error", args)
		}
	}
}

func TestParseGroupCommitFlags(t *testing.T) {
	cfg, err := parseFlags([]string{
		"-journal-dir", "/tmp/j", "-fsync", "always", "-fsync-group-commit",
	})
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if !cfg.fsyncGroup {
		t.Errorf("parsed = %+v", cfg)
	}
	for _, args := range [][]string{
		{"-journal-dir", "/tmp/j", "-fsync-group-commit"},                    // default fsync is interval
		{"-journal-dir", "/tmp/j", "-fsync", "never", "-fsync-group-commit"}, // wrong policy
	} {
		if _, err := parseFlags(args); err == nil {
			t.Errorf("%v: want error", args)
		}
	}
}

// TestParseFlagDependencies: every flag that only means something under
// another is refused without it, naming both, and accepted with it.
func TestParseFlagDependencies(t *testing.T) {
	for _, tc := range []struct {
		args    []string
		enabler []string
	}{
		{[]string{"-appdb-max-bytes", "1"}, []string{"-db", "appdb"}},
		{[]string{"-appdb-retain", "1h"}, []string{"-db", "appdb"}},
		{[]string{"-checkpoint-every", "1s"}, []string{"-journal-dir", "j"}},
		{[]string{"-degraded-on-wal-error"}, []string{"-journal-dir", "j"}},
		{[]string{"-fsync", "never"}, []string{"-journal-dir", "j"}},
		{[]string{"-fsync-group-commit", "-fsync", "always"}, []string{"-journal-dir", "j"}},
		{[]string{"-fsync-interval", "1s"}, []string{"-journal-dir", "j"}},
		{[]string{"-journal-max-bytes", "1"}, []string{"-journal-dir", "j"}},
		{[]string{"-journal-segment-bytes", "1"}, []string{"-journal-dir", "j"}},
		{[]string{"-recover-force"}, []string{"-journal-dir", "j"}},
		{[]string{"-retrain-out", "m.json"}, []string{"-retrain-every", "1m"}},
		{[]string{"-breaker-failures", "1"}, []string{"-gmetad", "http://gm/"}},
		{[]string{"-breaker-open-for", "1s"}, []string{"-gmetad", "http://gm/"}},
		{[]string{"-poll-backoff-max", "1s"}, []string{"-gmetad", "http://gm/"}},
		{[]string{"-probation-min-snapshots", "1"}, []string{"-probation-window", "1m"}},
	} {
		_, err := parseFlags(tc.args)
		if err == nil || !strings.Contains(err.Error(), tc.args[0]) || !strings.HasSuffix(err.Error(), "require(s) "+tc.enabler[0]) {
			t.Errorf("%v: err = %v, want it to name %s and require %s", tc.args, err, tc.args[0], tc.enabler[0])
		}
		if _, err := parseFlags(append(tc.args, tc.enabler...)); err != nil {
			t.Errorf("%v %v: %v", tc.args, tc.enabler, err)
		}
	}
}

// TestRunDefaultModelHash: a daemon on default flags serves its model
// under modelreg.DefaultParams, so journals and checkpoints written
// under those defaults recover without -recover-force.
func TestRunDefaultModelHash(t *testing.T) {
	jdir := filepath.Join(t.TempDir(), "journal")
	model := savedModel(t)
	cfg, err := parseFlags([]string{"-addr", "127.0.0.1:0", "-model", model, "-journal-dir", jdir})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ready := make(chan string, 1)
	errc := make(chan error, 1)
	go func() { errc <- run(ctx, cfg, ready) }()
	select {
	case addr := <-ready:
		// Serving one request orders the shutdown after Serve starts.
		resp, err := http.Get("http://" + addr + "/readyz")
		if err != nil {
			t.Fatalf("readyz: %v", err)
		}
		resp.Body.Close()
	case err := <-errc:
		t.Fatalf("daemon exited before ready: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("daemon never became ready")
	}
	cancel()
	if err := <-errc; err != nil {
		t.Fatalf("run returned: %v", err)
	}

	f, err := os.Open(model)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	cl, err := classify.Load(f)
	if err != nil {
		t.Fatal(err)
	}
	want, err := modelreg.HashClassifier(cl, modelreg.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	cp, err := wal.LatestCheckpoint(jdir)
	if err != nil || cp == nil {
		t.Fatalf("no shutdown checkpoint (err %v)", err)
	}
	if cp.ModelHash != want.String() {
		t.Errorf("default daemon's model hash = %s, want modelreg.DefaultParams hash %s", cp.ModelHash, want)
	}
}

func TestParseResilienceFlags(t *testing.T) {
	cfg, err := parseFlags([]string{
		"-gmetad", "http://gm:8651/", "-poll-backoff-max", "2m",
		"-breaker-failures", "3", "-breaker-open-for", "45s",
		"-max-inflight-bytes", "1048576", "-max-inflight-requests", "32",
		"-ingest-timeout", "2s",
		"-journal-dir", "/tmp/j", "-degraded-on-wal-error",
	})
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if cfg.pollBackoffMax != 2*time.Minute || cfg.breakerFailures != 3 || cfg.breakerOpenFor != 45*time.Second {
		t.Errorf("poll resilience flags = %+v", cfg)
	}
	if cfg.maxInflightB != 1<<20 || cfg.maxInflightReq != 32 || cfg.ingestTimeout != 2*time.Second {
		t.Errorf("admission flags = %+v", cfg)
	}
	if !cfg.degradeOnWALErr {
		t.Error("degraded-on-wal-error not parsed")
	}
	for _, args := range [][]string{
		{"-poll-backoff-max", "2m"},
		{"-breaker-failures", "3"},
		{"-breaker-open-for", "45s"},
	} {
		if _, err := parseFlags(args); err == nil {
			t.Errorf("%v without -gmetad: want error", args)
		}
	}
	if _, err := parseFlags([]string{"-degraded-on-wal-error"}); err == nil {
		t.Error("-degraded-on-wal-error without -journal-dir: want error")
	}
}

// TestRunWithJournal boots the daemon journaled, ingests, and shuts
// down cleanly: the journal directory must hold a segment and a final
// checkpoint with no live sessions.
func TestRunWithJournal(t *testing.T) {
	jdir := filepath.Join(t.TempDir(), "journal")
	cfg, err := parseFlags([]string{
		"-addr", "127.0.0.1:0", "-model", savedModel(t),
		"-journal-dir", jdir, "-fsync", "never",
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ready := make(chan string, 1)
	errc := make(chan error, 1)
	go func() { errc <- run(ctx, cfg, ready) }()

	var addr string
	select {
	case addr = <-ready:
	case err := <-errc:
		t.Fatalf("daemon exited before ready: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("daemon never became ready")
	}
	body, _ := json.Marshal(map[string]any{"snapshots": []any{map[string]any{
		"vm":     "journal-vm",
		"time_s": 0,
		"values": make([]float64, metrics.DefaultSchema().Len()),
	}}})
	resp, err := http.Post("http://"+addr+"/v1/ingest", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("ingest: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("ingest = %d", resp.StatusCode)
	}

	cancel()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("run returned: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon never shut down")
	}

	segs, err := filepath.Glob(filepath.Join(jdir, "journal-*.wal"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no journal segments in %s (err %v)", jdir, err)
	}
	cp, err := wal.LatestCheckpoint(jdir)
	if err != nil {
		t.Fatal(err)
	}
	if cp == nil {
		t.Fatal("clean shutdown wrote no checkpoint")
	}
}
