// Command appclassd is the application classification daemon: a
// long-running HTTP service that concurrently classifies metric
// streams from many VMs against one trained classification center.
// Snapshots arrive over the push API (POST /v1/ingest) or by polling a
// gmetad aggregator (-gmetad); per-VM state and cluster-wide class
// counts are served from /v1/vms and /v1/classes; sessions are
// finalized into the application-database store (-db, a log-structured
// segment directory; legacy JSON files are converted in place) on
// explicit finish, idle-TTL expiry, or shutdown. With -dashboard the
// daemon serves an embedded control-plane dashboard at /dashboard/.
//
// With -hosts the daemon also runs the class-aware placement service:
// POST /v1/placements assigns applications to hosts using live
// classifications, appdb history, and the complementary-class scoring
// heuristic; /v1/hosts exposes the inventory and per-class load
// vectors.
//
// With -journal-dir the daemon journals every accepted batch to an
// append-only write-ahead log before classifying it and checkpoints
// live sessions periodically; after a crash it recovers sessions from
// the latest checkpoint plus the journal tail before accepting traffic.
//
// Usage:
//
//	appclassd -addr :8080 -db appdb -dashboard
//	appclassd -model model.json -gmetad http://gmetad:8651/ -poll 5s
//	appclassd -db appdb -appdb-max-bytes 1073741824 -appdb-retain 720h
//	appclassd -db appdb -hosts hostA:4,hostB:4 -rates 10,8,6,4,1
//	appclassd -journal-dir /var/lib/appclassd/journal -fsync interval -checkpoint-every 30s
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"slices"
	"strings"
	"syscall"
	"time"

	"repro/internal/appdb"
	"repro/internal/appstore"
	"repro/internal/classify"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/metrics"
	"repro/internal/placement"
	"repro/internal/server"
	"repro/internal/wal"
)

// config is the daemon's parsed command line.
type config struct {
	addr   string
	model  string
	dbPath string
	gmetad string
	poll   time.Duration
	ttl    time.Duration
	seed   int64
	hosts  string
	rates  string
	pprof  bool

	dashboard     bool
	appdbMaxBytes int64
	appdbRetain   time.Duration

	journalDir      string
	fsync           string
	fsyncGroup      bool
	checkpointEvery time.Duration

	maxInflightB    int64
	maxInflightReq  int64
	ingestTimeout   time.Duration
	degradeOnWALErr bool

	recoverForce bool
	modelDir     string
	retrainEvery time.Duration
	retrainOut   string

	shutdownTimeout time.Duration
	scrubEvery      time.Duration
	storeMaintEvery time.Duration

	probationWindow time.Duration
}

// flagDeps lists the flags that do nothing unless another flag enables
// them; parseFlags rejects any of them set while their enabler is off.
var flagDeps = []struct {
	enabler string
	on      func(config) bool
	deps    []string
}{
	{"-db", func(c config) bool { return c.dbPath != "" },
		[]string{"appdb-max-bytes", "appdb-retain", "store-maint-every"}},
	{"-hosts", func(c config) bool { return c.hosts != "" },
		[]string{"rates"}},
	{"-journal-dir", func(c config) bool { return c.journalDir != "" },
		[]string{"checkpoint-every", "degraded-on-wal-error", "fsync", "fsync-group-commit", "recover-force"}},
	{"-retrain-every", func(c config) bool { return c.retrainEvery > 0 },
		[]string{"retrain-out"}},
}

// newFlagSet defines every appclassd flag, each bound to its cfg field.
func newFlagSet(cfg *config) *flag.FlagSet {
	fs := flag.NewFlagSet("appclassd", flag.ContinueOnError)
	fs.StringVar(&cfg.addr, "addr", ":8080", "listen address")
	fs.StringVar(&cfg.model, "model", "", "load a trained classifier from this JSON file instead of training")
	fs.StringVar(&cfg.dbPath, "db", "", "application database store directory (a legacy JSON database file at the path is converted in place)")
	fs.StringVar(&cfg.gmetad, "gmetad", "", "poll this gmetad URL for cluster state (pull mode)")
	fs.DurationVar(&cfg.poll, "poll", 5*time.Second, "gmetad poll interval")
	fs.DurationVar(&cfg.ttl, "ttl", 5*time.Minute, "idle session TTL before eviction to the database")
	fs.Int64Var(&cfg.seed, "seed", 1, "simulation seed when training (no -model)")
	fs.StringVar(&cfg.hosts, "hosts", "", "placement host inventory as name:slots[,name:slots...] (enables /v1/placements)")
	fs.StringVar(&cfg.rates, "rates", "", "cost-model rates as cpu,mem,io,net,idle (default 1,1,1,1,0)")
	fs.BoolVar(&cfg.pprof, "pprof", false, "expose net/http/pprof profiling under /debug/pprof/")
	fs.BoolVar(&cfg.dashboard, "dashboard", false, "serve the embedded control-plane dashboard at /dashboard/")
	fs.Int64Var(&cfg.appdbMaxBytes, "appdb-max-bytes", 0, "cap the application-database store at this total segment size, pruning the oldest runs (default unlimited)")
	fs.DurationVar(&cfg.appdbRetain, "appdb-retain", 0, "drop application-database runs finalized longer ago than this (default keep forever)")
	fs.StringVar(&cfg.journalDir, "journal-dir", "", "write-ahead journal directory (enables durable ingest and crash recovery)")
	fs.StringVar(&cfg.fsync, "fsync", "interval", "journal fsync policy: always, interval (every second), or never")
	fs.BoolVar(&cfg.fsyncGroup, "fsync-group-commit", false, "coalesce concurrent -fsync always appends behind shared fsyncs (group commit)")
	fs.DurationVar(&cfg.checkpointEvery, "checkpoint-every", 30*time.Second, "session checkpoint cadence")
	fs.Int64Var(&cfg.maxInflightB, "max-inflight-bytes", 0, "shed ingest once this many request-body bytes are in flight (default 64 MiB, negative disables)")
	fs.Int64Var(&cfg.maxInflightReq, "max-inflight-requests", 0, "shed ingest once this many requests are in flight (default 256, negative disables)")
	fs.DurationVar(&cfg.ingestTimeout, "ingest-timeout", 0, "abandon an ingest request that cannot finish within this deadline (default none)")
	fs.BoolVar(&cfg.degradeOnWALErr, "degraded-on-wal-error", false, "on persistent journal errors, continue ingest memory-only (degraded durability) instead of rejecting batches")
	fs.BoolVar(&cfg.recoverForce, "recover-force", false, "recover past a checkpoint/journal model-hash mismatch by discarding the mismatching checkpoint and replaying the journal tail only")
	fs.StringVar(&cfg.modelDir, "model-dir", "", "confine POST /v1/models artifact paths to this directory (default: paths taken as given)")
	fs.DurationVar(&cfg.retrainEvery, "retrain-every", 0, "refit a candidate model from labeled appdb sessions at this cadence and shadow-evaluate it (default off)")
	fs.StringVar(&cfg.retrainOut, "retrain-out", "", "persist each retrained model artifact to this path (atomic rename)")
	fs.DurationVar(&cfg.shutdownTimeout, "shutdown-timeout", 10*time.Second, "bound graceful shutdown (HTTP drain, session flush, final checkpoint) to this long")
	fs.DurationVar(&cfg.scrubEvery, "scrub-every", 0, "verify one sealed journal segment and one closed appdb segment for latent corruption at this cadence, repairing damage (default off)")
	fs.DurationVar(&cfg.storeMaintEvery, "store-maint-every", 0, "compact the application-database store at this cadence (default off)")
	fs.DurationVar(&cfg.probationWindow, "probation-window", 0, "keep a freshly promoted model on probation this long, the displaced model shadow-guarding it; breaches auto-roll back (default off)")
	return fs
}

func parseFlags(args []string) (config, error) {
	var cfg config
	fs := newFlagSet(&cfg)
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	if fs.NArg() > 0 {
		return config{}, fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	for _, d := range flagDeps {
		if d.on(cfg) {
			continue
		}
		var named []string
		fs.Visit(func(f *flag.Flag) {
			if slices.Contains(d.deps, f.Name) {
				named = append(named, "-"+f.Name)
			}
		})
		if len(named) > 0 {
			return config{}, fmt.Errorf("%s require(s) %s", strings.Join(named, ", "), d.enabler)
		}
	}
	if cfg.appdbMaxBytes < 0 || cfg.appdbRetain < 0 {
		return config{}, fmt.Errorf("-appdb-max-bytes and -appdb-retain must be non-negative")
	}
	if _, err := wal.ParsePolicy(cfg.fsync); err != nil {
		return config{}, err
	}
	if cfg.fsyncGroup && cfg.fsync != "always" {
		return config{}, fmt.Errorf("-fsync-group-commit requires -fsync always, got -fsync %s", cfg.fsync)
	}
	if cfg.shutdownTimeout <= 0 {
		return config{}, fmt.Errorf("-shutdown-timeout must be positive, got %v", cfg.shutdownTimeout)
	}
	if cfg.scrubEvery < 0 || cfg.storeMaintEvery < 0 || cfg.probationWindow < 0 {
		return config{}, fmt.Errorf("-scrub-every, -store-maint-every, and -probation-window must be non-negative")
	}
	if cfg.scrubEvery > 0 && cfg.journalDir == "" && cfg.dbPath == "" {
		return config{}, fmt.Errorf("-scrub-every needs something to scrub: set -journal-dir and/or -db")
	}
	return cfg, nil
}

// parseHosts and parseRates read the -hosts and -rates flags.
var (
	parseHosts = placement.ParseHosts
	parseRates = costmodel.ParseRates
)

// run starts the daemon and blocks until ctx is cancelled or serving
// fails. If ready is non-nil it receives the bound listen address once
// the daemon accepts connections.
func run(ctx context.Context, cfg config, ready chan<- string) error {
	var cl *classify.Classifier
	if cfg.model != "" {
		f, err := os.Open(cfg.model)
		if err != nil {
			return err
		}
		cl, err = classify.Load(f)
		f.Close()
		if err != nil {
			return err
		}
		log.Printf("appclassd: loaded classifier from %s", cfg.model)
	} else {
		log.Printf("appclassd: training classifier on the simulated testbed (seed %d)", cfg.seed)
		svc, err := core.NewService(core.Options{Seed: cfg.seed})
		if err != nil {
			return err
		}
		cl = svc.Classifier()
	}

	db := appdb.New()
	if cfg.dbPath != "" {
		// -db opens the log-structured segmented store; a legacy JSON
		// database file at the path is converted in place on first open.
		var err error
		db, err = appdb.Open(cfg.dbPath, appstore.Options{
			MaxBytes:  cfg.appdbMaxBytes,
			RetainAge: cfg.appdbRetain,
			Logf:      log.Printf,
		})
		if err != nil {
			return err
		}
		defer db.Close()
		log.Printf("appclassd: application database at %s (%d record(s))", cfg.dbPath, db.Len())
	}

	var placer *placement.Service
	if cfg.hosts != "" {
		hosts, err := parseHosts(cfg.hosts)
		if err != nil {
			return err
		}
		var rates costmodel.Rates
		if cfg.rates != "" {
			if rates, err = parseRates(cfg.rates); err != nil {
				return err
			}
		}
		placer, err = placement.New(placement.Config{
			Hosts:   hosts,
			Rates:   rates,
			History: db,
		})
		if err != nil {
			return err
		}
		log.Printf("appclassd: placement service over %d host(s)", len(hosts))
	}

	var journal *wal.Journal
	if cfg.journalDir != "" {
		policy, err := wal.ParsePolicy(cfg.fsync)
		if err != nil {
			return err
		}
		journal, err = wal.Open(wal.Config{
			Dir:         cfg.journalDir,
			Fsync:       policy,
			GroupCommit: cfg.fsyncGroup,
			Logf:        log.Printf,
		})
		if err != nil {
			return err
		}
		defer journal.Close()
		mode := policy.String()
		if cfg.fsyncGroup {
			mode += " group-commit"
		}
		log.Printf("appclassd: journaling to %s (fsync %s)", cfg.journalDir, mode)
	}

	srv, err := server.New(server.Config{
		Classifier:          cl,
		Schema:              metrics.DefaultSchema(),
		DB:                  db,
		IdleTTL:             cfg.ttl,
		Placement:           placer,
		Dashboard:           cfg.dashboard,
		EnablePprof:         cfg.pprof,
		Journal:             journal,
		CheckpointEvery:     cfg.checkpointEvery,
		MaxInflightBytes:    cfg.maxInflightB,
		MaxInflightRequests: cfg.maxInflightReq,
		IngestTimeout:       cfg.ingestTimeout,
		DegradeOnWALError:   cfg.degradeOnWALErr,
		RecoverForce:        cfg.recoverForce,
		ModelDir:            cfg.modelDir,
		RetrainEvery:        cfg.retrainEvery,
		RetrainOut:          cfg.retrainOut,
		ScrubEvery:          cfg.scrubEvery,
		StoreMaintEvery:     cfg.storeMaintEvery,
		ProbationWindow:     cfg.probationWindow,
		Logf:                log.Printf,
	})
	if err != nil {
		return err
	}
	if journal != nil {
		// Recover before accepting traffic: checkpointed sessions come
		// back live, the journal tail replays into them.
		rs, err := srv.Recover()
		if err != nil {
			return err
		}
		if rs.Sessions > 0 || rs.Records > 0 {
			log.Printf("appclassd: recovered %d session(s), replayed %d snapshot(s), %d finalize(s), %d already stored",
				rs.Sessions, rs.Snapshots, rs.Finalized, rs.AlreadyStored)
		}
	}

	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	log.Printf("appclassd: listening on %s", ln.Addr())
	if ready != nil {
		ready <- ln.Addr().String()
	}

	srv.StartJanitor()
	srv.StartCheckpointer()
	srv.StartRetrainer()
	srv.StartStoreMaint()
	srv.StartScrubber()
	srv.StartProbationWatcher()
	if cfg.retrainEvery > 0 {
		log.Printf("appclassd: retraining from %s every %v", cfg.dbPath, cfg.retrainEvery)
	}
	if cfg.scrubEvery > 0 {
		log.Printf("appclassd: scrubbing storage every %v", cfg.scrubEvery)
	}
	if cfg.probationWindow > 0 {
		log.Printf("appclassd: promoted models serve a %v probation under their displaced predecessor", cfg.probationWindow)
	}
	if cfg.gmetad != "" {
		if err := srv.StartPoller(server.PollConfig{URL: cfg.gmetad, Interval: cfg.poll}); err != nil {
			ln.Close()
			return err
		}
		log.Printf("appclassd: polling %s every %v", cfg.gmetad, cfg.poll)
	}

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}

	// Graceful shutdown: drain HTTP, flush every session into the db,
	// write a final checkpoint, sync the journal. The deferred
	// journal.Close then rotates it shut.
	shutCtx, cancel := context.WithTimeout(context.Background(), cfg.shutdownTimeout)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		return err
	}
	if err := <-errc; err != nil {
		return err
	}
	if cfg.dbPath != "" {
		// Every finalize already hit the segment log; closing just syncs
		// the active segment (the deferred Close is then a no-op).
		if err := db.Close(); err != nil {
			return err
		}
		log.Printf("appclassd: application database closed with %d record(s)", db.Len())
	}
	return nil
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		if err != flag.ErrHelp {
			fmt.Fprintf(os.Stderr, "appclassd: %v\n", err)
		}
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		// Restore default signal handling so a second SIGTERM/SIGINT
		// force-exits instead of waiting out the graceful drain.
		stop()
		log.Printf("appclassd: shutting down (send the signal again to force exit)")
	}()
	if err := run(ctx, cfg, nil); err != nil {
		fmt.Fprintf(os.Stderr, "appclassd: %v\n", err)
		os.Exit(1)
	}
}
