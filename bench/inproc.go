package bench

import (
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"time"

	"repro/internal/appdb"
	"repro/internal/appstore"
	"repro/internal/metrics"
	"repro/internal/server"
	"repro/internal/wal"
)

// daemonArgs are the appclassd flags a workload runs with. Everything
// not named keeps its default; serverFor must build the same
// configuration in process. The default 30 s checkpoint cadence puts the
// first periodic checkpoint after the run: a checkpoint's cost is
// measured by the server.checkpoint_ms probe and by the finishes that
// kick one, not by whichever requests its quiesce happens to stall.
func (w Workload) daemonArgs(model string, st stateDirs) []string {
	args := []string{
		"-addr", "127.0.0.1:0",
		"-model", model,
		"-db", st.DB,
		"-journal-dir", st.Journal,
	}
	if w.FsyncAlways {
		args = append(args, "-fsync", "always", "-fsync-group-commit")
	}
	return args
}

// localServer is an in-process daemon: the store, journal and server
// appclassd's flags produce, recovered and with its background loops
// running.
type localServer struct {
	srv *server.Server
	db  *appdb.DB
	j   *wal.Journal
}

// serverFor opens st and builds the server.Config that w.daemonArgs
// gives the daemon. It does not recover or start background loops.
func (w Workload) serverFor(in *Inputs, st stateDirs) (*localServer, error) {
	policy := wal.FsyncInterval
	if w.FsyncAlways {
		policy = wal.FsyncAlways
	}
	db, err := appdb.Open(st.DB, appstore.Options{})
	if err != nil {
		return nil, err
	}
	j, err := wal.Open(wal.Config{Dir: st.Journal, Fsync: policy, FsyncEvery: time.Second, GroupCommit: w.FsyncAlways})
	if err != nil {
		db.Close()
		return nil, err
	}
	srv, err := server.New(server.Config{
		Classifier: in.Classifier,
		Schema:     metrics.DefaultSchema(),
		DB:         db,
		Journal:    j,
	})
	if err != nil {
		j.Close()
		db.Close()
		return nil, err
	}
	return &localServer{srv: srv, db: db, j: j}, nil
}

// start recovers the journal and starts the loops appclassd starts.
func (l *localServer) start() error {
	if _, err := l.srv.Recover(); err != nil {
		return err
	}
	l.srv.StartJanitor()
	l.srv.StartCheckpointer()
	l.srv.StartRetrainer()
	l.srv.StartStoreMaint()
	l.srv.StartScrubber()
	l.srv.StartProbationWatcher()
	return nil
}

func (l *localServer) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), stopTimeout)
	defer cancel()
	err := l.srv.Shutdown(ctx)
	if cerr := l.db.Close(); err == nil {
		err = cerr
	}
	if cerr := l.j.Close(); err == nil {
		err = cerr
	}
	return err
}

// inproc serves a localServer over loopback HTTP: the smoke test's
// target, with no build and no exec. CPU and memory are this process's.
type inproc struct {
	l  *localServer
	ts *httptest.Server
}

// startInProcess starts a localServer over st and serves its handler,
// wrapped by wrap when set.
func startInProcess(in *Inputs, w Workload, st stateDirs, wrap func(http.Handler) http.Handler) (*inproc, time.Duration, error) {
	t0 := time.Now()
	l, err := w.serverFor(in, st)
	if err != nil {
		return nil, 0, err
	}
	if err := l.start(); err != nil {
		l.close()
		return nil, 0, err
	}
	h := l.srv.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	p := &inproc{l: l, ts: httptest.NewServer(h)}
	return p, time.Since(t0), nil
}

func (p *inproc) URL() string { return p.ts.URL }

func (p *inproc) Stop() error {
	p.ts.Close()
	return p.l.close()
}

func (p *inproc) Kill() error { return p.Stop() }

func (p *inproc) CPU() (time.Duration, error) { return procCPU(strconv.Itoa(os.Getpid())) }
func (p *inproc) RSSKB() (int64, error)       { return procRSS(strconv.Itoa(os.Getpid())) }
