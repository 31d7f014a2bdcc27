package server

import (
	"errors"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/appdb"
	"repro/internal/appstore"
	"repro/internal/wal"
)

// finishRig is a journaled server over a store-backed database, the
// daemon's layout, with a session to finish and one that stays live.
// Crashing it is dropping the server and journal without a checkpoint.
type finishRig struct {
	dir, dbDir string
	db         *appdb.DB
	s          *Server
}

func newFinishRig(t *testing.T, noFsync bool) *finishRig {
	t.Helper()
	root := t.TempDir()
	r := &finishRig{dir: filepath.Join(root, "journal"), dbDir: filepath.Join(root, "db")}
	var err error
	if r.db, err = appdb.Open(r.dbDir, appstore.Options{NoFsync: noFsync}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.db.Close() })
	if r.s, err = New(Config{Classifier: classifier(t), Journal: crashJournal(t, r.dir), DB: r.db}); err != nil {
		t.Fatal(err)
	}
	for _, vm := range []string{"done-vm", "live-vm"} {
		w := postJSON(t, r.s.Handler(), "/v1/ingest", map[string]any{"snapshots": []any{
			zeroSnapshot(vm, 0), zeroSnapshot(vm, 5),
		}})
		if w.Code != 200 {
			t.Fatalf("ingest %s: %d %s", vm, w.Code, w.Body.String())
		}
	}
	return r
}

// storeTail names the store's newest segment and its size.
func storeTail(t *testing.T, dbDir string) (string, int64) {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dbDir, "store-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("store segments %v (err %v)", segs, err)
	}
	path := segs[len(segs)-1]
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, fi.Size()
}

// recoverRig starts a fresh server on the rig's journal and store and
// recovers it.
func recoverRig(t *testing.T, r *finishRig) (*Server, *appdb.DB, RecoveryStats) {
	t.Helper()
	db, err := appdb.Open(r.dbDir, appstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	s, err := New(Config{Classifier: classifier(t), Journal: crashJournal(t, r.dir), DB: db})
	if err != nil {
		t.Fatal(err)
	}
	rs, err := s.Recover()
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	return s, db, rs
}

// finalizeStamp returns the stamp of the journal's one finalize marker.
func finalizeStamp(t *testing.T, dir string) int64 {
	t.Helper()
	var stamps []int64
	if _, err := wal.Replay(dir, wal.Position{}, func(_ wal.Position, rec wal.Record) error {
		if rec.Type == wal.RecordFinalize {
			stamps = append(stamps, rec.At)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(stamps) != 1 || stamps[0] == 0 {
		t.Fatalf("journal finalize stamps = %v, want one nonzero", stamps)
	}
	return stamps[0]
}

// checkFinishedOnce asserts the end state of every crash point: the
// database holds the finished run exactly once, stamped as its marker,
// and only the unfinished session is live.
func checkFinishedOnce(t *testing.T, s *Server, db *appdb.DB, stamp int64) {
	t.Helper()
	runs := db.Runs("done-vm")
	if len(runs) != 1 {
		t.Fatalf("database holds %d records of the finished run, want 1", len(runs))
	}
	if runs[0].Samples != 2 {
		t.Errorf("stored record has %d samples, want 2", runs[0].Samples)
	}
	if stamp != 0 && runs[0].FinalizedAt != stamp {
		t.Errorf("stored record finalized at %d, want the marker's stamp %d", runs[0].FinalizedAt, stamp)
	}
	if _, ok := s.reg.get("done-vm"); ok {
		t.Error("finished session is live after recovery")
	}
	if _, ok := s.reg.get("live-vm"); !ok {
		t.Error("unfinished session was not recovered")
	}
}

// TestFinishExactlyOnceAcrossCrash crashes a finish after each of its
// steps — the marker, the record append before its fsync (with the
// record kept by the page cache and with it lost), the fsync, and the
// checkpoint — and recovers a fresh server on the same journal and
// store. However far the finish got, the run is stored once and its
// session is gone. Before stamped markers the after-fsync case, where
// the client saw 200, stored the run twice.
func TestFinishExactlyOnceAcrossCrash(t *testing.T) {
	for _, tc := range []struct {
		name    string
		noFsync bool
		// before runs ahead of the finish, after it; both may be nil.
		before func(t *testing.T, r *finishRig)
		after  func(t *testing.T, r *finishRig, tail string, size int64)
		// stored is whether the record is on disk at the crash.
		stored bool
	}{
		{name: "after-marker", before: func(t *testing.T, r *finishRig) {
			// The store refuses the append: the marker is journaled, the
			// record never written.
			r.db.Close()
		}},
		{name: "after-append-unsynced-kept", noFsync: true, stored: true},
		{name: "after-append-unsynced-lost", noFsync: true, after: func(t *testing.T, r *finishRig, tail string, size int64) {
			r.db.Close()
			if err := os.Truncate(tail, size); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "after-fsync", stored: true},
		{name: "after-checkpoint", stored: true, after: func(t *testing.T, r *finishRig, _ string, _ int64) {
			if err := r.s.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newFinishRig(t, tc.noFsync)
			tail, size := storeTail(t, r.dbDir)
			if tc.before != nil {
				tc.before(t, r)
			}
			w := postJSON(t, r.s.Handler(), "/v1/vms/done-vm/finish", nil)
			if want := map[bool]int{true: http.StatusOK, false: http.StatusInternalServerError}[tc.before == nil]; w.Code != want {
				t.Fatalf("finish = %d, want %d (%s)", w.Code, want, w.Body.String())
			}
			stamp := finalizeStamp(t, r.dir)
			if tc.after != nil {
				tc.after(t, r, tail, size)
			}
			r.db.Close() // the crash: no Shutdown, no final checkpoint

			s, db, rs := recoverRig(t, r)
			checkFinishedOnce(t, s, db, stamp)
			switch {
			case tc.name == "after-checkpoint":
				if rs.Finalized != 0 || rs.AlreadyStored != 0 {
					t.Errorf("recovery past the checkpoint replayed the finish: %+v", rs)
				}
			case tc.stored:
				if rs.Finalized != 0 || rs.AlreadyStored != 1 {
					t.Errorf("recovery stats %+v, want the marker skipped as already stored", rs)
				}
			default:
				if rs.Finalized != 1 || rs.AlreadyStored != 0 {
					t.Errorf("recovery stats %+v, want the finish redone", rs)
				}
			}
		})
	}
}

// TestFinishCrashDuringRecoveryIsIdempotent crashes recovery itself
// after it re-finalized a finish but before its own checkpoint landed
// (the checkpoint file is removed), and recovers again: the second
// recovery finds the record the first one stored under the marker's
// stamp, so the run is still stored once.
func TestFinishCrashDuringRecoveryIsIdempotent(t *testing.T) {
	r := newFinishRig(t, false)
	r.db.Close() // crash after the marker: no record stored
	if w := postJSON(t, r.s.Handler(), "/v1/vms/done-vm/finish", nil); w.Code != http.StatusInternalServerError {
		t.Fatalf("finish = %d, want 500 (%s)", w.Code, w.Body.String())
	}
	stamp := finalizeStamp(t, r.dir)

	_, db, rs := recoverRig(t, r)
	if rs.Finalized != 1 {
		t.Fatalf("first recovery stats %+v, want the finish redone", rs)
	}
	db.Close()
	ckpts, err := filepath.Glob(filepath.Join(r.dir, "checkpoint-*.ckpt"))
	if err != nil || len(ckpts) != 1 {
		t.Fatalf("checkpoints after recovery %v (err %v), want recovery's own", ckpts, err)
	}
	if err := os.Remove(ckpts[0]); err != nil {
		t.Fatal(err)
	}

	s, db, rs := recoverRig(t, r)
	if rs.Finalized != 0 || rs.AlreadyStored != 1 {
		t.Errorf("second recovery stats %+v, want the marker skipped as already stored", rs)
	}
	checkFinishedOnce(t, s, db, stamp)
}

// TestRecoverUnstampedFinalizeMarker: a finalize marker in the layout
// before stamping (no stamp) still re-finalizes its session on replay,
// with a fresh stamp.
func TestRecoverUnstampedFinalizeMarker(t *testing.T) {
	r := newFinishRig(t, false)
	if _, err := r.s.cfg.Journal.AppendFinalize("done-vm", 0); err != nil {
		t.Fatal(err)
	}
	r.db.Close()

	s, db, rs := recoverRig(t, r)
	if rs.Finalized != 1 || rs.AlreadyStored != 0 {
		t.Errorf("recovery stats %+v, want the unstamped finish redone", rs)
	}
	checkFinishedOnce(t, s, db, 0)
	if db.Runs("done-vm")[0].FinalizedAt == 0 {
		t.Error("re-finalized record is unstamped")
	}
}

// TestFinishStampsStrictlyIncrease: a frozen clock cannot repeat a
// finalize stamp, so two finishes of one application stay two runs to
// replay.
func TestFinishStampsStrictlyIncrease(t *testing.T) {
	frozen := time.Unix(1_760_000_000, 0)
	s := newTestServer(t, Config{Now: func() time.Time { return frozen }})
	for i := 0; i < 3; i++ {
		if w := postJSON(t, s.Handler(), "/v1/ingest", map[string]any{"snapshots": []any{zeroSnapshot("vm", float64(i))}}); w.Code != 200 {
			t.Fatalf("ingest: %d", w.Code)
		}
		if w := postJSON(t, s.Handler(), "/v1/vms/vm/finish", nil); w.Code != 200 {
			t.Fatalf("finish: %d %s", w.Code, w.Body.String())
		}
	}
	runs := s.DB().Runs("vm")
	if len(runs) != 3 {
		t.Fatalf("%d runs, want 3", len(runs))
	}
	for i, r := range runs {
		if want := frozen.UnixNano() + int64(i); r.FinalizedAt != want {
			t.Errorf("run %d finalized at %d, want %d", i, r.FinalizedAt, want)
		}
	}
}

// TestRecoverMovesStampFloor: a recovered server stamps its finishes
// after every stamp it replayed, so a clock that stepped back across
// the restart cannot repeat one.
func TestRecoverMovesStampFloor(t *testing.T) {
	r := newFinishRig(t, false)
	replayed := time.Now().Add(time.Hour).UnixNano()
	if _, err := r.s.cfg.Journal.AppendFinalize("done-vm", replayed); err != nil {
		t.Fatal(err)
	}
	r.db.Close()
	s, _, rs := recoverRig(t, r)
	if rs.Finalized != 1 {
		t.Fatalf("recovery stats %+v, want the stamped finish redone", rs)
	}
	if at := s.stamp(); at <= replayed {
		t.Errorf("stamp after recovery %d, want past the replayed %d", at, replayed)
	}
}

// TestFinishTakesNoCheckpoint: finishes leave checkpointing to the
// periodic loop — with a cadence longer than the test, N finishes take
// no checkpoint — while leaving degraded durability still kicks one.
func TestFinishTakesNoCheckpoint(t *testing.T) {
	dir := t.TempDir()
	j, err := wal.Open(wal.Config{Dir: dir, Fsync: wal.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	s := newTestServer(t, Config{Journal: j, CheckpointEvery: time.Hour})
	s.StartCheckpointer()
	for i := 0; i < 5; i++ {
		if w := postJSON(t, s.Handler(), "/v1/ingest", map[string]any{"snapshots": []any{zeroSnapshot("vm", float64(i))}}); w.Code != 200 {
			t.Fatalf("ingest: %d", w.Code)
		}
		if w := postJSON(t, s.Handler(), "/v1/vms/vm/finish", nil); w.Code != 200 {
			t.Fatalf("finish: %d %s", w.Code, w.Body.String())
		}
	}
	time.Sleep(50 * time.Millisecond) // room for a stray kick to land
	if got := s.counters.checkpoints.Load(); got != 0 {
		t.Fatalf("5 finishes took %d checkpoint(s), want 0", got)
	}

	s.enterDegraded(errors.New("injected"))
	s.exitDegraded()
	for deadline := time.Now().Add(5 * time.Second); s.counters.checkpoints.Load() == 0; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("leaving degraded durability took no checkpoint")
		}
	}
}
