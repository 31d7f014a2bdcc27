package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"testing"
	"time"

	"repro/internal/appdb"
	"repro/internal/appstore"
	"repro/internal/metrics"
	"repro/internal/wal"
)

// copyDir copies the regular files of src into a new directory dst.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err == nil {
			err = os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

// replayScript drives s through the journal shape parallel replay must
// get right: 20 VMs sending interleaved 8-snapshot batches, a finish
// and a reused name before checkpoint (called between the two halves;
// nil for none), then, in the tail, a finish of a session only the
// checkpoint holds, a finish right behind its VM's last batch, a
// finish mid-journal, and every finished name sending again.
func replayScript(t *testing.T, s *Server, checkpoint func()) {
	t.Helper()
	const vms, rows = 20, 8
	apps := []string{"Stream", "PostMark", "NetPIPE", "CH3D", "XSpim"}
	traces := make([]*metrics.Trace, vms)
	for i := range traces {
		traces[i] = profiledTrace(t, apps[i%len(apps)])
	}
	name := func(i int) string { return fmt.Sprintf("vm-%02d", i) }
	// VM i starts at snapshot 7i, so VMs sharing a trace differ.
	next := make([]int, vms)
	for i := range next {
		next[i] = 7 * i
	}
	batch := func(i int) {
		ingestRows(t, s, name(i), traces[i], next[i], rows)
		next[i] += rows
	}
	finish := func(i int) {
		if w := postJSON(t, s.Handler(), "/v1/vms/"+name(i)+"/finish", nil); w.Code != 200 {
			t.Fatalf("finish %s: %d %s", name(i), w.Code, w.Body.String())
		}
	}
	// At most 2W = 16 snapshots per session before the checkpoint: a
	// restored segmenter re-adds its half-window sums from the ring,
	// which equals the running sums only until the ring first shifts.
	for r := 0; r < 2; r++ {
		for i := 0; i < vms; i++ {
			batch(i)
		}
		if r == 0 {
			finish(3)
		}
	}
	if checkpoint != nil {
		checkpoint()
	}
	finish(9)
	for r := 0; r < 10; r++ {
		for i := 0; i < vms; i++ {
			batch(i)
			if r == 2 && i == 5 {
				finish(5)
			}
		}
		if r == 4 {
			finish(7)
		}
	}
}

// sessionStates returns every live session's ExportState JSON by VM.
func sessionStates(t *testing.T, s *Server) map[string]string {
	t.Helper()
	out := make(map[string]string)
	for _, vm := range s.reg.names() {
		sess, _ := s.reg.get(vm)
		sess.mu.Lock()
		b, err := json.Marshal(sess.online.ExportState())
		sess.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		out[vm] = string(b)
	}
	return out
}

// storedRuns returns the database's runs as a page of runs lists them,
// newest first, and every record of every application as JSON.
func storedRuns(t *testing.T, db *appdb.DB) ([]appdb.Row, string) {
	t.Helper()
	var rows []appdb.Row
	for cursor := uint64(0); ; {
		page, next, err := db.Scan(appdb.Filter{}, cursor, appstore.MaxScanLimit)
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, page...)
		if cursor = next; cursor == 0 {
			break
		}
	}
	recs := make(map[string][]appdb.Record)
	for _, app := range db.Apps() {
		recs[app] = db.Runs(app)
	}
	b, err := json.Marshal(recs)
	if err != nil {
		t.Fatal(err)
	}
	return rows, string(b)
}

// firstDiff shows where got and want first differ.
func firstDiff(got, want string) string {
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	from := max(i-80, 0)
	return fmt.Sprintf("at byte %d:\n got …%.200s\nwant …%.200s", i, got[from:], want[from:])
}

// TestParallelRecoverMatchesUninterruptedRun crashes a daemon after
// replayScript, with a checkpoint between its halves and every
// database append after that checkpoint lost, and recovers a copy of
// the journal and database under GOMAXPROCS 1, 2 and 8. Each recovery
// must equal the uninterrupted run: the same live sessions with the
// same exported state, the same runs in the database, once each, in
// the same Scan order, and the same RecoveryStats. The finish right
// behind its VM's last batch fails this if a finalize marker does not
// wait for the batches before it.
func TestParallelRecoverMatchesUninterruptedRun(t *testing.T) {
	frozen := time.Unix(1_700_000_000, 0)
	now := func() time.Time { return frozen }
	root := t.TempDir()

	refDB, err := appdb.Open(filepath.Join(root, "ref-db"), appstore.Options{NoFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { refDB.Close() })
	ref := newTestServer(t, Config{DB: refDB, Now: now})
	replayScript(t, ref, nil)
	wantStates := sessionStates(t, ref)
	wantRows, wantRecs := storedRuns(t, refDB)

	jdir, dbDir, dbAtCkpt := filepath.Join(root, "journal"), filepath.Join(root, "db"), filepath.Join(root, "db-at-ckpt")
	db, err := appdb.Open(dbDir, appstore.Options{NoFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	a, err := New(Config{Classifier: classifier(t), Journal: crashJournal(t, jdir), DB: db, Now: now})
	if err != nil {
		t.Fatal(err)
	}
	replayScript(t, a, func() {
		if err := a.Checkpoint(); err != nil {
			t.Fatalf("mid-run checkpoint: %v", err)
		}
		copyDir(t, dbDir, dbAtCkpt)
	})
	// kill -9: a is abandoned; the database appends after the
	// checkpoint never reached the disk, so replay redoes them.

	var first *RecoveryStats
	for _, procs := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			dir := filepath.Join(root, fmt.Sprintf("recover-%d", procs))
			copyDir(t, jdir, filepath.Join(dir, "journal"))
			copyDir(t, dbAtCkpt, filepath.Join(dir, "db"))
			db, err := appdb.Open(filepath.Join(dir, "db"), appstore.Options{NoFsync: true})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			j := crashJournal(t, filepath.Join(dir, "journal"))
			defer j.Close()
			b, err := New(Config{Classifier: classifier(t), Journal: j, DB: db, Now: now})
			if err != nil {
				t.Fatal(err)
			}
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			rs, err := b.Recover()
			if err != nil {
				t.Fatalf("recover: %v", err)
			}
			if rs.Sessions != 20 || rs.Finalized != 3 || rs.AlreadyStored != 0 || rs.Errors != 0 || rs.Records != 20*10+3 {
				t.Errorf("recovery stats %+v: want 20 sessions restored, 200 batches and 3 finishes replayed", rs)
			}
			rs.Restore, rs.Replay, rs.Checkpoint = 0, 0, 0
			if first == nil {
				first = &rs
			} else if !reflect.DeepEqual(rs, *first) {
				t.Errorf("recovery stats %+v, want %+v as under the first GOMAXPROCS", rs, *first)
			}

			got := sessionStates(t, b)
			if !slices.Equal(b.reg.names(), ref.reg.names()) {
				t.Fatalf("live sessions %v, want %v", b.reg.names(), ref.reg.names())
			}
			for vm, want := range wantStates {
				if got[vm] != want {
					t.Errorf("session %s state differs from the uninterrupted run: %s", vm, firstDiff(got[vm], want))
				}
			}
			rows, recs := storedRuns(t, db)
			if !reflect.DeepEqual(rows, wantRows) {
				t.Errorf("database runs, newest first:\n got %+v\nwant %+v", rows, wantRows)
			}
			if recs != wantRecs {
				t.Errorf("database records differ from the uninterrupted run: %s", firstDiff(recs, wantRecs))
			}
		})
	}
}

// ingestRows sends snapshots first to first+n-1 for vm in one
// request: snapshot k is taken at 5k s and carries trace row k,
// wrapping.
func ingestRows(t *testing.T, s *Server, vm string, trace *metrics.Trace, first, n int) {
	t.Helper()
	snaps := make([]any, n)
	for r := range snaps {
		k := first + r
		snaps[r] = map[string]any{"vm": vm, "time_s": 5 * k, "values": trace.At(k % trace.Len()).Values}
	}
	if w := postJSON(t, s.Handler(), "/v1/ingest", map[string]any{"snapshots": snaps}); w.Code != 200 {
		t.Fatalf("ingest %s: %d %s", vm, w.Code, w.Body.String())
	}
}

// TestCheckpointBytesMatchEnvelope: with 0, 1 and 64 sessions the
// checkpoint file is byte for byte json.Marshal of the envelope with
// the payload value inside it, sessions in the order the file lists
// them, although the sessions are encoded apart and spliced.
func TestCheckpointBytesMatchEnvelope(t *testing.T) {
	trace := profiledTrace(t, "PostMark")
	for _, n := range []int{0, 1, 64} {
		t.Run(fmt.Sprintf("sessions=%d", n), func(t *testing.T) {
			dir := t.TempDir()
			j := crashJournal(t, dir)
			defer j.Close()
			s := crashServer(t, j)
			for i := 0; i < n; i++ {
				ingestRows(t, s, fmt.Sprintf("vm-%02d", i), trace, i, 8+i%5)
			}
			if err := s.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			files := checkpointFiles(t, dir)
			if len(files) != 1 {
				t.Fatalf("checkpoint files %v, want one", files)
			}
			got, err := os.ReadFile(files[0])
			if err != nil {
				t.Fatal(err)
			}
			cp, err := wal.LatestCheckpoint(dir)
			if err != nil || cp == nil {
				t.Fatalf("LatestCheckpoint = %v, %v", cp, err)
			}
			var order checkpointPayload
			if err := json.Unmarshal(cp.Payload, &order); err != nil {
				t.Fatal(err)
			}
			var want checkpointPayload
			for _, sc := range order.Sessions {
				sess, ok := s.reg.get(sc.VM)
				if !ok {
					t.Fatalf("checkpoint holds %s, which is not live", sc.VM)
				}
				want.Sessions = append(want.Sessions, sessionCheckpoint{VM: sess.vm, LastSeenUnixNS: sess.lastSeen.UnixNano(), State: sess.online.ExportState()})
			}
			if len(want.Sessions) != n {
				t.Fatalf("checkpoint holds %d sessions, want %d", len(want.Sessions), n)
			}
			doc, err := json.Marshal(struct {
				wal.Checkpoint
				Payload any `json:"payload"`
			}{wal.Checkpoint{Seq: cp.Seq, Pos: cp.Pos, TakenAtUnixNS: cp.TakenAtUnixNS, ModelHash: cp.ModelHash}, want})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, doc) {
				t.Fatalf("checkpoint bytes differ from json.Marshal of the envelope %s", firstDiff(string(got), string(doc)))
			}
		})
	}
}

// TestRecoverFallsBackWithItsFloor: with the newest checkpoint
// unreadable, recovery starts from the older one, and the journal's
// retention floor is the older one's segment, so the closing
// checkpoint trims no segment that checkpoint replays.
func TestRecoverFallsBackWithItsFloor(t *testing.T) {
	dir := t.TempDir()
	trace := profiledTrace(t, "Stream")
	j, err := wal.Open(wal.Config{Dir: dir, Fsync: wal.FsyncNever, SegmentBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	a := crashServer(t, j)
	sent := 0
	send := func(batches int) {
		for i := 0; i < batches; i++ {
			ingestRows(t, a, "vm", trace, sent, 8)
			sent += 8
		}
	}
	send(10)
	if err := a.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	older := j.Pos()
	send(10)
	if err := a.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	newest := j.Pos()
	send(3)
	if newest.Seg <= older.Seg+1 {
		t.Fatalf("checkpoints at %+v and %+v: want segments between them", older, newest)
	}
	files := checkpointFiles(t, dir)
	if len(files) != 2 {
		t.Fatalf("checkpoint files %v, want two", files)
	}
	if err := os.WriteFile(files[1], []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}

	jb := crashJournal(t, dir)
	defer jb.Close()
	b := crashServer(t, jb)
	rs, err := b.Recover()
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if rs.CheckpointSeq != 1 || rs.Sessions != 1 || rs.Snapshots != sent-80 {
		t.Errorf("recovery stats %+v: want checkpoint 1 with 1 session and %d snapshots replayed", rs, sent-80)
	}
	if v := sessionView(t, b, "vm"); v.Total != sent {
		t.Errorf("recovered session holds %d snapshots, want %d", v.Total, sent)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "journal-*.wal"))
	if err != nil {
		t.Fatal(err)
	}
	if first := filepath.Join(dir, fmt.Sprintf("journal-%08d.wal", older.Seg)); len(segs) == 0 || segs[0] != first {
		t.Errorf("segments after recovery %v, want the first at the fallback's %s", segs, first)
	}
}

// TestRecoverTimesItsSteps: RecoveryStats carries the wall time of
// restore, replay and the closing checkpoint, which sum to no more
// than Recover's own, and /metricsz reports them.
func TestRecoverTimesItsSteps(t *testing.T) {
	dir := t.TempDir()
	trace := profiledTrace(t, "CH3D")
	a := crashServer(t, crashJournal(t, dir))
	for i := 0; i < 20; i++ {
		ingestRows(t, a, fmt.Sprintf("vm-%d", i%4), trace, i, 8)
	}
	jb := crashJournal(t, dir)
	defer jb.Close()
	b := crashServer(t, jb)
	start := time.Now()
	rs, err := b.Recover()
	wall := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Records != 20 || rs.Replay <= 0 || rs.Restore < 0 || rs.Checkpoint <= 0 {
		t.Errorf("recovery stats %+v: want 20 records replayed and positive replay and checkpoint times", rs)
	}
	if sum := rs.Restore + rs.Replay + rs.Checkpoint; sum > wall {
		t.Errorf("steps sum to %v, more than Recover's %v", sum, wall)
	}
	for step, d := range map[string]time.Duration{"restore": rs.Restore, "replay": rs.Replay, "checkpoint": rs.Checkpoint} {
		if got, want := metricszValue(t, b, `appclassd_recovery_seconds{step="`+step+`"}`), strconv.FormatFloat(d.Seconds(), 'g', -1, 64); got != want {
			t.Errorf("appclassd_recovery_seconds{step=%q} = %s, want %s", step, got, want)
		}
	}
}

// TestRecoverWalkErrorStopsWorkers: a walk that fails midway returns
// its error only after every replay worker has exited.
func TestRecoverWalkErrorStopsWorkers(t *testing.T) {
	dir := t.TempDir()
	trace := profiledTrace(t, "NetPIPE")
	a := crashServer(t, crashJournal(t, dir))
	for i := 0; i < 40; i++ {
		ingestRows(t, a, fmt.Sprintf("vm-%d", i%8), trace, i, 8)
	}
	// A directory where a later segment belongs cannot be read.
	if err := os.Mkdir(filepath.Join(dir, "journal-00000099.wal"), 0o755); err != nil {
		t.Fatal(err)
	}
	jb := crashJournal(t, dir)
	defer jb.Close()
	b := crashServer(t, jb)
	before := runtime.NumGoroutine()
	if _, err := b.Recover(); err == nil {
		t.Fatal("recover over an unreadable segment succeeded")
	}
	// Recover has returned, so its workers are gone; the wait only
	// lets a goroutine of an earlier test finish.
	after := runtime.NumGoroutine()
	for deadline := time.Now().Add(2 * time.Second); after > before && time.Now().Before(deadline); after = runtime.NumGoroutine() {
		time.Sleep(10 * time.Millisecond)
	}
	if after > before {
		t.Errorf("%d goroutines after a failed Recover, %d before", after, before)
	}
}
