package server

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/classify"
	"repro/internal/faultinject"
	"repro/internal/metrics"
	"repro/internal/wal"
)

// crashJournal opens a journal that is deliberately NOT closed by the
// test: crash tests abandon the server mid-stream to simulate kill -9,
// and an abandoned journal's writes are already visible to a fresh
// Open on the same directory.
func crashJournal(t *testing.T, dir string) *wal.Journal {
	t.Helper()
	j, err := wal.Open(wal.Config{Dir: dir, Fsync: wal.FsyncNever})
	if err != nil {
		t.Fatalf("wal.Open: %v", err)
	}
	return j
}

// crashServer builds a journaled server without registering a Shutdown
// cleanup, so "crashing" it is just dropping it on the floor.
func crashServer(t *testing.T, j *wal.Journal) *Server {
	t.Helper()
	s, err := New(Config{Classifier: classifier(t), Journal: j})
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	return s
}

// ingestTraceRange pushes trace snapshots [start, end) for vm through
// the HTTP ingest API in fixed-size batches.
func ingestTraceRange(t *testing.T, s *Server, vm string, trace *metrics.Trace, start, end int) {
	t.Helper()
	const batchSize = 25
	for lo := start; lo < end; lo += batchSize {
		hi := lo + batchSize
		if hi > end {
			hi = end
		}
		var snaps []any
		for i := lo; i < hi; i++ {
			sn := trace.At(i)
			snaps = append(snaps, map[string]any{"vm": vm, "time_s": sn.Time.Seconds(), "values": sn.Values})
		}
		w := postJSON(t, s.Handler(), "/v1/ingest", map[string]any{"snapshots": snaps})
		if w.Code != 200 {
			t.Fatalf("ingest batch at %d: %d %s", lo, w.Code, w.Body.String())
		}
	}
}

// sessionView snapshots a live session's online state.
func sessionView(t *testing.T, s *Server, vm string) classify.View {
	t.Helper()
	sess, ok := s.reg.get(vm)
	if !ok {
		t.Fatalf("no live session for %s", vm)
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	return sess.online.Snapshot()
}

// TestCrashRecoveryMatchesUninterruptedRun is the acceptance path for
// durable ingest: stream half a labeled testbed trace into a journaled
// daemon, checkpoint partway, kill it mid-stream (no shutdown), start a
// fresh daemon on the same journal directory, recover, stream the rest
// — the final class, composition, and snapshot count must equal an
// uninterrupted run's.
func TestCrashRecoveryMatchesUninterruptedRun(t *testing.T) {
	trace := profiledTrace(t, "Stream")
	vm := "crash-vm"
	half := trace.Len() / 2

	// Reference: the same trace through an uninterrupted daemon.
	ref := newTestServer(t, Config{})
	ingestTraceRange(t, ref, vm, trace, 0, trace.Len())
	refSess, ok := ref.reg.get(vm)
	if !ok {
		t.Fatal("no reference session")
	}
	refSess.mu.Lock()
	want := refSess.online.Snapshot()
	refSess.mu.Unlock()

	// Crash run: ingest a quarter, checkpoint, ingest to half, die.
	dir := t.TempDir()
	a := crashServer(t, crashJournal(t, dir))
	ingestTraceRange(t, a, vm, trace, 0, half/2)
	if err := a.Checkpoint(); err != nil {
		t.Fatalf("mid-run checkpoint: %v", err)
	}
	ingestTraceRange(t, a, vm, trace, half/2, half)
	// kill -9: server a is abandoned with sessions live and journal open.

	// Recovery run: fresh server, same journal directory.
	jb, err := wal.Open(wal.Config{Dir: dir, Fsync: wal.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { jb.Close() })
	b := newTestServer(t, Config{Journal: jb})
	rs, err := b.Recover()
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if rs.Sessions != 1 {
		t.Errorf("recovered %d sessions from checkpoint, want 1", rs.Sessions)
	}
	if rs.Records == 0 || rs.Snapshots == 0 {
		t.Errorf("replayed %d records / %d snapshots, want a journal tail past the checkpoint", rs.Records, rs.Snapshots)
	}
	if rs.Snapshots+half/2 != half {
		t.Errorf("checkpoint covered %d + replayed %d snapshots, want %d total", half/2, rs.Snapshots, half)
	}
	if rs.Errors != 0 || rs.Truncated {
		t.Errorf("recovery stats %+v: want no errors, no torn tail", rs)
	}

	ingestTraceRange(t, b, vm, trace, half, trace.Len())

	sess, ok := b.reg.get(vm)
	if !ok {
		t.Fatal("no recovered session")
	}
	sess.mu.Lock()
	got := sess.online.Snapshot()
	sess.mu.Unlock()
	if got.Class != want.Class {
		t.Errorf("recovered class %q, uninterrupted %q", got.Class, want.Class)
	}
	if got.Total != want.Total {
		t.Errorf("recovered total %d, uninterrupted %d", got.Total, want.Total)
	}
	if got.FirstAt != want.FirstAt || got.LastAt != want.LastAt {
		t.Errorf("recovered span [%v, %v], uninterrupted [%v, %v]", got.FirstAt, got.LastAt, want.FirstAt, want.LastAt)
	}
	for c, f := range want.Composition {
		if g := got.Composition[c]; math.Abs(g-f) > 1e-12 {
			t.Errorf("composition[%s] = %v, uninterrupted %v", c, g, f)
		}
	}
	if math.Abs(got.Drift-want.Drift) > 1e-9 {
		t.Errorf("recovered drift %v, uninterrupted %v", got.Drift, want.Drift)
	}
}

// TestCrashRecoveryFromJournalOnly recovers with no checkpoint on disk:
// everything comes from replaying the journal from the start.
func TestCrashRecoveryFromJournalOnly(t *testing.T) {
	dir := t.TempDir()
	a := crashServer(t, crashJournal(t, dir))
	for i := 0; i < 6; i++ {
		w := postJSON(t, a.Handler(), "/v1/ingest", map[string]any{"snapshots": []any{
			zeroSnapshot("j-vm", float64(i*5)),
		}})
		if w.Code != 200 {
			t.Fatalf("ingest: %d", w.Code)
		}
	}
	// Crash with no checkpoint ever taken.

	jb, err := wal.Open(wal.Config{Dir: dir, Fsync: wal.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { jb.Close() })
	b := newTestServer(t, Config{Journal: jb})
	rs, err := b.Recover()
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if rs.CheckpointSeq != 0 || rs.Sessions != 0 {
		t.Errorf("recovery used checkpoint %d with %d sessions, want none", rs.CheckpointSeq, rs.Sessions)
	}
	if rs.Snapshots != 6 {
		t.Errorf("replayed %d snapshots, want 6", rs.Snapshots)
	}
	view := sessionView(t, b, "j-vm")
	if view.Total != 6 {
		t.Errorf("recovered session saw %d snapshots, want 6", view.Total)
	}
}

// TestRecoverHonorsFinalizeRecords replays a journal whose tail ends a
// session: the VM must not come back live, and its record must land in
// the (restarted, empty) application database again.
func TestRecoverHonorsFinalizeRecords(t *testing.T) {
	dir := t.TempDir()
	a := crashServer(t, crashJournal(t, dir))
	for _, vm := range []string{"done-vm", "live-vm"} {
		w := postJSON(t, a.Handler(), "/v1/ingest", map[string]any{"snapshots": []any{
			zeroSnapshot(vm, 0), zeroSnapshot(vm, 5),
		}})
		if w.Code != 200 {
			t.Fatalf("ingest %s: %d", vm, w.Code)
		}
	}
	w := postJSON(t, a.Handler(), "/v1/vms/done-vm/finish", nil)
	if w.Code != 200 {
		t.Fatalf("finish: %d %s", w.Code, w.Body.String())
	}
	// Crash after the finish: its db record (in-memory) is lost.

	jb, err := wal.Open(wal.Config{Dir: dir, Fsync: wal.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { jb.Close() })
	b := newTestServer(t, Config{Journal: jb})
	rs, err := b.Recover()
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if rs.Finalized != 1 {
		t.Errorf("recovery finalized %d sessions, want 1 (stats %+v)", rs.Finalized, rs)
	}
	if _, ok := b.reg.get("done-vm"); ok {
		t.Error("finished vm resurrected by replay")
	}
	if _, ok := b.reg.get("live-vm"); !ok {
		t.Error("live vm not recovered")
	}
	rec, err := b.DB().Latest("done-vm")
	if err != nil {
		t.Fatalf("replay did not re-finalize into db: %v", err)
	}
	if rec.Samples != 2 {
		t.Errorf("re-finalized record has %d samples, want 2", rec.Samples)
	}
}

// TestShutdownWritesFinalCheckpoint: after a clean shutdown, recovery
// is a no-op — the final checkpoint has no sessions and covers every
// journal record (including the shutdown flush markers).
func TestShutdownWritesFinalCheckpoint(t *testing.T) {
	dir := t.TempDir()
	ja := crashJournal(t, dir)
	a := crashServer(t, ja)
	w := postJSON(t, a.Handler(), "/v1/ingest", map[string]any{"snapshots": []any{
		zeroSnapshot("clean-vm", 0), zeroSnapshot("clean-vm", 5),
	}})
	if w.Code != 200 {
		t.Fatalf("ingest: %d", w.Code)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := a.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := ja.Close(); err != nil {
		t.Fatalf("journal close: %v", err)
	}

	cp, err := wal.LatestCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if cp == nil {
		t.Fatal("clean shutdown left no checkpoint")
	}
	var payload checkpointPayload
	if err := json.Unmarshal(cp.Payload, &payload); err != nil {
		t.Fatal(err)
	}
	if len(payload.Sessions) != 0 {
		t.Errorf("final checkpoint holds %d sessions, want 0", len(payload.Sessions))
	}

	jb, err := wal.Open(wal.Config{Dir: dir, Fsync: wal.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { jb.Close() })
	b := newTestServer(t, Config{Journal: jb})
	rs, err := b.Recover()
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if rs.Sessions != 0 || rs.Records != 0 {
		t.Errorf("clean restart replayed %d sessions + %d records, want nothing (stats %+v)", rs.Sessions, rs.Records, rs)
	}
}

// TestRecoverSurvivesTornTail cuts the abandoned journal's active
// segment mid-record, as a crash during a write would; recovery stops
// at the last valid record instead of failing.
func TestRecoverSurvivesTornTail(t *testing.T) {
	dir := t.TempDir()
	a := crashServer(t, crashJournal(t, dir))
	for i := 0; i < 4; i++ {
		w := postJSON(t, a.Handler(), "/v1/ingest", map[string]any{"snapshots": []any{
			zeroSnapshot("torn-vm", float64(i*5)),
		}})
		if w.Code != 200 {
			t.Fatalf("ingest: %d", w.Code)
		}
	}
	// Tear the last record: chop 3 bytes off the only segment.
	segs, err := filepath.Glob(filepath.Join(dir, "journal-*.wal"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments %v (err %v), want exactly one", segs, err)
	}
	st, err := os.Stat(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(segs[0], st.Size()-3); err != nil {
		t.Fatal(err)
	}

	jb, err := wal.Open(wal.Config{Dir: dir, Fsync: wal.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { jb.Close() })
	b := newTestServer(t, Config{Journal: jb})
	rs, err := b.Recover()
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if !rs.Truncated {
		t.Error("recovery did not report the torn tail")
	}
	if rs.Snapshots != 3 {
		t.Errorf("replayed %d snapshots, want 3 (last record torn)", rs.Snapshots)
	}
	view := sessionView(t, b, "torn-vm")
	if view.Total != 3 {
		t.Errorf("recovered session saw %d snapshots, want 3", view.Total)
	}
}

// TestDoubleCrashRecovery is the double-crash hole: crash #1 leaves a
// torn tail, the restart recovers and appends new records into a fresh
// segment, then crash #2 hits before any periodic checkpoint. Recovery
// must deliver BOTH the pre-tear records and everything appended after
// the first restart — an unrepaired tear in the now-non-final segment
// would silently swallow the post-restart records.
func TestDoubleCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	vm := "dc-vm"

	// Run A: 4 snapshots, then kill -9 with a torn tail.
	a := crashServer(t, crashJournal(t, dir))
	for i := 0; i < 4; i++ {
		w := postJSON(t, a.Handler(), "/v1/ingest", map[string]any{"snapshots": []any{
			zeroSnapshot(vm, float64(i*5)),
		}})
		if w.Code != 200 {
			t.Fatalf("ingest: %d", w.Code)
		}
	}
	segs, err := filepath.Glob(filepath.Join(dir, "journal-*.wal"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments %v (err %v), want exactly one", segs, err)
	}
	st, err := os.Stat(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(segs[0], st.Size()-3); err != nil {
		t.Fatal(err)
	}

	// Run B: recover (repairs the tear, 3 of 4 snapshots survive), then
	// ingest 2 more — these land in B's fresh segment — and kill -9
	// again before any periodic checkpoint could run.
	jb := crashJournal(t, dir)
	b := crashServer(t, jb)
	rs, err := b.Recover()
	if err != nil {
		t.Fatalf("recover B: %v", err)
	}
	if !rs.Truncated || rs.Snapshots != 3 {
		t.Fatalf("recovery B stats %+v, want torn tail repaired and 3 snapshots", rs)
	}
	if cp, err := wal.LatestCheckpoint(dir); err != nil || cp == nil {
		t.Fatalf("recovery left no post-recovery checkpoint (cp %v, err %v)", cp, err)
	}
	for i := 4; i < 6; i++ {
		w := postJSON(t, b.Handler(), "/v1/ingest", map[string]any{"snapshots": []any{
			zeroSnapshot(vm, float64(i*5)),
		}})
		if w.Code != 200 {
			t.Fatalf("ingest B: %d", w.Code)
		}
	}

	// Run C: everything must come back — 3 surviving pre-tear snapshots
	// plus the 2 appended after the first restart.
	jc := crashJournal(t, dir)
	t.Cleanup(func() { jc.Close() })
	c := newTestServer(t, Config{Journal: jc})
	rsc, err := c.Recover()
	if err != nil {
		t.Fatalf("recover C: %v", err)
	}
	if len(rsc.GapSegments) != 0 {
		t.Errorf("recovery C reported gaps %v, want none", rsc.GapSegments)
	}
	if view := sessionView(t, c, vm); view.Total != 5 {
		t.Errorf("recovered session saw %d snapshots, want 5 (3 pre-tear + 2 post-restart)", view.Total)
	}

	// The repaired journal alone (no checkpoints at all) must tell the
	// same story: the tear was cut on disk, not merely skipped over.
	ckpts, err := filepath.Glob(filepath.Join(dir, "checkpoint-*.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range ckpts {
		if err := os.Remove(p); err != nil {
			t.Fatal(err)
		}
	}
	jd := crashJournal(t, dir)
	t.Cleanup(func() { jd.Close() })
	d := newTestServer(t, Config{Journal: jd})
	rsd, err := d.Recover()
	if err != nil {
		t.Fatalf("recover D: %v", err)
	}
	if rsd.Snapshots != 5 {
		t.Errorf("checkpoint-free replay delivered %d snapshots, want 5", rsd.Snapshots)
	}
}

// crashMidRotation runs a journaled daemon that ingests n one-snapshot
// batches for vm into segment 1 and then dies while rotating: segment 2
// exists but its header never reached the disk. It returns segment 1's
// path.
func crashMidRotation(t *testing.T, dir, vm string, n int) string {
	t.Helper()
	a := crashServer(t, crashJournal(t, dir))
	for i := 0; i < n; i++ {
		w := postJSON(t, a.Handler(), "/v1/ingest", map[string]any{"snapshots": []any{
			zeroSnapshot(vm, float64(i*5)),
		}})
		if w.Code != 200 {
			t.Fatalf("ingest: %d", w.Code)
		}
	}
	seg1 := filepath.Join(dir, "journal-00000001.wal")
	if err := os.WriteFile(filepath.Join(dir, "journal-00000002.wal"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	return seg1
}

// TestRecoverShortHeaderSegmentIsNotAGap: a segment created but killed
// before its header was written never held a record, so recovery
// removes it without calling the hole it leaves a gap.
func TestRecoverShortHeaderSegmentIsNotAGap(t *testing.T) {
	dir := t.TempDir()
	vm := "rot-vm"
	crashMidRotation(t, dir, vm, 4)

	jb := crashJournal(t, dir)
	t.Cleanup(func() { jb.Close() })
	b := newTestServer(t, Config{Journal: jb})
	rs, err := b.Recover()
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if rs.Snapshots != 4 {
		t.Errorf("replayed %d snapshots, want all 4", rs.Snapshots)
	}
	if view := sessionView(t, b, vm); view.Total != 4 {
		t.Errorf("recovered session saw %d snapshots, want 4", view.Total)
	}
	if len(rs.GapSegments) != 0 {
		t.Errorf("GapSegments = %v, want none: the headerless segment never held a record", rs.GapSegments)
	}
	if n := b.counters.journalGapSegments.Load(); n != 0 {
		t.Errorf("appclassd_journal_gap_segments_total = %d, want 0", n)
	}
}

// TestRecoverStatsMatchDisk: after recovery cuts a torn tail and
// removes a headerless segment, the journal's stats — which feed the
// depth gauges and the -journal-max-bytes retention total — count the
// segment files actually on disk.
func TestRecoverStatsMatchDisk(t *testing.T) {
	dir := t.TempDir()
	seg1 := crashMidRotation(t, dir, "stats-vm", 4)
	st, err := os.Stat(seg1)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg1, st.Size()-3); err != nil {
		t.Fatal(err)
	}

	jb := crashJournal(t, dir)
	t.Cleanup(func() { jb.Close() })
	b := newTestServer(t, Config{Journal: jb})
	rs, err := b.Recover()
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if !rs.Truncated || rs.Snapshots != 3 {
		t.Errorf("recovery stats %+v, want the torn tail cut and 3 snapshots", rs)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "journal-*.wal"))
	if err != nil {
		t.Fatal(err)
	}
	var bytes int64
	for _, p := range segs {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		bytes += fi.Size()
	}
	if js := jb.Stats(); js.Segments != len(segs) || js.Bytes != bytes {
		t.Errorf("Stats() = %d segment(s), %d bytes; disk has %d segment(s), %d bytes", js.Segments, js.Bytes, len(segs), bytes)
	}
}

// TestFinalizeIsWriteAhead: when the finalize marker cannot be
// journaled, the finalization must not proceed — no registry removal,
// no database record — so the in-memory state never outruns the
// journal.
func TestFinalizeIsWriteAhead(t *testing.T) {
	dir := t.TempDir()
	j := crashJournal(t, dir)
	// crashServer, not newTestServer: the deliberately-broken journal
	// would (correctly) make the cleanup Shutdown report a sync error.
	s := crashServer(t, j)
	w := postJSON(t, s.Handler(), "/v1/ingest", map[string]any{"snapshots": []any{
		zeroSnapshot("wa-vm", 0),
	}})
	if w.Code != 200 {
		t.Fatalf("ingest: %d", w.Code)
	}
	// Break the journal: every append now fails.
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	w = postJSON(t, s.Handler(), "/v1/vms/wa-vm/finish", nil)
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("finish with broken journal = %d, want 500 (%s)", w.Code, w.Body.String())
	}
	if _, ok := s.reg.get("wa-vm"); !ok {
		t.Error("session finalized despite unjournaled marker")
	}
	if _, err := s.DB().Latest("wa-vm"); err == nil {
		t.Error("database record written despite unjournaled finalize marker")
	}
}

// TestCheckpointQuiesceUnderConcurrentIngest hammers a journaled daemon
// from many goroutines while checkpoints race the stream, then crashes
// it and recovers: the checkpoint cut plus the journal tail must
// account for every snapshot exactly once. Run under -race this is the
// ckptMu torture test.
func TestCheckpointQuiesceUnderConcurrentIngest(t *testing.T) {
	const (
		goroutines = 20
		perG       = 10
		vmPool     = 5
	)
	dir := t.TempDir()
	a := crashServer(t, crashJournal(t, dir))
	ts := httptest.NewServer(a.Handler())
	defer ts.Close()

	var wg sync.WaitGroup
	errc := make(chan error, goroutines+1)
	stop := make(chan struct{})
	ckptDone := make(chan struct{})
	go func() {
		defer close(ckptDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := a.Checkpoint(); err != nil {
				errc <- err
				return
			}
		}
	}()
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			vm := fmt.Sprintf("quiesce-vm-%d", g%vmPool)
			for i := 0; i < perG; i++ {
				w := postJSON(t, a.Handler(), "/v1/ingest", map[string]any{"snapshots": []any{
					zeroSnapshot(vm, float64(g*perG+i)),
				}})
				if w.Code != 200 {
					errc <- fmt.Errorf("vm %s: status %d", vm, w.Code)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	<-ckptDone
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	// Crash; recover on a fresh server.

	jb, err := wal.Open(wal.Config{Dir: dir, Fsync: wal.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { jb.Close() })
	b := newTestServer(t, Config{Journal: jb})
	if _, err := b.Recover(); err != nil {
		t.Fatalf("recover: %v", err)
	}
	total := 0
	for _, sess := range b.reg.all() {
		sess.mu.Lock()
		total += sess.online.Seen()
		sess.mu.Unlock()
	}
	if total != goroutines*perG {
		t.Errorf("recovered sessions hold %d snapshots, want %d (checkpoint/replay double-apply or loss)", total, goroutines*perG)
	}
	if b.Sessions() != vmPool {
		t.Errorf("recovered %d sessions, want %d", b.Sessions(), vmPool)
	}
}

// TestMetricszExposesDurabilityGauges checks the journal-depth and
// history-retention gauges appear once a journal is configured.
func TestMetricszExposesDurabilityGauges(t *testing.T) {
	dir := t.TempDir()
	j, err := wal.Open(wal.Config{Dir: dir, Fsync: wal.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	s := newTestServer(t, Config{Journal: j})
	w := postJSON(t, s.Handler(), "/v1/ingest", map[string]any{"snapshots": []any{zeroSnapshot("g-vm", 0)}})
	if w.Code != 200 {
		t.Fatalf("ingest: %d", w.Code)
	}
	req := httptest.NewRequest(http.MethodGet, "/metricsz", nil)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	body := rec.Body.String()
	for _, want := range []string{
		"appclassd_journal_records_total 1",
		"appclassd_journal_errors_total 0",
		"appclassd_journal_segments 1",
		"appclassd_journal_bytes ",
		"appclassd_journal_last_fsync_age_seconds ",
		"appclassd_journal_truncated_segments_total 0",
		"appclassd_journal_gap_segments_total 0",
		"appclassd_journal_appends_total 1",
		"appclassd_journal_syncs_total ",
		"appclassd_journal_rotations_total 0",
		"appclassd_history_dropped 0",
		"appclassd_checkpoints_total 0",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metricsz missing %q", want)
		}
	}
	if strings.Contains(body, "appclassd_journal_last_fsync_age_seconds -1") {
		t.Error("fsync=always reported no fsync yet")
	}
}

// TestCheckpointerLoopTakesCheckpoints runs the background checkpointer
// on a short cadence and waits for a checkpoint file to appear, then
// confirms finalization kicks one promptly.
func TestCheckpointerLoopTakesCheckpoints(t *testing.T) {
	dir := t.TempDir()
	j, err := wal.Open(wal.Config{Dir: dir, Fsync: wal.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	s := newTestServer(t, Config{Journal: j, CheckpointEvery: 10 * time.Millisecond})
	s.StartCheckpointer()
	w := postJSON(t, s.Handler(), "/v1/ingest", map[string]any{"snapshots": []any{zeroSnapshot("tick-vm", 0)}})
	if w.Code != 200 {
		t.Fatalf("ingest: %d", w.Code)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		cp, err := wal.LatestCheckpoint(dir)
		if err != nil {
			t.Fatal(err)
		}
		if cp != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("checkpointer never wrote a checkpoint")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := s.counters.checkpoints.Load(); got == 0 {
		t.Error("checkpoints counter still zero")
	}
}

// TestFsyncFailedBatchAbsentAfterRecovery pins the fsync-failure rule
// end to end, with and without group commit: a batch rejected because
// its fsync failed is cut from the journal, so the session recovered
// after a crash holds exactly the acknowledged batches — a prefix of
// what the clients were told succeeded.
func TestFsyncFailedBatchAbsentAfterRecovery(t *testing.T) {
	for _, group := range []bool{false, true} {
		t.Run(fmt.Sprintf("group-commit=%v", group), func(t *testing.T) {
			dir := t.TempDir()
			fs := faultinject.NewFS()
			j, err := wal.Open(wal.Config{Dir: dir, Fsync: wal.FsyncAlways, GroupCommit: group, OpenSegmentFile: fs.OpenSegmentFile})
			if err != nil {
				t.Fatal(err)
			}
			a := crashServer(t, j)
			ingest := func(at float64) int {
				return postJSON(t, a.Handler(), "/v1/ingest", map[string]any{"snapshots": []any{zeroSnapshot("f-vm", at)}}).Code
			}
			if code := ingest(0); code != 200 {
				t.Fatalf("healthy ingest = %d", code)
			}
			fs.FailSyncs(syscall.EIO)
			if code := ingest(5); code != 500 {
				t.Fatalf("ingest with a failing fsync = %d, want 500", code)
			}
			fs.FailSyncs(nil)
			if code := ingest(10); code != 200 {
				t.Fatalf("ingest after the fault healed = %d", code)
			}
			// Crash: abandon a without shutdown and recover on the same dir.
			jb, err := wal.Open(wal.Config{Dir: dir, Fsync: wal.FsyncNever})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { jb.Close() })
			b := newTestServer(t, Config{Journal: jb})
			if _, err := b.Recover(); err != nil {
				t.Fatalf("recover: %v", err)
			}
			if view := sessionView(t, b, "f-vm"); view.Total != 2 {
				t.Errorf("recovered session saw %d snapshots, want the 2 acknowledged", view.Total)
			}
		})
	}
}
