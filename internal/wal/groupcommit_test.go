package wal

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// slowSyncFile wraps a segment file so every fsync takes a fixed
// latency and is counted — the shape of a real disk, where coalescing
// is the whole point of group commit.
type slowSyncFile struct {
	SegmentFile
	delay    time.Duration
	syncs    *atomic.Int64
	failSync *atomic.Bool
}

func (f *slowSyncFile) Sync() error {
	if f.failSync != nil && f.failSync.Load() {
		return fmt.Errorf("injected sync failure")
	}
	if f.delay > 0 {
		time.Sleep(f.delay)
	}
	f.syncs.Add(1)
	return f.SegmentFile.Sync()
}

func slowSyncOpener(delay time.Duration, syncs *atomic.Int64, failSync *atomic.Bool) func(string, int, os.FileMode) (SegmentFile, error) {
	return func(name string, flag int, perm os.FileMode) (SegmentFile, error) {
		f, err := os.OpenFile(name, flag, perm)
		if err != nil {
			return nil, err
		}
		return &slowSyncFile{SegmentFile: f, delay: delay, syncs: syncs, failSync: failSync}, nil
	}
}

// TestGroupCommitCoalesces drives many concurrent fsync=always
// appenders over a slow-syncing segment and asserts they shared
// fsyncs: with a 2ms fsync and 8 writers x 20 appends each, per-append
// syncing would need 160 fsyncs (~320ms of fsync time alone); group
// commit must land well under that.
func TestGroupCommitCoalesces(t *testing.T) {
	var syncs atomic.Int64
	j := openTestJournal(t, Config{
		Fsync:           FsyncAlways,
		GroupCommit:     true,
		OpenSegmentFile: slowSyncOpener(2*time.Millisecond, &syncs, nil),
	})
	const writers, each = 8, 20
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			vm := fmt.Sprintf("vm-%d", w)
			snaps := testSnaps(vm, 2, 4, float64(100*w))
			for i := 0; i < each; i++ {
				if _, err := j.AppendBatch(vm, snaps); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("grouped append: %v", err)
	}
	st := j.Stats()
	if st.Appends != writers*each {
		t.Fatalf("appends = %d, want %d", st.Appends, writers*each)
	}
	// Every record must be covered by a sync that happened at or after
	// its append; coalescing means far fewer syncs than appends. The
	// bound is loose (half) — in practice it is ~10x fewer — so the
	// test stays robust on slow machines.
	if st.Syncs >= st.Appends/2 {
		t.Errorf("syncs = %d for %d appends; group commit did not coalesce", st.Syncs, st.Appends)
	}
	if syncs.Load() == 0 {
		t.Error("segment file never fsynced")
	}
}

// TestGroupCommitDurableBeforeAck asserts the core contract: by the
// time AppendBatch returns, a sync has happened at or after the
// record's write — even for a lone appender with nobody to share with.
func TestGroupCommitDurableBeforeAck(t *testing.T) {
	var syncs atomic.Int64
	j := openTestJournal(t, Config{
		Fsync:           FsyncAlways,
		GroupCommit:     true,
		OpenSegmentFile: slowSyncOpener(0, &syncs, nil),
	})
	for i := 0; i < 5; i++ {
		before := syncs.Load()
		if _, err := j.AppendBatch("vm-solo", testSnaps("vm-solo", 1, 4, 1)); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		if syncs.Load() == before {
			t.Fatalf("append %d acknowledged without an fsync", i)
		}
	}
}

// TestGroupCommitLeaderError asserts a failing fsync surfaces to every
// waiting appender — a follower whose leader failed self-elects, tries
// its own sync, and gets its own error — matching plain FsyncAlways
// semantics where no record is acknowledged past a failed sync. The
// failed records are cut from the journal: replay returns exactly the
// appends that were acknowledged.
func TestGroupCommitLeaderError(t *testing.T) {
	var syncs atomic.Int64
	var fail atomic.Bool
	dir := t.TempDir()
	j := openTestJournal(t, Config{
		Dir:             dir,
		Fsync:           FsyncAlways,
		GroupCommit:     true,
		OpenSegmentFile: slowSyncOpener(time.Millisecond, &syncs, &fail),
	})
	// Prime a healthy append so the stream is established.
	if _, err := j.AppendBatch("vm", testSnaps("vm", 1, 4, 1)); err != nil {
		t.Fatalf("healthy append: %v", err)
	}
	fail.Store(true)
	const writers = 4
	var wg sync.WaitGroup
	failures := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := j.AppendBatch("vm", testSnaps("vm", 1, 4, 1)); err != nil {
				failures <- err
			}
		}()
	}
	wg.Wait()
	close(failures)
	n := 0
	for range failures {
		n++
	}
	if n != writers {
		t.Errorf("%d of %d appends failed; all must fail while fsync is failing", n, writers)
	}
	// The fault healing lets appends flow again.
	fail.Store(false)
	if _, err := j.AppendBatch("vm", testSnaps("vm", 1, 4, 1)); err != nil {
		t.Errorf("append after heal: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	stats, err := Replay(dir, Position{}, func(Position, Record) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if stats.Records != 2 || stats.Truncated {
		t.Errorf("replay after failed fsyncs = %+v, want only the 2 acknowledged records", stats)
	}
}

// TestGroupCommitReplayComplete round-trips a concurrent group-commit
// run through Replay: every acknowledged record must come back.
func TestGroupCommitReplayComplete(t *testing.T) {
	var syncs atomic.Int64
	dir := t.TempDir()
	j := openTestJournal(t, Config{
		Dir:             dir,
		Fsync:           FsyncAlways,
		GroupCommit:     true,
		SegmentBytes:    4 << 10, // force rotations mid-run
		OpenSegmentFile: slowSyncOpener(0, &syncs, nil),
	})
	const writers, each = 4, 25
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			vm := fmt.Sprintf("vm-%d", w)
			for i := 0; i < each; i++ {
				if _, err := j.AppendBatch(vm, testSnaps(vm, 2, 8, float64(i))); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := j.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	perVM := map[string]int{}
	stats, err := Replay(dir, Position{}, func(pos Position, rec Record) error {
		if rec.Type == RecordBatch {
			perVM[rec.VM] += len(rec.Snaps)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if stats.Records != writers*each {
		t.Errorf("replayed %d records, want %d", stats.Records, writers*each)
	}
	for w := 0; w < writers; w++ {
		vm := fmt.Sprintf("vm-%d", w)
		if perVM[vm] != each*2 {
			t.Errorf("%s replayed %d snapshots, want %d", vm, perVM[vm], each*2)
		}
	}
}

// TestGroupCommitCutRecordStaysFailed: a record cut after a failed
// fsync keeps failing its wait even once later records are durable —
// the shape of a multi-group request whose earlier group was cut while
// a later group landed in the fresh segment.
func TestGroupCommitCutRecordStaysFailed(t *testing.T) {
	var syncs atomic.Int64
	var fail atomic.Bool
	j := openTestJournal(t, Config{
		Fsync:           FsyncAlways,
		GroupCommit:     true,
		OpenSegmentFile: slowSyncOpener(0, &syncs, &fail),
	})
	_, cut, err := j.AppendBatchDeferred("vm", testSnaps("vm", 1, 4, 1))
	if err != nil {
		t.Fatal(err)
	}
	fail.Store(true)
	if err := j.WaitDurable(cut); err == nil {
		t.Fatal("wait over a failing fsync succeeded")
	}
	fail.Store(false)
	_, later, err := j.AppendBatchDeferred("vm", testSnaps("vm", 1, 4, 2))
	if err != nil {
		t.Fatal(err)
	}
	if err := j.WaitDurable(later); err != nil {
		t.Fatalf("wait after heal: %v", err)
	}
	if err := j.WaitDurable(cut); err == nil {
		t.Fatal("cut record reported durable once a later sync succeeded")
	}
}
