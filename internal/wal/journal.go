// Package wal implements the durable-ingest substrate of the
// classification daemon: an append-only, segment-rotated write-ahead
// journal of the profiler stream plus atomically written session
// checkpoints, so that recovery after a crash is "load the latest
// checkpoint, replay the journal tail". Records are length-prefixed and
// CRC32C-protected; a torn write at the tail (the normal crash shape)
// is detected and cut, and a bad frame costs replay only its own record.
package wal

import (
	"fmt"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/seglog"
)

// Policy selects when the journal calls fsync.
type Policy int

const (
	// FsyncInterval syncs from a background ticker (Config.FsyncEvery):
	// bounded data loss, near-zero append latency. The default.
	FsyncInterval Policy = iota
	// FsyncAlways syncs after every append: no acknowledged record is
	// ever lost, at the price of one fsync per batch.
	FsyncAlways
	// FsyncNever leaves syncing to the operating system's writeback:
	// fastest, loses up to the dirty page cache on power failure (an
	// ordinary process crash loses nothing — the pages are already in
	// the kernel).
	FsyncNever
)

// ParsePolicy maps the appclassd -fsync flag values onto policies.
func ParsePolicy(s string) (Policy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "always":
		return FsyncAlways, nil
	case "interval":
		return FsyncInterval, nil
	case "never":
		return FsyncNever, nil
	}
	return 0, fmt.Errorf("wal: unknown fsync policy %q (want always, interval, or never)", s)
}

// String returns the flag spelling of the policy.
func (p Policy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncInterval:
		return "interval"
	case FsyncNever:
		return "never"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// Position addresses a byte boundary in the journal: the segment
// sequence number and the offset within it. Append returns the position
// after the appended record; a checkpoint stores the position its state
// covers, and replay resumes from it.
type Position struct {
	Seg uint64 `json:"seg"`
	Off int64  `json:"off"`
}

// Less orders positions by segment, then offset.
func (p Position) Less(o Position) bool {
	if p.Seg != o.Seg {
		return p.Seg < o.Seg
	}
	return p.Off < o.Off
}

// Config parameterizes a journal.
type Config struct {
	// Dir is the journal directory (required; created if absent).
	Dir string
	// SegmentBytes rotates the active segment once it exceeds this many
	// bytes. Zero means 8 MiB.
	SegmentBytes int64
	// Fsync selects the sync policy. The zero value is FsyncInterval.
	Fsync Policy
	// FsyncEvery is the FsyncInterval cadence. Zero means 1 second.
	FsyncEvery time.Duration
	// GroupCommit coalesces FsyncAlways appends: concurrently arriving
	// batches share one fsync — the first appender past the write
	// becomes the leader and syncs, followers block until the durable
	// append count covers their record — so durability stops
	// serializing throughput under concurrency while every acknowledged
	// record is still on stable storage before its append returns.
	// Followers that arrive during the in-flight fsync coalesce into the
	// next one. Ignored under other policies.
	GroupCommit bool
	// Now supplies wall-clock time; tests inject fake clocks. Nil means
	// time.Now.
	Now func() time.Time
	// Logf receives operational log lines. Nil discards them.
	Logf func(format string, args ...any)
	// OpenSegmentFile creates active segment files. Nil means os.OpenFile.
	// Fault-injection harnesses substitute an opener whose files fail
	// writes or fsyncs on command (transient ENOSPC being the canonical
	// scenario) to drive the daemon's degraded-durability path.
	OpenSegmentFile func(name string, flag int, perm os.FileMode) (SegmentFile, error)
}

// SegmentFile is the subset of *os.File the journal needs from its
// active segment. Production journals use real files; chaos tests
// substitute failing ones via Config.OpenSegmentFile.
type SegmentFile = seglog.File

// Stats is a point-in-time view of the journal's depth and activity,
// rendered as gauges in the daemon's /metricsz.
type Stats struct {
	// Segments counts segment files on disk, including the active one.
	Segments int
	// Bytes is the total size of all segments on disk.
	Bytes int64
	// ActiveSeg is the sequence number of the segment being appended to.
	ActiveSeg uint64
	// Appends counts records appended since Open.
	Appends int64
	// Syncs counts fsync calls since Open.
	Syncs int64
	// Rotations counts segment rotations since Open.
	Rotations int64
	// TruncatedSegments counts closed segments deleted since Open
	// because no kept checkpoint replays from them (see SetRetainFloor).
	TruncatedSegments int64
	// LastSync is when the journal last fsynced (zero if never).
	LastSync time.Time
	seglog.ScrubStats
}

// Journal is an append-only write-ahead log. It is safe for concurrent
// use; appends from many ingest goroutines serialize on one mutex, with
// the encoding done into a reused buffer so the fsync=never append path
// is allocation-free at steady state.
type Journal struct {
	cfg Config

	mu     sync.Mutex
	w      seglog.Writer // the active segment
	closed []seglog.Seg
	buf    []byte // reused record encode buffer
	// syncedThrough is the append count covered by the last successful
	// sync. Closed segments are always synced before close, so one
	// successful syncLocked makes every append so far durable.
	syncedThrough int64
	stats         Stats
	done          bool
	// failed poisons the journal: set when a failed segment could not
	// be cut back to its last good offset or no fresh segment could be
	// opened, so further appends would land after garbage bytes.
	failed error
	// retainSeg is the retention floor: the segment the newest
	// checkpoint's position lies in (see SetRetainFloor). Unset
	// (retainSet false) means no checkpoint has been seen.
	retainSeg uint64
	retainSet bool
	// opened is the newest readable checkpoint Open found, held for
	// recovery until TakeCheckpoint hands it over.
	opened *Checkpoint
	// scrubNext is the scrub cursor: the next sealed segment sequence
	// Scrub examines, so successive low-rate passes cycle the journal.
	scrubNext uint64
	// modelHash is stamped into every segment header (see SetModelHash).
	modelHash [modelHashSize]byte

	// gc is the group-commit ticket state (see waitDurable): durable is
	// the append count known to be on stable storage, syncing marks the
	// in-flight leader, lost holds the append counts cut off after failed
	// fsyncs. Guarded by gc.mu, which may be taken inside j.mu (to record
	// a cut) but never around it — the leader drops gc.mu before taking
	// j.mu to sync, so appends keep flowing (and coalescing) while the
	// fsync is in flight.
	gc struct {
		mu      sync.Mutex
		cond    *sync.Cond
		syncing bool
		durable int64
		lost    []lostSpan
	}

	stopc chan struct{}
	wg    sync.WaitGroup
}

// Open creates or opens a journal directory and starts a fresh active
// segment after any existing ones. Existing segments are never appended
// to (their tails may be torn from a previous crash); they remain
// readable for Replay until retention deletes them. Temp files a crash
// left behind mid-checkpoint or mid-repair are removed. The newest
// readable checkpoint is parsed once: it seeds the retention floor and
// waits for TakeCheckpoint.
func Open(cfg Config) (*Journal, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("wal: empty journal directory")
	}
	if cfg.SegmentBytes <= 0 {
		cfg.SegmentBytes = 8 << 20
	}
	if cfg.FsyncEvery <= 0 {
		cfg.FsyncEvery = time.Second
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if cfg.OpenSegmentFile == nil {
		cfg.OpenSegmentFile = func(name string, flag int, perm os.FileMode) (SegmentFile, error) {
			return os.OpenFile(name, flag, perm)
		}
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: create %s: %w", cfg.Dir, err)
	}
	if err := seglog.RemoveTemps(cfg.Dir); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	segs, err := segFormat.List(cfg.Dir)
	if err != nil {
		return nil, err
	}
	j := &Journal{cfg: cfg, closed: segs, stopc: make(chan struct{})}
	j.w = seglog.Writer{Format: &segFormat, Dir: cfg.Dir, Open: cfg.OpenSegmentFile}
	j.gc.cond = sync.NewCond(&j.gc.mu)
	next := uint64(1)
	if n := len(segs); n > 0 {
		next = segs[n-1].Seq + 1
	}
	// Seed the retention floor from the newest readable checkpoint, so
	// the next checkpoint trims only what that one no longer needs, and
	// keep it for recovery: the floor and the replay start are then one
	// checkpoint's, and a start parses it once.
	if j.opened, err = LatestCheckpoint(cfg.Dir); err != nil {
		return nil, err
	} else if j.opened != nil {
		j.retainSeg, j.retainSet = j.opened.Pos.Seg, true
	}
	if err := j.w.Create(next); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	if cfg.Fsync == FsyncInterval {
		j.wg.Add(1)
		go j.syncLoop()
	}
	return j, nil
}

// TakeCheckpoint returns the newest readable checkpoint Open found in
// the journal directory (an unreadable newer one skipped, as
// LatestCheckpoint does), or nil if there was none. The journal seeded
// its retention floor from this checkpoint, so recovery replays from
// it. The journal keeps no reference to it: a second call returns nil,
// and the payload is freed once the caller drops it.
func (j *Journal) TakeCheckpoint() *Checkpoint {
	j.mu.Lock()
	defer j.mu.Unlock()
	cp := j.opened
	j.opened = nil
	return cp
}

// Dir returns the journal directory.
func (j *Journal) Dir() string { return j.cfg.Dir }

// ModelHash returns the model compatibility hash stamped into segment
// headers (all zero if never set).
func (j *Journal) ModelHash() [modelHashSize]byte {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.modelHash
}

// SetModelHash changes the model compatibility hash stamped into
// segment headers — the serving layer calls it at startup and on every
// hot swap. Because one segment never mixes models, a change rotates to
// a fresh segment immediately; if the active segment is still empty
// (the startup case) its header is rewritten in place instead, avoiding
// a zero-hash segment littering every journal directory. A no-op when
// the hash is unchanged.
func (j *Journal) SetModelHash(h [modelHashSize]byte) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if h == j.modelHash {
		return nil
	}
	j.modelHash = h
	j.w.Extra = h[:]
	if j.done || j.failed != nil {
		// No active segment to stamp; the next one (Revive, or a fresh
		// Open) picks the hash up.
		return nil
	}
	if j.w.Size() == headerSize {
		// Empty active segment: replace it in place under the same
		// sequence number rather than burning a rotation.
		seq := j.w.Seq()
		if err := j.w.File().Close(); err != nil {
			return fmt.Errorf("wal: close empty segment %d: %w", seq, err)
		}
		if err := os.Remove(segFormat.Path(j.cfg.Dir, seq)); err != nil {
			return fmt.Errorf("wal: remove empty segment %d: %w", seq, err)
		}
		if err := j.w.Create(seq); err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		return nil
	}
	return j.rotateLocked()
}

// AppendBatch appends one validated ingest batch for vm and returns the
// position after the record. Depending on the fsync policy the record
// is durable on return (always), within FsyncEvery (interval), or at
// the kernel's leisure (never).
func (j *Journal) AppendBatch(vm string, snaps []metrics.Snapshot) (Position, error) {
	return j.append(func(buf []byte) ([]byte, error) {
		return appendBatchPayload(buf, vm, snaps)
	})
}

// AppendBatchDeferred is AppendBatch for callers that make several
// appends per acknowledgement: the record is written (and any write
// error surfaces immediately), but under group commit the durability
// wait is deferred — the returned token must be passed to WaitDurable
// before the batch is acknowledged. Tokens are monotone, so a caller
// appending many records waits once on the largest; it then checks
// each smaller one with WaitDurable too, which returns at once, since
// a failed fsync may have cut an earlier record (see waitDurable). A
// zero token needs no wait (the record is already as durable as the
// policy promises).
func (j *Journal) AppendBatchDeferred(vm string, snaps []metrics.Snapshot) (Position, int64, error) {
	j.mu.Lock()
	pos, target, grouped, err := j.appendLocked(func(buf []byte) ([]byte, error) {
		return appendBatchPayload(buf, vm, snaps)
	})
	j.mu.Unlock()
	if err != nil {
		return Position{}, 0, err
	}
	if !grouped {
		return pos, 0, nil
	}
	return pos, target, nil
}

// WaitDurable blocks until the record token was issued for (by
// AppendBatchDeferred), and every surviving record before it, is on
// stable storage; it fails if that record was cut after a failed
// fsync. Zero tokens return immediately.
func (j *Journal) WaitDurable(token int64) error {
	if token == 0 {
		return nil
	}
	return j.waitDurable(token)
}

// AppendFinalize appends a finalize marker for vm stamped with at, the
// unix-nanosecond FinalizedAt of the record the finish stores: replay
// stops feeding the VM's session and finalizes it instead, unless a
// record with that stamp is already stored. An at of 0 writes the
// unstamped marker.
func (j *Journal) AppendFinalize(vm string, at int64) (Position, error) {
	return j.append(func(buf []byte) ([]byte, error) {
		return appendFinalizePayload(buf, vm, at)
	})
}

// append frames and writes one record payload produced by encode. With
// group commit on, the write happens under j.mu but the fsync wait
// happens outside it, so concurrent appenders stack their records
// behind one fsync instead of each paying their own.
func (j *Journal) append(encode func([]byte) ([]byte, error)) (Position, error) {
	j.mu.Lock()
	pos, target, grouped, err := j.appendLocked(encode)
	j.mu.Unlock()
	if err != nil || !grouped {
		return pos, err
	}
	if err := j.waitDurable(target); err != nil {
		return Position{}, err
	}
	return pos, nil
}

// appendLocked does the encode + write under j.mu. grouped reports
// that the record still needs a group-commit fsync covering append
// count target before it may be acknowledged. Caller holds j.mu.
func (j *Journal) appendLocked(encode func([]byte) ([]byte, error)) (pos Position, target int64, grouped bool, err error) {
	if j.done {
		return Position{}, 0, false, fmt.Errorf("wal: journal is closed")
	}
	if j.failed != nil {
		return Position{}, 0, false, j.failed
	}
	// Frame placeholder first so payload bytes land at their final
	// offset in the shared buffer and one Write emits the whole record.
	buf, start := seglog.BeginFrame(j.buf[:0])
	buf, err = encode(buf)
	if err != nil {
		return Position{}, 0, false, err
	}
	if n := len(buf) - start - seglog.FrameSize; n > maxPayload {
		return Position{}, 0, false, fmt.Errorf("wal: record payload %d bytes exceeds cap %d", n, maxPayload)
	}
	j.buf = seglog.EndFrame(buf, start)
	if err := j.w.Write(j.buf); err != nil {
		// A failed (possibly partial) write leaves garbage past the last
		// whole record; appending after it would hide every later record
		// from replay.
		j.abandonLocked(false)
		return Position{}, 0, false, fmt.Errorf("wal: %w", err)
	}
	j.stats.Appends++
	if j.cfg.Fsync == FsyncAlways {
		if j.cfg.GroupCommit {
			// The fsync is deferred to waitDurable, outside j.mu: the
			// record must not be acknowledged until the durable append
			// count reaches what it is now.
			grouped, target = true, j.stats.Appends
		} else if err := j.syncLocked(); err != nil {
			j.abandonLocked(true)
			return Position{}, 0, false, err
		}
	}
	pos = Position{Seg: j.w.Seq(), Off: j.w.Size()}
	if j.w.Size() >= j.cfg.SegmentBytes {
		// Rotation syncs the outgoing segment before closing it, so a
		// grouped record that triggers rotation is already durable; the
		// later waitDurable no-ops via the dirty check.
		if err := j.rotateLocked(); err != nil {
			return Position{}, 0, false, err
		}
	}
	return pos, target, grouped, nil
}

// lostSpan is a run of append counts (lo, hi] cut off the journal
// after a failed fsync, with the failure.
type lostSpan struct {
	lo, hi int64
	err    error
}

// waitDurable blocks until the journal's durable append count covers
// target, electing the calling goroutine fsync leader if nobody is
// syncing: the leader captures the segment file and append count under
// j.mu, then fsyncs OUTSIDE both locks — so appends keep flowing into
// the segment while the disk works, stacking behind the next fsync
// instead of each paying their own. A failed fsync cuts every record
// past the last good one (see abandonLocked), so a target inside a lost
// span fails for good, however far later syncs get. A follower whose
// leader failed for any other reason self-elects and surfaces its own
// error, matching non-grouped FsyncAlways semantics.
func (j *Journal) waitDurable(target int64) error {
	gc := &j.gc
	gc.mu.Lock()
	for {
		for _, sp := range gc.lost {
			if target > sp.lo && target <= sp.hi {
				gc.mu.Unlock()
				return fmt.Errorf("wal: record cut from the journal after a failed fsync: %w", sp.err)
			}
		}
		if gc.durable >= target {
			gc.mu.Unlock()
			return nil
		}
		if !gc.syncing {
			break
		}
		gc.cond.Wait()
	}
	gc.syncing = true
	gc.mu.Unlock()

	j.mu.Lock()
	var (
		synced, size int64
		seq          uint64
		f            SegmentFile
		err          error
	)
	switch {
	case j.done:
		err = fmt.Errorf("wal: journal is closed")
	case j.failed != nil:
		err = j.failed
	case !j.w.Dirty():
		// Nothing unsynced anywhere (rotation syncs outgoing segments
		// before closing them), so every append so far is durable.
		synced = j.stats.Appends
		j.syncedThrough = synced
	default:
		synced, seq, size, f = j.stats.Appends, j.w.Seq(), j.w.Size(), j.w.File()
	}
	j.mu.Unlock()

	if f != nil {
		serr := f.Sync()
		j.mu.Lock()
		switch {
		case serr == nil:
			j.stats.Syncs++
			j.stats.LastSync = j.cfg.Now()
			if synced > j.syncedThrough {
				j.syncedThrough = synced
			}
			// Appends that landed while the fsync was in flight are not
			// covered; the segment stays dirty for the next leader.
			j.w.MarkSynced(seq, size)
		case j.syncedThrough >= synced:
			// The segment rotated away mid-fsync and its close raced our
			// Sync; the rotation's own sync already covered every record
			// in this group, so the error is moot.
		default:
			err = fmt.Errorf("wal: fsync segment %d: %w", seq, serr)
			if j.w.Seq() == seq && !j.done && j.failed == nil {
				j.abandonLocked(true)
			}
		}
		j.mu.Unlock()
	}

	gc.mu.Lock()
	gc.syncing = false
	if err == nil && synced > gc.durable {
		gc.durable = synced
	}
	gc.cond.Broadcast()
	gc.mu.Unlock()
	return err
}

// abandonLocked retires the active segment after a failed write, or a
// failed fsync when syncFailed, so later appends start at a known-good
// offset in a fresh segment. Under FsyncAlways only what an fsync
// covered may outlive a failure: the segment is cut back to the last
// good fsync (taking one first when the write failed), and every
// append past it is recorded lost so its append — or its group-commit
// wait — fails instead of being replayed after a crash. Other policies
// keep every whole record. If the cut or the fresh segment fails, the
// journal is poisoned. Caller holds j.mu.
func (j *Journal) abandonLocked(syncFailed bool) {
	seq, keep := j.w.Seq(), j.w.Size()
	if j.w.File() != nil {
		if j.cfg.Fsync == FsyncAlways && (syncFailed || j.syncLocked() != nil) {
			keep = j.w.Synced()
			j.gc.mu.Lock()
			j.gc.lost = append(j.gc.lost, lostSpan{lo: j.syncedThrough, hi: j.stats.Appends,
				err: fmt.Errorf("segment %d cut back to offset %d", seq, keep)})
			j.gc.mu.Unlock()
		}
		j.closed = append(j.closed, seglog.Seg{Seq: seq, Size: keep})
		j.stats.Rotations++
	}
	if err := j.w.Abandon(keep, seq+1); err != nil {
		j.failed = fmt.Errorf("wal: journal poisoned by failed append to segment %d: %w", seq, err)
		j.cfg.Logf("%v", j.failed)
		return
	}
	j.cfg.Logf("wal: abandoned segment %d after a failed append (valid to %d bytes)", seq, keep)
}

// Sync flushes the active segment to stable storage.
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.done {
		return fmt.Errorf("wal: journal is closed")
	}
	if j.failed != nil {
		return j.failed
	}
	return j.syncLocked()
}

func (j *Journal) syncLocked() error {
	if !j.w.Dirty() {
		return nil
	}
	if err := j.w.Sync(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	j.syncedThrough = j.stats.Appends
	j.stats.Syncs++
	j.stats.LastSync = j.cfg.Now()
	return nil
}

// Rotate closes the active segment and starts a new one.
func (j *Journal) Rotate() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.done {
		return fmt.Errorf("wal: journal is closed")
	}
	if j.failed != nil {
		return j.failed
	}
	return j.rotateLocked()
}

// Failed returns the poisoning error, if the journal is poisoned: a
// segment write failed and no fresh segment could be opened, so every
// append fails fast until Revive succeeds.
func (j *Journal) Failed() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.failed
}

// Revive attempts to clear a poisoned journal by opening a fresh
// active segment — the probe the daemon's degraded-durability mode
// runs to re-arm once a transient fault (ENOSPC, a flaky disk) heals.
// It is a no-op on a healthy journal and returns the open error while
// the fault persists, leaving the journal poisoned.
func (j *Journal) Revive() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.done {
		return fmt.Errorf("wal: journal is closed")
	}
	if j.failed == nil {
		return nil
	}
	// The poisoned active segment was already retired by abandonLocked;
	// only a fresh segment is needed.
	if err := j.w.Create(j.w.Seq() + 1); err != nil {
		return fmt.Errorf("wal: revive: %w", err)
	}
	j.failed = nil
	j.cfg.Logf("wal: revived with fresh segment %d", j.w.Seq())
	return nil
}

// SetRetainFloor moves the retention floor to seg, the segment the
// checkpoint just saved points into, and trims the journal: when the
// floor moves, every closed segment below the previous floor is
// deleted, oldest first, and so is every quarantine file a repair or a
// cut left of a segment below it. SaveCheckpoint keeps two
// checkpoints, and the previous floor is the segment the older of them
// points into, so recovery from either one finds every segment it
// replays. Callers advance the floor after every successful checkpoint.
// The floor is monotonic; a value at or below it changes nothing. A
// file that cannot be removed is logged and kept, and the next move
// retries it.
func (j *Journal) SetRetainFloor(seg uint64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.retainSet && seg <= j.retainSeg {
		return
	}
	prev, trim := j.retainSeg, j.retainSet
	j.retainSeg, j.retainSet = seg, true
	if !trim {
		return
	}
	for len(j.closed) > 0 && j.closed[0].Seq < prev {
		victim := j.closed[0]
		path := segFormat.Path(j.cfg.Dir, victim.Seq)
		if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
			j.cfg.Logf("wal: retention: remove %s: %v", path, err)
			break
		}
		j.cfg.Logf("wal: retention dropped segment %d (%d bytes)", victim.Seq, victim.Size)
		j.closed = j.closed[1:]
		j.stats.TruncatedSegments++
	}
	quarantined, err := quarantineNames.List(j.cfg.Dir)
	if err != nil {
		j.cfg.Logf("wal: retention: %v", err)
	}
	for _, q := range quarantined {
		if q.Seq >= prev {
			break
		}
		path := quarantineNames.Path(j.cfg.Dir, q.Seq)
		if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
			j.cfg.Logf("wal: retention: remove %s: %v", path, err)
		}
	}
}

func (j *Journal) rotateLocked() error {
	// A rotation is the last write to the outgoing segment; sync it
	// regardless of policy so a closed segment is always fully durable.
	if err := j.syncLocked(); err != nil {
		if j.cfg.Fsync == FsyncAlways {
			j.abandonLocked(true)
		}
		return err
	}
	seq, size := j.w.Seq(), j.w.Size()
	err := j.w.Rotate(seq + 1)
	j.closed = append(j.closed, seglog.Seg{Seq: seq, Size: size})
	j.stats.Rotations++
	if err != nil {
		// The outgoing segment is closed and no fresh one could be
		// opened: fail fast until Revive opens one.
		j.failed = fmt.Errorf("wal: journal poisoned by failed rotation: %w", err)
		j.cfg.Logf("%v", j.failed)
		return j.failed
	}
	return nil
}

// syncLoop is the FsyncInterval background syncer.
func (j *Journal) syncLoop() {
	defer j.wg.Done()
	t := time.NewTicker(j.cfg.FsyncEvery)
	defer t.Stop()
	for {
		select {
		case <-j.stopc:
			return
		case <-t.C:
			j.mu.Lock()
			if !j.done {
				if err := j.syncLocked(); err != nil {
					j.cfg.Logf("wal: interval sync: %v", err)
				}
			}
			j.mu.Unlock()
		}
	}
}

// Pos returns the position after the last appended record.
func (j *Journal) Pos() Position {
	j.mu.Lock()
	defer j.mu.Unlock()
	return Position{Seg: j.w.Seq(), Off: j.w.Size()}
}

// Stats returns a snapshot of the journal's depth and activity.
func (j *Journal) Stats() Stats {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := j.stats
	st.ActiveSeg = j.w.Seq()
	st.Segments = len(j.closed)
	for _, s := range j.closed {
		st.Bytes += s.Size
	}
	if !j.done && j.failed == nil {
		st.Segments++
		st.Bytes += j.w.Size()
	}
	return st
}

// Close syncs and closes the active segment and stops background
// loops. The journal cannot be used afterwards; a later Open on the
// same directory starts a new segment.
func (j *Journal) Close() error {
	j.mu.Lock()
	if j.done {
		j.mu.Unlock()
		return nil
	}
	err := j.failed
	if err == nil {
		// A poisoned journal's active file was already retired by
		// abandonLocked; only a healthy one needs the final sync-and-close.
		j.closed = append(j.closed, seglog.Seg{Seq: j.w.Seq(), Size: j.w.Size()})
		if err = j.w.Close(); err != nil {
			err = fmt.Errorf("wal: %w", err)
		}
	}
	j.done = true
	close(j.stopc)
	j.mu.Unlock()
	j.wg.Wait()
	return err
}
