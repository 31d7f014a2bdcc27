package appstore

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/appclass"
	"repro/internal/phase"
	"repro/internal/seglog"
)

// Options parameterizes a store.
type Options struct {
	// SegmentBytes rotates the active segment once it exceeds this many
	// bytes. Zero means 4 MiB.
	SegmentBytes int64
	// MaxBytes caps the store's total segment bytes: once live data
	// exceeds it, the oldest records beyond the pruning floor are marked
	// dead and compacted away. Zero means unlimited.
	MaxBytes int64
	// RetainAge expires records whose finalize time is older than this.
	// Zero means unlimited. Records without a finalize stamp (legacy
	// migrations) are exempt — their age is unknown.
	RetainAge time.Duration
	// PruneFloor is the per-application retention floor: the newest
	// PruneFloor records of every application — and its newest
	// fingerprinted record, the dictionary entry — are never removed by
	// the age or byte caps, so the fingerprint dictionary and the
	// retraining reservoirs never lose records still referenced. Zero
	// means DefaultPruneFloor; negative means no floor. An explicit
	// Prune call is an operator decision and ignores the floor.
	PruneFloor int
	// NoFsync skips the per-append fsync. The default (false) syncs
	// every append, matching the durability of the legacy
	// rewrite-and-rename JSON store; a crash then loses at most the
	// record being appended, which the torn-tail repair drops cleanly.
	NoFsync bool
	// Now supplies wall-clock time; tests inject fake clocks. Nil means
	// time.Now.
	Now func() time.Time
	// Logf receives operational log lines. Nil discards them.
	Logf func(format string, args ...any)
}

// DefaultPruneFloor is the per-application retention floor: how many of
// an application's newest records the age/byte caps must leave alone.
const DefaultPruneFloor = 2

// Stats is a point-in-time view of the store, rendered as gauges in the
// daemon's /metricsz.
type Stats struct {
	// Segments counts segment files on disk, including the active one.
	Segments int
	// Bytes is the total size of all segments on disk.
	Bytes int64
	// LiveRecords and DeadRecords count indexed records; dead ones are
	// tombstoned and disappear physically at the next compaction.
	LiveRecords int
	DeadRecords int
	// Appends counts records appended since open.
	Appends int64
	// Compactions counts compaction passes that rewrote segments.
	Compactions int64
	// PrunedRecords counts records marked dead since open (explicit
	// Prune calls plus the age/byte retention caps).
	PrunedRecords int64
	// DroppedRecords counts records physically removed by compaction.
	DroppedRecords int64
	// CorruptFrames counts frames skipped at open (torn tails, bit rot).
	CorruptFrames int64
	// AppendLastNanos and AppendTotalNanos time the append path — the
	// finalize hot-path latency the JSON store paid O(n) for.
	AppendLastNanos  int64
	AppendTotalNanos int64
	// RecordReads counts record bodies preaded and decoded since open.
	// Open reads none: the index is rebuilt from meta headers alone.
	RecordReads int64
	// The scrub counts; the store loses only live records to damage.
	seglog.ScrubStats
}

// entry is one indexed record: the meta header plus its location.
type entry struct {
	meta
	seg  uint64
	off  int64 // frame start offset within the segment
	n    int64 // frame + payload length
	dead bool
}

// segInfo tracks one segment on disk.
type segInfo struct {
	size    int64
	live    int
	dead    int
	corrupt bool     // undecodable bytes seen at load; never reuse as active
	v1      bool     // a version-1 segment: never resumed, so it takes no kind-2 record
	dups    int      // frames skipped at load because their seq was already seen
	rd      *os.File // lazily opened read handle
}

// Store is the log-structured application-record store. It is safe for
// concurrent use: appends and deletions serialize on a write lock,
// reads (including paginated scans) share a read lock and pread from
// immutable segment bytes.
type Store struct {
	dir string
	opt Options

	mu      sync.RWMutex
	rdMu    sync.Mutex    // guards lazy opens of segInfo.rd under the read lock
	w       seglog.Writer // the active segment
	nextSeq uint64
	entries []entry // ascending seq
	byApp   map[string][]int
	byClass map[appclass.Class][]int
	byVerd  map[appclass.Class][]int
	byModel map[string][]int
	segs    map[uint64]*segInfo
	interns interner // string interning across entries
	buf     []byte   // reused append encode buffer
	stats   Stats
	closed  bool
	// scrubNext is the scrub cursor: the next closed segment Scrub
	// examines, so successive low-rate passes cycle the store.
	scrubNext uint64
	// fps is the decoded fingerprint dictionary, one entry per
	// application tagged with the seq of the record it was decoded
	// from. Fingerprints replaces it under fpMu, taken inside the read
	// lock.
	fpMu sync.Mutex
	fps  map[string]fpEntry
	// recordReads backs Stats.RecordReads. Readers share the read lock,
	// so it cannot live in stats.
	recordReads atomic.Int64
}

// fpEntry is one decoded fingerprint-dictionary entry and its page row.
type fpEntry struct {
	seq uint64
	fp  phase.Fingerprint
	row Row
}

// Open opens (or creates) a store at dir. If dir is an existing regular
// file it is taken to be a legacy JSON application database: the file
// is converted in place — renamed to dir+".legacy", the directory
// created where it stood, every record appended — so existing
// deployments upgrade transparently on first start.
func Open(dir string, opt Options) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("appstore: empty store path")
	}
	if opt.SegmentBytes <= 0 {
		opt.SegmentBytes = 4 << 20
	}
	if opt.PruneFloor == 0 {
		opt.PruneFloor = DefaultPruneFloor
	}
	if opt.Now == nil {
		opt.Now = time.Now
	}
	if opt.Logf == nil {
		opt.Logf = func(string, ...any) {}
	}
	var legacy []Record
	if fi, err := os.Stat(dir); err == nil && fi.Mode().IsRegular() {
		recs, err := loadLegacy(dir)
		if err != nil {
			return nil, fmt.Errorf("appstore: %s is a file but not a legacy appdb: %w", dir, err)
		}
		backup := dir + ".legacy"
		if err := os.Rename(dir, backup); err != nil {
			return nil, fmt.Errorf("appstore: move legacy db aside: %w", err)
		}
		legacy = recs
		opt.Logf("appstore: migrating legacy JSON db %s (%d records, backup at %s)", dir, len(recs), backup)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("appstore: create %s: %w", dir, err)
	}
	s := &Store{
		dir:     dir,
		opt:     opt,
		nextSeq: 1,
		byApp:   make(map[string][]int),
		byClass: make(map[appclass.Class][]int),
		byVerd:  make(map[appclass.Class][]int),
		byModel: make(map[string][]int),
		segs:    make(map[uint64]*segInfo),
		interns: make(interner),
		w:       seglog.Writer{Format: &segFormat, Dir: dir},
	}
	if err := s.load(); err != nil {
		return nil, err
	}
	if legacy != nil {
		for i := range legacy {
			if err := s.Append(&legacy[i]); err != nil {
				s.Close()
				return nil, fmt.Errorf("appstore: migrate legacy record %d: %w", i, err)
			}
		}
		if err := s.Sync(); err != nil {
			s.Close()
			return nil, err
		}
		opt.Logf("appstore: migrated %d legacy record(s) into %s", len(legacy), dir)
	}
	return s, nil
}

// Dir returns the store directory.
func (s *Store) Dir() string { return s.dir }

// load rebuilds the in-memory index from the segments on disk: every
// frame is CRC-checked and only its fixed meta header decoded. A torn
// tail on the newest segment is repaired by truncation (the normal
// crash shape); corruption elsewhere skips the remainder of that
// segment with a loud log. Records seen twice (a crash between a
// compaction's copy and its deletes) keep their first copy.
func (s *Store) load() error {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("appstore: read %s: %w", s.dir, err)
	}
	var segNos []uint64
	for _, e := range ents {
		if strings.Contains(e.Name(), ".tmp") {
			// A compaction or sidecar rewrite that died before its atomic
			// rename; the file never became visible, so its contents are
			// all elsewhere.
			os.Remove(filepath.Join(s.dir, e.Name()))
			continue
		}
		if n, ok := segFormat.Parse(e.Name()); ok {
			segNos = append(segNos, n)
		}
	}
	sort.Slice(segNos, func(a, b int) bool { return segNos[a] < segNos[b] })
	tombs, err := loadTombstones(s.dir)
	if err != nil {
		return err
	}
	seen := make(map[uint64]bool)
	for _, no := range segNos {
		if err := s.loadSegment(no, no == segNos[len(segNos)-1], seen); err != nil {
			return err
		}
	}
	// Entries were collected per segment; compaction copies records into
	// higher-numbered segments, so restore global seq order.
	sort.Slice(s.entries, func(a, b int) bool { return s.entries[a].seq < s.entries[b].seq })
	for i := range s.entries {
		e := &s.entries[i]
		if tombs[e.seq] {
			e.dead = true
			s.segs[e.seg].dead++
		} else {
			s.segs[e.seg].live++
		}
		s.indexEntry(i)
		if e.seq >= s.nextSeq {
			s.nextSeq = e.seq + 1
		}
	}
	// A crash between a compaction's rename and its victim deletes can
	// leave a fully duplicated segment: every frame decoded but every seq
	// was already seen, so nothing indexes into it and compaction (which
	// only targets dead>0) would never reclaim it. Its records all live
	// elsewhere, so deleting it is safe.
	for no, info := range s.segs {
		if info.live == 0 && info.dead == 0 && info.dups > 0 && !info.corrupt {
			if err := os.Remove(segFormat.Path(s.dir, no)); err != nil {
				s.opt.Logf("appstore: delete fully duplicated segment %d: %v", no, err)
				continue
			}
			s.opt.Logf("appstore: deleted segment %d: all %d frame(s) were duplicates from an interrupted compaction", no, info.dups)
			delete(s.segs, no)
		}
	}
	// Continue appending to the newest segment when it has room (its
	// tail was just verified, and repaired if torn); otherwise start a
	// fresh one. A newest segment that was quarantined or deleted above
	// is absent from s.segs and never reused, and a version-1 one is not
	// reused either: a kind-2 record appended to it would read as a torn
	// tail to a reader that knows only version 1.
	if n := len(segNos); n > 0 {
		last := segNos[n-1]
		if info := s.segs[last]; info != nil && !info.corrupt && !info.v1 && info.size < s.opt.SegmentBytes {
			if err := s.w.Resume(last, info.size); err != nil {
				return fmt.Errorf("appstore: %w", err)
			}
			return nil
		}
	}
	next := uint64(1)
	if n := len(segNos); n > 0 {
		next = segNos[n-1] + 1
	}
	if err := s.w.Create(next); err != nil {
		return fmt.Errorf("appstore: %w", err)
	}
	s.trackActiveLocked()
	return nil
}

// loadSegment scans one segment, appending its valid records to
// s.entries (unindexed; load() indexes after the global seq sort).
func (s *Store) loadSegment(no uint64, newest bool, seen map[uint64]bool) error {
	path := segFormat.Path(s.dir, no)
	info := &segInfo{}
	sc, err := segFormat.Walk(path, 0, false, func(off int64, p []byte) error {
		m, _, err := decodeMeta(p, s.interns)
		if err != nil {
			return seglog.Corrupt(err)
		}
		if seen[m.seq] {
			// A crash between a compaction's rename and its victim deletes
			// leaves the same seq in two segments; the first copy wins.
			info.dups++
			return nil
		}
		seen[m.seq] = true
		s.entries = append(s.entries, entry{meta: m, seg: no, off: off, n: seglog.FrameSize + int64(len(p))})
		return nil
	})
	if err != nil {
		return fmt.Errorf("appstore: read segment %d: %w", no, err)
	}
	info.size = sc.Size
	info.v1 = sc.Header.Version == segVersionV1
	if sc.Header.Size == 0 {
		// Nothing in this segment is readable. Quarantine it aside so it
		// stops counting against the byte cap (and can be inspected), and
		// so it is never reused as the active segment.
		s.stats.CorruptFrames++
		quarantine, err := seglog.Quarantine(path, false)
		if err != nil {
			// Can't move it; keep tracking its real on-disk size (never a
			// fabricated one, which would skew Stats.Bytes and retention)
			// and flag it so it is neither appended to nor deleted.
			info.corrupt = true
			s.segs[no] = info
			s.opt.Logf("appstore: segment %d has a bad header and could not be quarantined (%v); ignoring its contents", no, err)
			return nil
		}
		s.opt.Logf("appstore: segment %d has a bad header; quarantined to %s", no, quarantine)
		return nil
	}
	s.segs[no] = info
	if sc.Torn {
		s.stats.CorruptFrames++
		if newest {
			// The normal crash shape: a torn append at the tail. Repair in
			// place so the segment can keep taking appends.
			if err := os.Truncate(path, sc.End); err != nil {
				return fmt.Errorf("appstore: repair torn tail of segment %d: %w", no, err)
			}
			info.size = sc.End
			s.opt.Logf("appstore: repaired torn tail of segment %d (truncated %d bytes)", no, sc.Size-sc.End)
		} else {
			// Corruption inside a closed segment is not a crash artifact;
			// keep what decoded and say so loudly.
			info.corrupt = true
			s.opt.Logf("appstore: CORRUPTION in closed segment %d at offset %d; %d trailing bytes unreadable",
				no, sc.End, sc.Size-sc.End)
		}
	}
	return nil
}

// rebuildIndexLocked recomputes every posting list from s.entries.
func (s *Store) rebuildIndexLocked() {
	s.byApp = make(map[string][]int)
	s.byClass = make(map[appclass.Class][]int)
	s.byVerd = make(map[appclass.Class][]int)
	s.byModel = make(map[string][]int)
	for i := range s.entries {
		s.indexEntry(i)
	}
}

// indexEntry adds entries[i] to every posting list.
func (s *Store) indexEntry(i int) {
	e := &s.entries[i]
	s.byApp[e.app] = append(s.byApp[e.app], i)
	s.byClass[e.class] = append(s.byClass[e.class], i)
	if e.verdict != "" {
		s.byVerd[e.verdict] = append(s.byVerd[e.verdict], i)
	}
	if e.model != "" {
		s.byModel[e.model] = append(s.byModel[e.model], i)
	}
}

// trackActiveLocked registers the writer's active segment in s.segs
// after the writer started a fresh one.
func (s *Store) trackActiveLocked() {
	if s.segs[s.w.Seq()] == nil {
		s.segs[s.w.Seq()] = &segInfo{}
	}
	s.segs[s.w.Seq()].size = s.w.Size()
}

// Append validates nothing (appdb.Put validates) and appends one record
// — the O(1) finalize hot path. The record is assigned the next
// sequence number and fsynced before return unless Options.NoFsync.
func (s *Store) Append(r *Record) error {
	start := s.opt.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("appstore: store is closed")
	}
	seq := s.nextSeq
	buf, fstart := seglog.BeginFrame(s.buf[:0])
	buf, err := appendRecordPayload(buf, seq, r)
	if err != nil {
		return err
	}
	if n := len(buf) - seglog.FrameSize; n > maxPayload {
		return fmt.Errorf("appstore: record payload %d bytes exceeds cap %d", n, maxPayload)
	}
	// Index the header as open decodes it, so the online index is the
	// one a reopen rebuilds.
	m, _, err := decodeMeta(buf[seglog.FrameSize:], s.interns)
	if err != nil {
		return fmt.Errorf("appstore: record %d: %w", seq, err)
	}
	s.buf = seglog.EndFrame(buf, fstart)
	seg, off := s.w.Seq(), s.w.Size()
	err = s.w.Write(s.buf)
	if err == nil && !s.opt.NoFsync {
		err = s.w.Sync()
	}
	if err != nil {
		// The frame may be partly or wholly on disk without being durable:
		// cut the segment back to where the record began, so it can never
		// come back at reopen, and continue in a fresh segment. A failed
		// cut leaves the store without an active segment; the next append
		// retries a fresh one.
		if aerr := s.w.Abandon(off, s.nextSegNoLocked()); aerr != nil {
			s.opt.Logf("appstore: abandon segment %d after failed append: %v", seg, aerr)
		}
		s.trackActiveLocked()
		return fmt.Errorf("appstore: %w", err)
	}
	s.segs[seg].size = s.w.Size()
	s.segs[seg].live++
	s.nextSeq++
	s.entries = append(s.entries, entry{meta: m, seg: seg, off: off, n: int64(len(s.buf))})
	s.indexEntry(len(s.entries) - 1)
	s.stats.Appends++
	elapsed := s.opt.Now().Sub(start).Nanoseconds()
	s.stats.AppendLastNanos = elapsed
	s.stats.AppendTotalNanos += elapsed
	if s.w.Size() >= s.opt.SegmentBytes {
		// The record is stored either way; a failed rotation is retried
		// by the next append.
		err := s.w.Rotate(s.nextSegNoLocked())
		s.trackActiveLocked()
		if err != nil {
			s.opt.Logf("appstore: rotate segment %d: %v", seg, err)
		}
		s.maybeRetainLocked()
	}
	return nil
}

func (s *Store) nextSegNoLocked() uint64 {
	next := s.w.Seq() + 1
	for no := range s.segs {
		if no >= next {
			next = no + 1
		}
	}
	return next
}

// Sync flushes the active segment to stable storage.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("appstore: store is closed")
	}
	if err := s.w.Sync(); err != nil {
		return fmt.Errorf("appstore: %w", err)
	}
	return nil
}

// Close syncs and closes the store.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	err := s.w.Close()
	for _, info := range s.segs {
		if info.rd != nil {
			info.rd.Close()
			info.rd = nil
		}
	}
	return err
}

// Stats returns a snapshot of the store's state.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := s.stats
	st.RecordReads = s.recordReads.Load()
	st.Segments = len(s.segs)
	for _, info := range s.segs {
		st.Bytes += info.size
		st.LiveRecords += info.live
		st.DeadRecords += info.dead
	}
	return st
}

// readEntry preads and decodes one record. Caller holds at least the
// read lock; segment bytes are immutable while indexed. Concurrent
// readers share the segment's cached handle — ReadAt carries its own
// offset, so no further locking is needed here.
func (s *Store) readEntry(e *entry) (Record, error) {
	s.recordReads.Add(1)
	buf, err := s.readFrame(e, nil)
	if err != nil {
		return Record{}, err
	}
	payload, rest, err := seglog.NextFrame(buf, maxPayload)
	if err == nil && len(rest) != 0 {
		err = fmt.Errorf("frame length drifted")
	}
	if err != nil {
		return Record{}, fmt.Errorf("appstore: record %d: %w", e.seq, err)
	}
	_, r, err := decodeRecordPayload(payload)
	return r, err
}

// readFrame preads entry e's raw frame into buf, grown as needed.
func (s *Store) readFrame(e *entry, buf []byte) ([]byte, error) {
	info := s.segs[e.seg]
	if info == nil {
		return nil, fmt.Errorf("appstore: segment %d vanished from the index", e.seg)
	}
	rd, err := s.readHandle(e.seg, info)
	if err != nil {
		return nil, err
	}
	buf = slices.Grow(buf[:0], int(e.n))[:e.n]
	if _, err := rd.ReadAt(buf, e.off); err != nil {
		return nil, fmt.Errorf("appstore: read record %d from segment %d: %w", e.seq, e.seg, err)
	}
	return buf, nil
}

// readHandle returns the segment's cached read handle, opening it
// lazily. The cache slot is mutated under the shared read lock (two
// readers may race to open the same segment), so the open itself is
// guarded by a small per-store mutex; the returned *os.File is used
// outside the guard, because ReadAt on a shared file is
// concurrency-safe — reads do not serialize on each other.
func (s *Store) readHandle(seg uint64, info *segInfo) (*os.File, error) {
	s.rdMu.Lock()
	defer s.rdMu.Unlock()
	if info.rd == nil {
		f, err := os.Open(segFormat.Path(s.dir, seg))
		if err != nil {
			return nil, fmt.Errorf("appstore: open segment %d: %w", seg, err)
		}
		info.rd = f
	}
	return info.rd, nil
}

// Get fetches one record by sequence number.
func (s *Store) Get(seq uint64) (Record, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	i := s.findSeqLocked(seq)
	if i < 0 || s.entries[i].dead {
		return Record{}, fmt.Errorf("appstore: no record with seq %d", seq)
	}
	return s.readEntry(&s.entries[i])
}

// findSeqLocked binary-searches entries (ascending seq).
func (s *Store) findSeqLocked(seq uint64) int {
	i := sort.Search(len(s.entries), func(i int) bool { return s.entries[i].seq >= seq })
	if i < len(s.entries) && s.entries[i].seq == seq {
		return i
	}
	return -1
}

// ---- appdb read API, engine side -------------------------------------

// Apps returns all application names with live records, sorted.
func (s *Store) Apps() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.byApp))
	for app, idxs := range s.byApp {
		if s.anyLiveLocked(idxs) {
			out = append(out, app)
		}
	}
	sort.Strings(out)
	return out
}

func (s *Store) anyLiveLocked(idxs []int) bool {
	for _, i := range idxs {
		if !s.entries[i].dead {
			return true
		}
	}
	return false
}

// Len returns the number of live records.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := 0
	for _, info := range s.segs {
		n += info.live
	}
	return n
}

// Runs returns all live records of an application, oldest first. An
// unreadable record (I/O error, checksum failure) is skipped, not
// fatal: the readable records are returned alongside an error
// describing what was lost, so callers can tell a short history from a
// damaged one.
func (s *Store) Runs(app string) ([]Record, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []Record
	var firstErr error
	failed := 0
	for _, i := range s.byApp[app] {
		if s.entries[i].dead {
			continue
		}
		r, err := s.readEntry(&s.entries[i])
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			failed++
			continue
		}
		out = append(out, r)
	}
	if firstErr != nil {
		return out, fmt.Errorf("appstore: %d unreadable record(s) for %q: %w", failed, app, firstErr)
	}
	return out, nil
}

// Latest returns the most recent live record of an application.
func (s *Store) Latest(app string) (Record, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	idxs := s.byApp[app]
	for i := len(idxs) - 1; i >= 0; i-- {
		if e := &s.entries[idxs[i]]; !e.dead {
			return s.readEntry(e)
		}
	}
	return Record{}, fmt.Errorf("appdb: no records for application %q", app)
}

// HasRun reports whether a live record of app carries the finalize
// stamp at, from the index alone. Stamps grow with every finish, so the
// walk starts at the application's newest record.
func (s *Store) HasRun(app string, at int64) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	idxs := s.byApp[app]
	for i := len(idxs) - 1; i >= 0; i-- {
		if e := &s.entries[idxs[i]]; !e.dead && e.at == at {
			return true
		}
	}
	return false
}

// Summarize aggregates an application's live records from index
// metadata alone — no record body is read.
func (s *Store) Summarize(app string) (Summary, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	classCounts := make(map[appclass.Class]int)
	comp := make(map[appclass.Class]float64)
	var execSum time.Duration
	runs := 0
	for _, i := range s.byApp[app] {
		e := &s.entries[i]
		if e.dead {
			continue
		}
		runs++
		classCounts[e.class]++
		for _, c := range e.comp {
			comp[c.class] += c.frac
		}
		execSum += e.exec
	}
	if runs == 0 {
		return Summary{}, fmt.Errorf("appdb: no records for application %q", app)
	}
	for c := range comp {
		comp[c] /= float64(runs)
	}
	return Summary{
		App:             app,
		Runs:            runs,
		Class:           modalClass(classCounts),
		MeanComposition: comp,
		MeanExecution:   execSum / time.Duration(runs),
	}, nil
}

// modalClass picks the most frequent class, ties broken by the lesser
// class label — the same rule the in-memory engine applies.
func modalClass(counts map[appclass.Class]int) appclass.Class {
	var modal appclass.Class
	best := -1
	for c, n := range counts {
		if n > best || (n == best && c < modal) {
			modal, best = c, n
		}
	}
	return modal
}

// ByClass returns the applications whose modal class matches c, sorted.
func (s *Store) ByClass(c appclass.Class) []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []string
	for app, idxs := range s.byApp {
		counts := make(map[appclass.Class]int)
		for _, i := range idxs {
			if e := &s.entries[i]; !e.dead {
				counts[e.class]++
			}
		}
		if len(counts) > 0 && modalClass(counts) == c {
			out = append(out, app)
		}
	}
	sort.Strings(out)
	return out
}

// TotalExecution sums the execution time of every live record.
func (s *Store) TotalExecution() time.Duration {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var sum time.Duration
	for i := range s.entries {
		if e := &s.entries[i]; !e.dead {
			sum += e.exec
		}
	}
	return sum
}

// Fingerprints returns the fingerprint dictionary — each application's
// most recent fingerprinted live record. The returned fingerprints
// share their slices with the store's decoded dictionary (see
// refreshDictLocked); callers must not modify them. An unreadable
// dictionary entry drops its application from the map (the next call
// tries it again); the partial dictionary is returned alongside an
// error naming the loss, so the caller can log that matching degraded
// rather than silently losing applications.
func (s *Store) Fingerprints() (map[string]phase.Fingerprint, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.fpMu.Lock()
	defer s.fpMu.Unlock()
	err := s.refreshDictLocked()
	out := make(map[string]phase.Fingerprint, len(s.fps))
	for app, c := range s.fps {
		out[app] = c.fp
	}
	return out, err
}

// Dictionary returns the fingerprint dictionary as entries sorted by
// application, each with the page row of the record it came from, with
// the same sharing and error rules as Fingerprints. A call that finds
// every entry decoded reads no body.
func (s *Store) Dictionary() ([]DictEntry, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.fpMu.Lock()
	defer s.fpMu.Unlock()
	err := s.refreshDictLocked()
	var out []DictEntry
	for _, c := range s.fps {
		out = append(out, DictEntry{Run: c.row, Fingerprint: c.fp})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Run.App < out[b].Run.App })
	return out, err
}

// refreshDictLocked brings the decoded dictionary up to the index. The
// index names each application's entry; a body is decoded only when
// that record's seq differs from the seq of the entry decoded by an
// earlier call (a newer run was appended, or the old entry was pruned
// or lost to damage and an older record stands in). So the first call
// after open reads one body per application, and a call after one
// fingerprinted append reads one. Prune, retention, compaction and
// scrub need no hook: compaction keeps seqs, and a removed entry is
// simply no longer the one the index names. Caller holds the read lock
// and fpMu.
func (s *Store) refreshDictLocked() error {
	cache := make(map[string]fpEntry, len(s.fps))
	var firstErr error
	failed := 0
	for app, idxs := range s.byApp {
		for i := len(idxs) - 1; i >= 0; i-- {
			e := &s.entries[idxs[i]]
			if e.dead || !e.hasFP {
				continue
			}
			c, ok := s.fps[app]
			if !ok || c.seq != e.seq {
				r, err := s.readEntry(e)
				if err != nil {
					if firstErr == nil {
						firstErr = err
					}
					failed++
					break
				}
				if r.Fingerprint == nil || r.Fingerprint.Empty() {
					break
				}
				m := e.meta
				m.setPage(&r)
				c = fpEntry{seq: e.seq, fp: *r.Fingerprint, row: m.row()}
			}
			cache[app] = c
			break
		}
	}
	s.fps = cache
	if firstErr != nil {
		return fmt.Errorf("appstore: %d unreadable fingerprint dictionary entr(ies): %w", failed, firstErr)
	}
	return nil
}
