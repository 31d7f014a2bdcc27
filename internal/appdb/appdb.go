// Package appdb implements the paper's application database (Figure 1):
// it stores, per application, the post-processed classification results
// of historical runs — class, class composition, and execution time —
// which schedulers query to make class-aware placement decisions.
//
// The package keeps the public API over two engines. Open() backs it
// with internal/appstore, the log-structured segmented store: O(1)
// appends on the finalize hot path, secondary indexes, paginated Scan,
// compaction and retention. It is the one on-disk format, which the
// daemon and every tool open. New() gives an in-memory map that nothing
// persists: a daemon without -db, a classification service's scratch
// database, and the reference the equivalence tests hold the store to.
// Record, Summary, and Filter are aliases of the appstore types, so the
// two engines share one record format.
package appdb

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/appstore"
	"repro/internal/phase"
)

// Record is one historical run of an application (see appstore.Record
// for the field documentation).
type Record = appstore.Record

// Summary aggregates an application's historical runs: the modal class,
// the mean composition, and the mean execution time — the "statistical
// abstracts of the application behavior" the paper stores for
// scheduling.
type Summary = appstore.Summary

// Filter narrows a Scan (see appstore.Filter).
type Filter = appstore.Filter

// Row is one run as a page of runs shows it (see appstore.Row).
type Row = appstore.Row

// DictEntry is one fingerprint-dictionary entry (see appstore.DictEntry).
type DictEntry = appstore.DictEntry

// stored is one in-memory record plus its insertion sequence number,
// which gives the memory engine the same stable newest-first Scan
// cursor semantics as the segmented store.
type stored struct {
	seq uint64
	rec Record
}

// DB stores classification records keyed by application name. It is safe
// for concurrent use.
type DB struct {
	mu      sync.RWMutex
	records map[string][]stored
	nextSeq uint64
	store   *appstore.Store      // nil for the in-memory engine
	logf    func(string, ...any) // engine errors on no-error API paths
	events  eventLog
}

// New creates an empty in-memory database.
func New() *DB {
	return &DB{records: make(map[string][]stored), nextSeq: 1, logf: func(string, ...any) {}}
}

// Open opens a database backed by the log-structured segmented store at
// path (see appstore.Open; a legacy JSON file at path is converted in
// place). The returned DB serves the same API as an in-memory one;
// callers must Close it to flush the active segment. Engine read errors
// surfacing through API methods without an error return (Runs,
// Fingerprints, Prune) are reported through opt.Logf, so a damaged
// store degrades loudly instead of masquerading as an empty one. Open
// takes no lock, and it cuts torn tails and resumes the active segment:
// never open a store that another process (a running daemon) holds.
func Open(path string, opt appstore.Options) (*DB, error) {
	st, err := appstore.Open(path, opt)
	if err != nil {
		return nil, err
	}
	db := New()
	db.store = st
	if opt.Logf != nil {
		db.logf = opt.Logf
	}
	return db, nil
}

// Store exposes the segmented-store engine, nil when the database is
// in-memory. Callers needing Scan or Stats can use the DB methods
// instead; this is for store-specific surgery (Compact, Sync).
func (db *DB) Store() *appstore.Store { return db.store }

// StoreStats reports segmented-store statistics; ok is false for the
// in-memory engine.
func (db *DB) StoreStats() (appstore.Stats, bool) {
	if db.store == nil {
		return appstore.Stats{}, false
	}
	return db.store.Stats(), true
}

// Close releases the storage engine. It is a no-op for the in-memory
// engine.
func (db *DB) Close() error {
	if db.store != nil {
		return db.store.Close()
	}
	return nil
}

// Put appends a run record for its application.
func (db *DB) Put(r Record) error {
	if err := r.Validate(); err != nil {
		return err
	}
	if db.store != nil {
		return db.store.Append(&r)
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	db.records[r.App] = append(db.records[r.App], stored{seq: db.nextSeq, rec: r})
	db.nextSeq++
	return nil
}

// Runs returns all records of an application, oldest first. On the
// segmented store, unreadable records are logged and skipped — the
// readable remainder is still returned.
func (db *DB) Runs(app string) []Record {
	if db.store != nil {
		rs, err := db.store.Runs(app)
		if err != nil {
			db.logf("appdb: reading runs for %q: %v", app, err)
		}
		return rs
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	ss := db.records[app]
	if len(ss) == 0 {
		return nil
	}
	out := make([]Record, len(ss))
	for i := range ss {
		out[i] = ss[i].rec
	}
	return out
}

// Apps returns all application names, sorted.
func (db *DB) Apps() []string {
	if db.store != nil {
		return db.store.Apps()
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.appsLocked()
}

// Len returns the total number of records.
func (db *DB) Len() int {
	if db.store != nil {
		return db.store.Len()
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	n := 0
	for _, rs := range db.records {
		n += len(rs)
	}
	return n
}

// Scan returns up to limit runs matching f as page rows, newest first,
// resuming from cursor (0 = newest; the returned cursor continues the
// scan, 0 once exhausted). Both engines serve it; the segmented store
// walks its secondary indexes and reads no body for a record that
// carries its page fields in the index.
func (db *DB) Scan(f Filter, cursor uint64, limit int) ([]Row, uint64, error) {
	if db.store != nil {
		return db.store.Scan(f, cursor, limit)
	}
	if limit <= 0 {
		limit = appstore.DefaultScanLimit
	}
	if limit > appstore.MaxScanLimit {
		limit = appstore.MaxScanLimit
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	var all []stored
	if f.App != "" {
		all = append(all, db.records[f.App]...)
	} else {
		for _, ss := range db.records {
			all = append(all, ss...)
		}
	}
	sort.Slice(all, func(a, b int) bool { return all[a].seq > all[b].seq })
	var out []Row
	var next uint64
	for i := range all {
		e := &all[i]
		if cursor != 0 && e.seq >= cursor {
			continue
		}
		if !matchFilter(f, &e.rec) {
			continue
		}
		out = append(out, appstore.RowOf(&e.rec))
		next = e.seq
		if len(out) >= limit {
			return out, next, nil
		}
	}
	return out, 0, nil
}

func matchFilter(f Filter, r *Record) bool {
	if f.App != "" && r.App != f.App {
		return false
	}
	if f.Class != "" && r.Class != f.Class {
		return false
	}
	if f.Verdict != "" && r.Verdict != f.Verdict {
		return false
	}
	if f.Model != "" && r.ModelID != f.Model {
		return false
	}
	if f.Since != 0 || f.Until != 0 {
		if r.FinalizedAt == 0 {
			return false
		}
		if f.Since != 0 && r.FinalizedAt < f.Since {
			return false
		}
		if f.Until != 0 && r.FinalizedAt > f.Until {
			return false
		}
	}
	return true
}

// Fingerprints returns the fingerprint dictionary: each application's
// most recent fingerprinted run. This is the corpus BestMatch compares
// a finalizing session against. The map is the caller's, but the
// fingerprints in it are shared with the engine (its stored records,
// or the segmented store's decoded dictionary): callers must not
// modify them.
func (db *DB) Fingerprints() map[string]phase.Fingerprint {
	if db.store != nil {
		fps, err := db.store.Fingerprints()
		if err != nil {
			// The partial dictionary still matches what it can; say what
			// was lost so degraded verdicts are explainable.
			db.logf("appdb: reading fingerprint dictionary: %v", err)
		}
		return fps
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make(map[string]phase.Fingerprint)
	for app, ss := range db.records {
		for i := len(ss) - 1; i >= 0; i-- {
			if fp := ss[i].rec.Fingerprint; fp != nil && !fp.Empty() {
				out[app] = *fp
				break
			}
		}
	}
	return out
}

// Dictionary returns the fingerprint dictionary as entries sorted by
// application, each with the page row of its run: what
// /v1/fingerprints serves. The segmented store builds it from the
// entries Fingerprints keeps decoded. Rows and fingerprints are shared
// with the engine; callers must not modify them.
func (db *DB) Dictionary() []DictEntry {
	if db.store != nil {
		ents, err := db.store.Dictionary()
		if err != nil {
			db.logf("appdb: reading fingerprint dictionary: %v", err)
		}
		return ents
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	var out []DictEntry
	for _, app := range db.appsLocked() {
		ss := db.records[app]
		for i := len(ss) - 1; i >= 0; i-- {
			if fp := ss[i].rec.Fingerprint; fp != nil && !fp.Empty() {
				out = append(out, DictEntry{Run: appstore.RowOf(&ss[i].rec), Fingerprint: *fp})
				break
			}
		}
	}
	return out
}

// HasRun reports whether a record of app carries the finalize stamp at:
// how crash recovery tells a finish already stored from one it must
// redo.
func (db *DB) HasRun(app string, at int64) bool {
	if db.store != nil {
		return db.store.HasRun(app, at)
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	ss := db.records[app]
	for i := len(ss) - 1; i >= 0; i-- {
		if ss[i].rec.FinalizedAt == at {
			return true
		}
	}
	return false
}

// Latest returns the most recent record of an application.
func (db *DB) Latest(app string) (Record, error) {
	if db.store != nil {
		return db.store.Latest(app)
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	ss := db.records[app]
	if len(ss) == 0 {
		return Record{}, fmt.Errorf("appdb: no records for application %q", app)
	}
	return ss[len(ss)-1].rec, nil
}

// Summarize aggregates all runs of an application.
func (db *DB) Summarize(app string) (Summary, error) {
	if db.store != nil {
		return db.store.Summarize(app)
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	ss := db.records[app]
	if len(ss) == 0 {
		return Summary{}, fmt.Errorf("appdb: no records for application %q", app)
	}
	rs := make([]Record, len(ss))
	for i := range ss {
		rs[i] = ss[i].rec
	}
	return summarize(app, rs), nil
}

func (db *DB) appsLocked() []string {
	out := make([]string, 0, len(db.records))
	for a := range db.records {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}
