package appdb

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/seglog"
)

// The event log records operational incidents the database should
// remember across restarts — model auto-rollbacks, scrub repairs, task
// escalations — next to the run records they affected. Events are not
// Records (they have no class or composition to validate), so they get
// their own append-only JSON-lines sidecar in the store directory; the
// in-memory engine keeps them in a slice. Malformed lines (a torn tail
// from a crash mid-append) are skipped on read, never fatal.

// Event is one operational incident worth remembering.
type Event struct {
	// AtUnixNS is when the event happened.
	AtUnixNS int64 `json:"at_unix_ns"`
	// Type is the event kind, e.g. "model_rollback", "scrub_repair",
	// "task_escalated".
	Type string `json:"type"`
	// Detail carries event-specific fields (model IDs, segment numbers,
	// breach rates), all stringly so the log schema never churns.
	Detail map[string]string `json:"detail,omitempty"`
}

// eventsFile is the sidecar name inside a segmented store directory.
const eventsFile = "events.jsonl"

// eventLog is the engine-independent event state hanging off a DB.
type eventLog struct {
	mu  sync.Mutex
	mem []Event // in-memory engine only
}

// PutEvent appends an operational event. On the segmented store it is
// durable: one JSON line is appended and fsynced, and the store
// directory is fsynced when the append creates the file. In memory it
// lives as long as the DB.
func (db *DB) PutEvent(e Event) error {
	if e.Type == "" {
		return fmt.Errorf("appdb: event needs a type")
	}
	line, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("appdb: encode event: %w", err)
	}
	db.events.mu.Lock()
	defer db.events.mu.Unlock()
	if db.store == nil {
		db.events.mem = append(db.events.mem, e)
		return nil
	}
	path := filepath.Join(db.store.Dir(), eventsFile)
	_, statErr := os.Stat(path)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("appdb: open event log: %w", err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return fmt.Errorf("appdb: stat event log: %w", err)
	}
	if n := st.Size(); n > 0 {
		// A crash mid-append leaves a fragment without its newline; end
		// it first, or this event would be glued onto it and skipped
		// with it.
		var last [1]byte
		if _, err := f.ReadAt(last[:], n-1); err != nil {
			return fmt.Errorf("appdb: read event log: %w", err)
		}
		if last[0] != '\n' {
			line = append([]byte{'\n'}, line...)
		}
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		return fmt.Errorf("appdb: append event: %w", err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("appdb: sync event log: %w", err)
	}
	if os.IsNotExist(statErr) {
		return seglog.SyncDir(db.store.Dir())
	}
	return nil
}

// Events returns the most recent events, oldest first, at most limit
// (0 means all). Unparsable lines — a torn tail from a crash
// mid-append — are skipped, not fatal.
func (db *DB) Events(limit int) ([]Event, error) {
	db.events.mu.Lock()
	defer db.events.mu.Unlock()
	var out []Event
	if db.store == nil {
		out = append(out, db.events.mem...)
	} else {
		f, err := os.Open(filepath.Join(db.store.Dir(), eventsFile))
		if err != nil {
			if os.IsNotExist(err) {
				return nil, nil
			}
			return nil, fmt.Errorf("appdb: open event log: %w", err)
		}
		defer f.Close()
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
		for sc.Scan() {
			var e Event
			if err := json.Unmarshal(sc.Bytes(), &e); err != nil || e.Type == "" {
				continue // torn or foreign line
			}
			out = append(out, e)
		}
		if err := sc.Err(); err != nil {
			return out, fmt.Errorf("appdb: read event log: %w", err)
		}
	}
	if limit > 0 && len(out) > limit {
		out = out[len(out)-limit:]
	}
	return out, nil
}
