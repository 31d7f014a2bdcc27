package appstore

import (
	"repro/internal/appclass"
)

// Filter narrows a Scan. Zero values match everything.
type Filter struct {
	// App matches one application (the VM name records are keyed by).
	App string
	// Class matches the record's majority-vote class.
	Class appclass.Class
	// Verdict matches the open-set verdict (e.g. appclass.Unknown).
	Verdict appclass.Class
	// Model matches the serving model's compatibility hash.
	Model string
	// Since and Until bound the finalize time, unix nanoseconds,
	// inclusive. Zero means unbounded. Records without a finalize stamp
	// (legacy migrations) only match when both bounds are zero.
	Since int64
	Until int64
}

// DefaultScanLimit and MaxScanLimit bound a Scan page.
const (
	DefaultScanLimit = 50
	MaxScanLimit     = 1000
)

// Scan returns up to limit live runs matching f as page rows, newest
// first (descending sequence number). cursor is the pagination token: 0
// starts at the newest record, and the returned next cursor — 0 once
// the scan is exhausted — resumes exactly where the page ended, stable
// under concurrent appends (new records get higher sequence numbers
// and never shift an open cursor). A row of a kind-2 record comes from
// the index alone; a kind-1 record's page fields cost one body read.
func (s *Store) Scan(f Filter, cursor uint64, limit int) ([]Row, uint64, error) {
	if limit <= 0 {
		limit = DefaultScanLimit
	}
	if limit > MaxScanLimit {
		limit = MaxScanLimit
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	// Walk the most selective posting list available; all lists are in
	// ascending seq order, so iterate backwards for newest-first.
	var idxs []int
	switch {
	case f.App != "":
		idxs = s.byApp[f.App]
	case f.Model != "":
		idxs = s.byModel[f.Model]
	case f.Verdict != "":
		idxs = s.byVerd[f.Verdict]
	case f.Class != "":
		idxs = s.byClass[f.Class]
	}
	match := func(e *entry) bool {
		if e.dead {
			return false
		}
		if f.App != "" && e.app != f.App {
			return false
		}
		if f.Class != "" && e.class != f.Class {
			return false
		}
		if f.Verdict != "" && e.verdict != f.Verdict {
			return false
		}
		if f.Model != "" && e.model != f.Model {
			return false
		}
		if f.Since != 0 || f.Until != 0 {
			if e.at == 0 {
				return false
			}
			if f.Since != 0 && e.at < f.Since {
				return false
			}
			if f.Until != 0 && e.at > f.Until {
				return false
			}
		}
		return true
	}
	var out []Row
	var next uint64
	emit := func(e *entry) (bool, error) {
		if cursor != 0 && e.seq >= cursor {
			return false, nil
		}
		if !match(e) {
			return false, nil
		}
		r, err := s.rowLocked(e)
		if err != nil {
			return false, err
		}
		out = append(out, r)
		next = e.seq
		return len(out) >= limit, nil
	}
	if idxs != nil {
		for i := len(idxs) - 1; i >= 0; i-- {
			full, err := emit(&s.entries[idxs[i]])
			if err != nil {
				return nil, 0, err
			}
			if full {
				return out, next, nil
			}
		}
	} else {
		for i := len(s.entries) - 1; i >= 0; i-- {
			full, err := emit(&s.entries[i])
			if err != nil {
				return nil, 0, err
			}
			if full {
				return out, next, nil
			}
		}
	}
	return out, 0, nil
}

// rowLocked renders entry e as a page row, reading its body only when
// the meta header lacks the page fields. Caller holds the read lock.
func (s *Store) rowLocked(e *entry) (Row, error) {
	if e.page {
		return e.row(), nil
	}
	r, err := s.readEntry(e)
	if err != nil {
		return Row{}, err
	}
	m := e.meta
	m.setPage(&r)
	return m.row(), nil
}
