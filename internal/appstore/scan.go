package appstore

import (
	"fmt"
	"math"
	"strconv"
	"time"

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

// The time bounds compare int64 nanoseconds, which reach only from
// minRunTime to maxRunTime; ParseFilter refuses a time outside that
// span rather than let it wrap.
var minRunTime, maxRunTime = time.Unix(0, math.MinInt64), time.Unix(0, math.MaxInt64)

const runTimeSpan = "RFC3339 or unix seconds within 1677-09-21T00:12:44Z..2262-04-11T23:47:16Z"

// ParseFilter builds a Filter from the run-query parameters app, class,
// verdict, model, since and until, read through get (url.Values.Get
// fits). A class must be a known class and a verdict a class or
// "unknown"; since and until take RFC3339 or integer unix seconds
// within the span of int64 nanoseconds. GET /v1/runs answers its error
// text as a 400 and appdbtool ls reports it.
func ParseFilter(get func(key string) string) (Filter, error) {
	f := Filter{
		App:     get("app"),
		Class:   appclass.Class(get("class")),
		Verdict: appclass.Class(get("verdict")),
		Model:   get("model"),
	}
	if f.Class != "" && !appclass.Valid(f.Class) {
		return Filter{}, fmt.Errorf("unknown class %q", f.Class)
	}
	if f.Verdict != "" && f.Verdict != appclass.Unknown && !appclass.Valid(f.Verdict) {
		return Filter{}, fmt.Errorf("unknown verdict %q", f.Verdict)
	}
	var ok bool
	if f.Since, ok = parseRunTime(get("since")); !ok {
		return Filter{}, fmt.Errorf("since must be %s", runTimeSpan)
	}
	if f.Until, ok = parseRunTime(get("until")); !ok {
		return Filter{}, fmt.Errorf("until must be %s", runTimeSpan)
	}
	return f, nil
}

// parseRunTime accepts RFC3339 or integer unix seconds in the span of
// runTimeSpan, as unix nanoseconds; zero when absent.
func parseRunTime(v string) (int64, bool) {
	if v == "" {
		return 0, true
	}
	var t time.Time
	if secs, err := strconv.ParseInt(v, 10, 64); err == nil {
		// Bound secs before time.Unix, whose own arithmetic wraps too.
		if secs < minRunTime.Unix() || secs > maxRunTime.Unix() {
			return 0, false
		}
		t = time.Unix(secs, 0)
	} else if t, err = time.Parse(time.RFC3339, v); err != nil {
		return 0, false
	}
	if t.Before(minRunTime) || t.After(maxRunTime) {
		return 0, false
	}
	return t.UnixNano(), true
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
