package server

import (
	"embed"
	"io/fs"
	"math"
	"net/http"
	"strconv"
	"time"

	"repro/internal/appclass"
	"repro/internal/appstore"
)

// The control-plane dashboard is a static single-page app compiled into
// the binary: no build step, no CDN, nothing to deploy next to the
// daemon. It polls the daemon's JSON endpoints, /v1/runs below among
// them (they are always on; only the asset mount is gated by
// Config.Dashboard).

//go:embed dashboard
var dashboardFiles embed.FS

func dashboardAssets() fs.FS {
	sub, err := fs.Sub(dashboardFiles, "dashboard")
	if err != nil {
		panic(err) // embedded tree is fixed at build time
	}
	return sub
}

// runJSON is one row of GET /v1/runs: a finalized run's page row,
// rendered for operators (durations in seconds, times RFC3339).
type runJSON struct {
	App           string                     `json:"app"`
	Class         string                     `json:"class"`
	Composition   map[appclass.Class]float64 `json:"composition,omitempty"`
	ExecutionSecs float64                    `json:"execution_s"`
	Samples       int                        `json:"samples"`
	FinalizedAt   string                     `json:"finalized_at,omitempty"`
	Gaps          int                        `json:"gaps,omitempty"`
	Verdict       string                     `json:"verdict,omitempty"`
	Unknown       float64                    `json:"unknown_fraction,omitempty"`
	Model         string                     `json:"model,omitempty"`
	Phases        int                        `json:"phases,omitempty"`
	Fingerprint   string                     `json:"fingerprint,omitempty"`
	MatchedApp    string                     `json:"matched_app,omitempty"`
	MatchScore    float64                    `json:"match_score,omitempty"`
}

// The run filters compare int64 nanoseconds, which reach only from
// minRunTime to maxRunTime; parseTimeParam refuses a time outside
// that span rather than let it wrap.
var minRunTime, maxRunTime = time.Unix(0, math.MinInt64), time.Unix(0, math.MaxInt64)

const runTimeSpan = "RFC3339 or unix seconds within 1677-09-21T00:12:44Z..2262-04-11T23:47:16Z"

// parseTimeParam accepts RFC3339 or integer unix seconds in the span
// of runTimeSpan, as unix nanoseconds; zero when absent.
func parseTimeParam(v string) (int64, bool) {
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

// handleRuns serves the paginated finalized-run query API over the
// application database: GET /v1/runs?app=&class=&verdict=&model=&since=
// &until=&cursor=&limit=. Newest first; the response's next_cursor
// resumes the scan (0 when exhausted).
func (s *Server) handleRuns(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	f := appstore.Filter{
		App:     q.Get("app"),
		Class:   appclass.Class(q.Get("class")),
		Verdict: appclass.Class(q.Get("verdict")),
		Model:   q.Get("model"),
	}
	if f.Class != "" && !appclass.Valid(f.Class) {
		writeError(w, http.StatusBadRequest, "unknown class %q", f.Class)
		return
	}
	if f.Verdict != "" && f.Verdict != appclass.Unknown && !appclass.Valid(f.Verdict) {
		writeError(w, http.StatusBadRequest, "unknown verdict %q", f.Verdict)
		return
	}
	var ok bool
	if f.Since, ok = parseTimeParam(q.Get("since")); !ok {
		writeError(w, http.StatusBadRequest, "since must be %s", runTimeSpan)
		return
	}
	if f.Until, ok = parseTimeParam(q.Get("until")); !ok {
		writeError(w, http.StatusBadRequest, "until must be %s", runTimeSpan)
		return
	}
	var cursor uint64
	if v := q.Get("cursor"); v != "" {
		c, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, "cursor must be an unsigned integer")
			return
		}
		cursor = c
	}
	limit := 0
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			writeError(w, http.StatusBadRequest, "limit must be a positive integer")
			return
		}
		limit = n
	}
	rows, next, err := s.cfg.DB.Scan(f, cursor, limit)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "scan: %v", err)
		return
	}
	out := struct {
		Count      int       `json:"count"`
		Runs       []runJSON `json:"runs"`
		NextCursor uint64    `json:"next_cursor"`
	}{Runs: make([]runJSON, 0, len(rows)), NextCursor: next}
	for _, run := range rows {
		row := runJSON{
			App:           run.App,
			Class:         string(run.Class),
			Composition:   run.Composition,
			ExecutionSecs: run.ExecutionTime.Seconds(),
			Samples:       run.Samples,
			Gaps:          run.Gaps,
			Verdict:       string(run.Verdict),
			Unknown:       run.UnknownFraction,
			Model:         run.ModelID,
			Phases:        run.Phases,
			Fingerprint:   run.Fingerprint,
			MatchedApp:    run.MatchedApp,
			MatchScore:    run.MatchScore,
		}
		if run.FinalizedAt > 0 {
			row.FinalizedAt = time.Unix(0, run.FinalizedAt).UTC().Format(time.RFC3339)
		}
		out.Runs = append(out.Runs, row)
	}
	out.Count = len(out.Runs)
	writeJSON(w, http.StatusOK, out)
}
