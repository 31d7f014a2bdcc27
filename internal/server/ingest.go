package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"time"

	"repro/internal/appclass"
	"repro/internal/metrics"
	"repro/internal/modelreg"
	"repro/internal/wire"
)

// maxIngestBody caps one ingest request's body; it doubles as the
// admission-control reservation for requests that do not declare a
// Content-Length.
const maxIngestBody = 8 << 20

// ingestGroup is one VM's run of rows, sc.snaps[start:end], classified
// under a single session-lock acquisition.
type ingestGroup struct {
	vm         string
	start, end int
}

// ingestScratch is the pooled per-request workspace of both ingest
// protocols. A decoder fills groups and snaps (schema-ordered rows,
// contiguous per group), the core fills classes (parallel to snaps) and
// tokens, and an encoder answers from classes. Every slice and map
// keeps its capacity across requests, so a warm binary request does not
// allocate, and a warm canonical JSON request allocates only its VM
// names.
type ingestScratch struct {
	reserve  int64     // admission reservation, released by doneIngest
	deadline time.Time // zero without an IngestTimeout

	// lim caps the body read; it lives here so that reading a body
	// into a warm buffer allocates nothing.
	lim     io.LimitedReader
	body    bytes.Buffer
	groups  []ingestGroup
	snaps   []metrics.Snapshot
	classes []appclass.Class
	tokens  []int64 // the request's group-commit durability tokens
	// rows are the schema-length value buffers decoded rows land in;
	// observeBatch does not retain them (sessions copy what they keep),
	// so the scratch owns them outright.
	rows [][]float64

	// The JSON scanner's snapshots and VM names, the JSON decoder's
	// VM-to-group index, and each input snapshot's position in snaps.
	in      []ingestSnapshot
	vms     map[string]string
	groupOf map[string]int
	at      []int
	// The binary encoder's class IDs, and either protocol's reply.
	ids  []byte
	resp []byte
}

// row returns the i'th schema-length row buffer, growing the pool on
// first use.
func (sc *ingestScratch) row(i, n int) []float64 {
	for len(sc.rows) <= i {
		sc.rows = append(sc.rows, make([]float64, n))
	}
	return sc.rows[i]
}

// ingestError is a rejected ingest request: the status and message
// either protocol answers with, plus the serving model's hash on a
// stale-stream 409.
type ingestError struct {
	code int
	msg  string
	hash modelreg.Hash
}

func ingestErrorf(code int, format string, args ...any) *ingestError {
	return &ingestError{code: code, msg: fmt.Sprintf(format, args...)}
}

// maxSnapshotSeconds bounds a snapshot time: past it the nanoseconds
// of a time.Duration wrap (about 292 years).
const maxSnapshotSeconds = math.MaxInt64 / float64(time.Second)

// validSnapshotTime reports whether a snapshot time in seconds converts
// to a time.Duration without wrapping; NaN and ±Inf do not.
func validSnapshotTime(sec float64) bool {
	ns := sec * float64(time.Second)
	return ns >= math.MinInt64 && ns < math.MaxInt64
}

// vmNameError says why vm cannot name a session, nil when it can: a
// name is 1..wire.MaxVMName bytes, the span the journal and the binary
// wire encode. The text reads after "snapshot N ".
func vmNameError(vm string) error {
	switch {
	case vm == "":
		return errors.New("has no vm")
	case len(vm) > wire.MaxVMName:
		return fmt.Errorf("vm name is %d bytes, over the %d-byte limit", len(vm), wire.MaxVMName)
	}
	return nil
}

// countRejected counts a request refused with 400 or 413, on either
// protocol, in ingestErrors. The 409, 429 and 503 answers have counters
// of their own, and the journal and classify failures behind a 500 are
// counted where they happen.
func (s *Server) countRejected(e *ingestError) {
	if e.code == http.StatusBadRequest || e.code == http.StatusRequestEntityTooLarge {
		s.counters.ingestErrors.Add(1)
	}
}

// admitIngest runs admission control before the request takes any lock:
// a request over the in-flight byte/request budget is shed with 429
// Retry-After, so the checkpoint quiesce can never accumulate a backlog
// of over-budget requests. An admitted request gets a pooled scratch
// holding its reservation and deadline; doneIngest returns both.
func (s *Server) admitIngest(w http.ResponseWriter, r *http.Request) (*ingestScratch, *ingestError) {
	reserve := r.ContentLength
	if reserve < 0 || reserve > maxIngestBody {
		reserve = maxIngestBody
	}
	if !s.admit.tryAdmit(reserve) {
		s.counters.shedRequests.Add(1)
		w.Header().Set("Retry-After", "1")
		return nil, ingestErrorf(http.StatusTooManyRequests, "ingest over the in-flight budget; retry later")
	}
	sc := s.scratch.Get().(*ingestScratch)
	sc.reserve = reserve
	sc.deadline = time.Time{}
	if s.cfg.IngestTimeout > 0 {
		sc.deadline = s.now().Add(s.cfg.IngestTimeout)
	}
	return sc, nil
}

func (s *Server) doneIngest(sc *ingestScratch) {
	s.admit.release(sc.reserve)
	s.scratch.Put(sc)
}

// readBody reads the request body into sc.body, refusing one over
// maxIngestBody with 413.
func (sc *ingestScratch) readBody(r *http.Request) *ingestError {
	sc.body.Reset()
	sc.lim = io.LimitedReader{R: r.Body, N: maxIngestBody + 1}
	_, err := sc.body.ReadFrom(&sc.lim)
	sc.lim.R = nil
	if err != nil {
		return ingestErrorf(http.StatusBadRequest, "read body: %v", err)
	}
	if sc.body.Len() > maxIngestBody {
		return ingestErrorf(http.StatusRequestEntityTooLarge, "body exceeds %d bytes", maxIngestBody)
	}
	return nil
}

// ingest is the core behind both protocols. It classifies sc's groups in
// order, each with its journal append under one session lock, and then
// waits once on the journal for all of them. With IngestTimeout set, a
// request that cannot finish classifying by its deadline is abandoned
// with 503 between VM groups, as is one whose client has gone.
func (s *Server) ingest(ctx context.Context, sc *ingestScratch) *ingestError {
	if cap(sc.classes) < len(sc.snaps) {
		sc.classes = make([]appclass.Class, len(sc.snaps))
	}
	sc.classes = sc.classes[:len(sc.snaps)]
	sc.tokens = sc.tokens[:0]
	for gi, g := range sc.groups {
		if !sc.deadline.IsZero() && s.now().After(sc.deadline) {
			s.counters.deadlineExceeded.Add(1)
			return ingestErrorf(http.StatusServiceUnavailable, "ingest deadline exceeded after %d of %d vm groups", gi, len(sc.groups))
		}
		if err := ctx.Err(); err != nil {
			// The client is gone; stop classifying for nobody.
			s.counters.deadlineExceeded.Add(1)
			return ingestErrorf(http.StatusServiceUnavailable, "ingest request cancelled: %v", err)
		}
		// The group's span of classes has the capacity observeBatch
		// needs, so it is filled in place.
		_, token, err := s.observeBatch(g.vm, sc.snaps[g.start:g.end], sc.classes[g.start:g.end], true)
		if err != nil {
			return ingestErrorf(http.StatusInternalServerError, "classify %s: %v", g.vm, err)
		}
		if token != 0 {
			sc.tokens = append(sc.tokens, token)
		}
	}
	// One durability wait covers every group's journal record: under
	// group commit the appends above coalesce behind a shared fsync.
	if err := s.waitJournalDurable(sc.tokens...); err != nil {
		return ingestErrorf(http.StatusInternalServerError, "%v", err)
	}
	return nil
}
