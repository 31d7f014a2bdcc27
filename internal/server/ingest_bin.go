package server

import (
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/appclass"
	"repro/internal/metrics"
	"repro/internal/modelreg"
	"repro/internal/wire"
)

// maxBinStreams caps the binary-ingest stream registry; past it, new
// handshakes first evict idle streams and then answer 503. Streams are
// tiny (a column table and a VM intern map), so the cap is generous.
const maxBinStreams = 8192

// maxBinVMIntern caps one stream's VM-name intern map; batches naming
// more distinct VMs than this still work, their names just allocate.
const maxBinVMIntern = 4096

// binClassTable is the class-ID table negotiated in every HelloAck:
// the Table-3 classes in canonical order plus the open-set UNKNOWN
// verdict. Batch acks index into it.
var binClassTable = append(appclass.All(), appclass.Unknown)

// binClassID maps a classification to its table index. The table has
// six entries, so a linear scan beats any map.
func binClassID(cl appclass.Class) byte {
	for i, c := range binClassTable {
		if c == cl {
			return byte(i)
		}
	}
	return 0 // unreachable: observeBatch only returns table classes
}

// binStream is one negotiated binary-ingest stream: the column table
// mapping wire column index to schema index, the model hash the table
// was validated under, and a VM-name intern map so steady-state
// batches never allocate a name string.
type binStream struct {
	id uint64
	// cols[i] is the schema index of wire column i.
	cols []int
	// hash pins the stream to the model generation it was negotiated
	// under; a hot swap makes every batch on the stream answer 409
	// until the client re-handshakes.
	hash modelreg.Hash
	// lastUsed is unix nanos of the stream's last batch (or its
	// creation), read by the janitor's idle sweep.
	lastUsed atomic.Int64

	mu  sync.RWMutex
	vms map[string]string
}

// internVM returns the stream's canonical string for a wire VM name,
// allocating it at most once per stream. The map lookup keyed by
// string(b) compiles allocation-free.
func (st *binStream) internVM(b []byte) string {
	st.mu.RLock()
	vm, ok := st.vms[string(b)]
	st.mu.RUnlock()
	if ok {
		return vm
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if vm, ok = st.vms[string(b)]; ok {
		return vm
	}
	if len(st.vms) >= maxBinVMIntern {
		return string(b)
	}
	vm = string(b)
	st.vms[vm] = vm
	return vm
}

// binRegistry holds the live binary-ingest streams.
type binRegistry struct {
	mu     sync.RWMutex
	m      map[uint64]*binStream
	nextID uint64
}

func (r *binRegistry) get(id uint64) (*binStream, bool) {
	r.mu.RLock()
	st, ok := r.m[id]
	r.mu.RUnlock()
	return st, ok
}

// add registers st under a fresh ID; false means the registry is full.
func (r *binRegistry) add(st *binStream) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.m == nil {
		r.m = make(map[uint64]*binStream)
	}
	if len(r.m) >= maxBinStreams {
		return false
	}
	r.nextID++
	st.id = r.nextID
	r.m[st.id] = st
	return true
}

func (r *binRegistry) remove(id uint64) {
	r.mu.Lock()
	delete(r.m, id)
	r.mu.Unlock()
}

func (r *binRegistry) len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.m)
}

// expire removes streams whose last batch predates cutoff (unix
// nanos), returning how many were dropped.
func (r *binRegistry) expire(cutoff int64) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for id, st := range r.m {
		if st.lastUsed.Load() < cutoff {
			delete(r.m, id)
			n++
		}
	}
	return n
}

// writeBinError answers a binary-ingest request with an Error frame
// carrying e's HTTP status, message and, on a stale-model 409, the
// serving model's hash.
func writeBinError(w http.ResponseWriter, e *ingestError) {
	ef := wire.ErrorFrame{Code: e.code, Message: e.msg}
	copy(ef.ModelHash[:], e.hash[:])
	buf, start := wire.BeginFrame(nil)
	buf = wire.AppendError(buf, ef)
	buf = wire.EndFrame(buf, start)
	w.Header().Set("Content-Type", wire.ContentType)
	w.WriteHeader(e.code)
	_, _ = w.Write(buf)
}

// handleIngestBin is POST /v1/ingest.bin: the binary columnar fast
// path. A request carries exactly one frame: a Hello (handshake:
// negotiate the column table, open a stream) or a Batch on an open
// stream, answered by one BatchAck. The Batch decodes zero-copy out of
// the pooled body into the shared ingest core, which the JSON path also
// runs (the two are equivalence-tested), and the ack is built in a
// pooled buffer, so the steady state costs single-digit allocations.
func (s *Server) handleIngestBin(w http.ResponseWriter, r *http.Request) {
	sc, e := s.admitIngest(w, r)
	var st *binStream
	if e == nil {
		defer s.doneIngest(sc)
		if st, e = s.decodeBin(w, sc, r); st != nil {
			e = s.ingest(r.Context(), sc)
		}
	}
	if e != nil {
		s.countRejected(e)
		writeBinError(w, e)
		return
	}
	if st == nil {
		return // a handshake, answered by decodeBin
	}
	st.lastUsed.Store(s.now().UnixNano())
	s.counters.binBatches.Add(1)
	sc.ids = sc.ids[:0]
	for _, cl := range sc.classes {
		sc.ids = append(sc.ids, binClassID(cl))
	}
	resp, start := wire.BeginFrame(sc.resp[:0])
	resp = wire.AppendBatchAck(resp, sc.ids)
	sc.resp = wire.EndFrame(resp, start)
	w.Header().Set("Content-Type", wire.ContentType)
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(sc.resp)
}

// binDecodeError counts and builds a 400 for a malformed binary request.
func (s *Server) binDecodeError(format string, args ...any) *ingestError {
	s.counters.binDecodeErrors.Add(1)
	return ingestErrorf(http.StatusBadRequest, format, args...)
}

// decodeBin reads the request's one frame. A Hello is handled here and
// yields no stream, only an error if it is refused. A Batch is
// resolved to its stream, then every group is decoded, validated and
// scattered through the stream's column table into sc before anything
// is classified, so a 400 never leaves a half-ingested request behind.
// NaN and Inf are rejected, as they are unrepresentable on the JSON
// path; a time whose nanoseconds would wrap is rejected on both.
func (s *Server) decodeBin(w http.ResponseWriter, sc *ingestScratch, r *http.Request) (*binStream, *ingestError) {
	if e := sc.readBody(r); e != nil {
		s.counters.binDecodeErrors.Add(1)
		return nil, e
	}
	payload, rest, err := wire.NextFrame(sc.body.Bytes())
	switch {
	case err != nil:
		return nil, s.binDecodeError("%v", err)
	case payload == nil:
		return nil, s.binDecodeError("request carries no frame")
	case len(rest) != 0:
		return nil, s.binDecodeError("a request carries one frame; %d bytes follow it", len(rest))
	case payload[0] == wire.FrameHello:
		return nil, s.handleBinHello(w, payload)
	case payload[0] != wire.FrameBatch:
		return nil, s.binDecodeError("frame has unexpected type %d", payload[0])
	}
	id, err := wire.PeekStreamID(payload)
	if err != nil {
		return nil, s.binDecodeError("%v", err)
	}
	st, ok := s.binStreams.get(id)
	if !ok {
		return nil, &ingestError{code: http.StatusConflict, hash: s.active.Load().model.Hash,
			msg: fmt.Sprintf("unknown stream %d (expired or never opened); re-handshake", id)}
	}
	// A hot swap since the handshake invalidates the stream: the column
	// table was validated against a model that is no longer serving.
	// 409 with the new hash tells the client to re-handshake rather
	// than let the batch be decoded under stale assumptions.
	if am := s.active.Load(); st.hash != am.model.Hash {
		s.counters.binStaleStreams.Add(1)
		s.binStreams.remove(id)
		return nil, &ingestError{code: http.StatusConflict, hash: am.model.Hash,
			msg: fmt.Sprintf("stream %d was negotiated under model %s; active is %s", id, st.hash.Short(), am.model.ID)}
	}
	v, err := wire.ParseBatchHeader(payload, len(st.cols))
	if err != nil {
		return nil, s.binDecodeError("%v", err)
	}
	schemaLen := s.cfg.Schema.Len()
	sc.groups, sc.snaps = sc.groups[:0], sc.snaps[:0]
	for gi := 0; gi < v.Groups(); gi++ {
		g, err := v.Next()
		if err != nil {
			return nil, s.binDecodeError("%v", err)
		}
		vm := st.internVM(g.VM)
		start := len(sc.snaps)
		for row := 0; row < g.Rows; row++ {
			ts := g.TimeSeconds(row)
			if !validSnapshotTime(ts) {
				return nil, s.binDecodeError("group %d (%s) row %d time %g s is outside ±%.4g, the span of int64 nanoseconds",
					gi, vm, row, ts, maxSnapshotSeconds)
			}
			vals := sc.row(len(sc.snaps), schemaLen)
			for c, idx := range st.cols {
				x := g.Value(c, row)
				if x-x != 0 { // NaN or ±Inf
					return nil, s.binDecodeError("group %d (%s) row %d column %d has non-finite value", gi, vm, row, c)
				}
				vals[idx] = x
			}
			sc.snaps = append(sc.snaps, metrics.Snapshot{Time: time.Duration(ts * float64(time.Second)), Node: vm, Values: vals})
		}
		sc.groups = append(sc.groups, ingestGroup{vm: vm, start: start, end: len(sc.snaps)})
	}
	return st, nil
}

// handleBinHello negotiates a stream: the client's column table must
// cover the schema exactly (every metric named once, nothing else —
// the JSON by-name contract), validated against the serving model's
// gather cache, and the stream is stamped with the model hash. It
// writes the HelloAck, or returns the refusal for the caller to answer.
func (s *Server) handleBinHello(w http.ResponseWriter, payload []byte) *ingestError {
	h, err := wire.ParseHello(payload)
	if err != nil {
		return s.binDecodeError("%v", err)
	}
	if h.Version != wire.Version {
		return ingestErrorf(http.StatusBadRequest, "unsupported wire version %d (server speaks %d)", h.Version, wire.Version)
	}
	schema := s.cfg.Schema
	if len(h.Metrics) != schema.Len() {
		return ingestErrorf(http.StatusBadRequest, "hello names %d metrics, schema has %d", len(h.Metrics), schema.Len())
	}
	cols := make([]int, len(h.Metrics))
	seen := make([]bool, schema.Len())
	for i, name := range h.Metrics {
		idx, ok := schema.Index(name)
		if !ok {
			return ingestErrorf(http.StatusBadRequest, "hello names unknown metric %q", name)
		}
		if seen[idx] {
			return ingestErrorf(http.StatusBadRequest, "hello names metric %q twice", name)
		}
		seen[idx] = true
		cols[i] = idx
	}
	am := s.active.Load()
	// The gather cache is what steady-state classification reads the
	// negotiated columns through; refusing the handshake on a mismatch
	// turns a misconfigured model into one clear error instead of a
	// failure on the first batch.
	if _, err := am.model.Classifier.GatherIndices(schema); err != nil {
		return ingestErrorf(http.StatusInternalServerError, "model rejects schema: %v", err)
	}
	var pinned modelreg.Hash
	copy(pinned[:], h.ModelHash[:])
	if !pinned.IsZero() && pinned != am.model.Hash {
		s.counters.binStaleStreams.Add(1)
		return &ingestError{code: http.StatusConflict, hash: am.model.Hash,
			msg: fmt.Sprintf("pinned model %x is not serving (active %s)", h.ModelHash[:6], am.model.ID)}
	}
	st := &binStream{cols: cols, hash: am.model.Hash, vms: make(map[string]string)}
	st.lastUsed.Store(s.now().UnixNano())
	if !s.binStreams.add(st) {
		if n := s.binStreams.expire(s.now().Add(-s.cfg.IdleTTL).UnixNano()); n > 0 {
			s.counters.binStreamsExpired.Add(int64(n))
		}
		if !s.binStreams.add(st) {
			return ingestErrorf(http.StatusServiceUnavailable, "stream registry full (%d streams)", maxBinStreams)
		}
	}
	s.counters.binHandshakes.Add(1)

	ack := wire.HelloAck{Version: wire.Version, StreamID: st.id}
	copy(ack.ModelHash[:], am.model.Hash[:])
	ack.Classes = make([]string, len(binClassTable))
	for i, cl := range binClassTable {
		ack.Classes[i] = string(cl)
	}
	buf, start := wire.BeginFrame(nil)
	buf = wire.AppendHelloAck(buf, ack)
	buf = wire.EndFrame(buf, start)
	w.Header().Set("Content-Type", wire.ContentType)
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(buf)
	return nil
}
