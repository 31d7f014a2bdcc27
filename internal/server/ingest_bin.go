package server

import (
	"fmt"
	"io"
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

// binGroup is one decoded, validated, scattered VM group awaiting
// classification: sc.snaps[start:end] under the interned name.
type binGroup struct {
	vm         string
	start, end int
}

// binScratch is the pooled per-request workspace of the binary ingest
// handler. Every slice keeps its capacity across requests, so a warm
// handler processes a steady-state batch without allocating: the body
// lands in body, groups scatter into rows, and the framed acks build
// up in resp.
type binScratch struct {
	body    []byte
	resp    []byte
	ids     []byte
	groups  []binGroup
	snaps   []metrics.Snapshot
	classes []appclass.Class
	tokens  []int64 // the request's group-commit durability tokens
	// rows are the schema-length value buffers snapshots scatter into;
	// observeBatch does not retain them (sessions copy what they keep),
	// so the scratch owns them outright.
	rows [][]float64
}

// rowbuf returns the i'th schema-length row buffer, growing the pool
// on first use.
func (sc *binScratch) rowbuf(i, n int) []float64 {
	for len(sc.rows) <= i {
		sc.rows = append(sc.rows, make([]float64, n))
	}
	return sc.rows[i]
}

// writeBinError answers a binary-ingest request with an Error frame
// carrying the HTTP status; hash is the serving model's hash on a
// stale-model 409 (zero otherwise).
func writeBinError(w http.ResponseWriter, code int, hash modelreg.Hash, format string, args ...any) {
	var e wire.ErrorFrame
	e.Code = code
	copy(e.ModelHash[:], hash[:])
	e.Message = fmt.Sprintf(format, args...)
	buf, start := wire.BeginFrame(nil)
	buf = wire.AppendError(buf, e)
	buf = wire.EndFrame(buf, start)
	w.Header().Set("Content-Type", wire.ContentType)
	w.WriteHeader(code)
	_, _ = w.Write(buf)
}

// readBinBody reads the whole request body into buf (reusing its
// capacity), enforcing the ingest body cap.
func readBinBody(r io.Reader, buf []byte) ([]byte, error) {
	buf = buf[:0]
	if cap(buf) == 0 {
		buf = make([]byte, 0, 4096)
	}
	for {
		if len(buf) == cap(buf) {
			if len(buf) >= maxIngestBody {
				return buf, fmt.Errorf("body exceeds %d bytes", maxIngestBody)
			}
			nb := make([]byte, len(buf), 2*cap(buf))
			copy(nb, buf)
			buf = nb
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// handleIngestBin is POST /v1/ingest.bin: the binary columnar fast
// path. A request is either one Hello frame (handshake: negotiate the
// column table, open a stream) or a run of Batch frames on an open
// stream, each answered by one BatchAck frame. Admission control,
// validation-before-application, per-VM-group session locking,
// write-ahead journaling, and deadline handling all match the JSON
// path — the two are equivalence-tested — but the steady state decodes
// zero-copy out of a pooled body buffer and answers from a pooled
// response buffer, in single-digit allocations per batch.
func (s *Server) handleIngestBin(w http.ResponseWriter, r *http.Request) {
	reserve := r.ContentLength
	if reserve < 0 || reserve > maxIngestBody {
		reserve = maxIngestBody
	}
	if !s.admit.tryAdmit(reserve) {
		s.counters.shedRequests.Add(1)
		w.Header().Set("Retry-After", "1")
		writeBinError(w, http.StatusTooManyRequests, modelreg.Hash{}, "ingest over the in-flight budget; retry later")
		return
	}
	defer s.admit.release(reserve)
	var deadline time.Time
	if s.cfg.IngestTimeout > 0 {
		deadline = s.now().Add(s.cfg.IngestTimeout)
	}

	sc := s.binScratch.Get().(*binScratch)
	defer s.binScratch.Put(sc)
	var err error
	sc.body, err = readBinBody(r.Body, sc.body)
	if err != nil {
		s.counters.binDecodeErrors.Add(1)
		writeBinError(w, http.StatusRequestEntityTooLarge, modelreg.Hash{}, "read body: %v", err)
		return
	}

	buf := sc.body
	sc.resp = sc.resp[:0]
	frames := 0
	sc.tokens = sc.tokens[:0]
	for {
		payload, rest, ferr := wire.NextFrame(buf)
		if ferr != nil {
			s.counters.binDecodeErrors.Add(1)
			writeBinError(w, http.StatusBadRequest, modelreg.Hash{}, "frame %d: %v", frames, ferr)
			return
		}
		if payload == nil {
			break
		}
		switch payload[0] {
		case wire.FrameHello:
			if frames != 0 || len(rest) != 0 {
				s.counters.binDecodeErrors.Add(1)
				writeBinError(w, http.StatusBadRequest, modelreg.Hash{}, "hello must be the only frame in its request")
				return
			}
			s.handleBinHello(w, payload)
			return
		case wire.FrameBatch:
			if !s.handleBinBatch(w, r, sc, payload, deadline) {
				return
			}
		default:
			s.counters.binDecodeErrors.Add(1)
			writeBinError(w, http.StatusBadRequest, modelreg.Hash{}, "frame %d has unexpected type %d", frames, payload[0])
			return
		}
		buf = rest
		frames++
	}
	if frames == 0 {
		s.counters.binDecodeErrors.Add(1)
		writeBinError(w, http.StatusBadRequest, modelreg.Hash{}, "request carries no frames")
		return
	}
	// One durability wait covers every batch frame in the request: the
	// per-group journal appends above coalesce behind a shared fsync.
	if err := s.waitJournalDurable(sc.tokens...); err != nil {
		writeBinError(w, http.StatusInternalServerError, modelreg.Hash{}, "%v", err)
		return
	}
	w.Header().Set("Content-Type", wire.ContentType)
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(sc.resp)
}

// handleBinHello negotiates a stream: the client's column table must
// cover the schema exactly (every metric named once, nothing else —
// the JSON by-name contract), validated against the serving model's
// gather cache, and the stream is stamped with the model hash.
func (s *Server) handleBinHello(w http.ResponseWriter, payload []byte) {
	h, err := wire.ParseHello(payload)
	if err != nil {
		s.counters.binDecodeErrors.Add(1)
		writeBinError(w, http.StatusBadRequest, modelreg.Hash{}, "%v", err)
		return
	}
	if h.Version != wire.Version {
		writeBinError(w, http.StatusBadRequest, modelreg.Hash{}, "unsupported wire version %d (server speaks %d)", h.Version, wire.Version)
		return
	}
	schema := s.cfg.Schema
	if len(h.Metrics) != schema.Len() {
		writeBinError(w, http.StatusBadRequest, modelreg.Hash{}, "hello names %d metrics, schema has %d", len(h.Metrics), schema.Len())
		return
	}
	cols := make([]int, len(h.Metrics))
	seen := make([]bool, schema.Len())
	for i, name := range h.Metrics {
		idx, ok := schema.Index(name)
		if !ok {
			writeBinError(w, http.StatusBadRequest, modelreg.Hash{}, "hello names unknown metric %q", name)
			return
		}
		if seen[idx] {
			writeBinError(w, http.StatusBadRequest, modelreg.Hash{}, "hello names metric %q twice", name)
			return
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
		writeBinError(w, http.StatusInternalServerError, modelreg.Hash{}, "model rejects schema: %v", err)
		return
	}
	var pinned modelreg.Hash
	copy(pinned[:], h.ModelHash[:])
	if !pinned.IsZero() && pinned != am.model.Hash {
		s.counters.binStaleStreams.Add(1)
		writeBinError(w, http.StatusConflict, am.model.Hash, "pinned model %x is not serving (active %s)", h.ModelHash[:6], am.model.ID)
		return
	}
	st := &binStream{cols: cols, hash: am.model.Hash, vms: make(map[string]string)}
	st.lastUsed.Store(s.now().UnixNano())
	if !s.binStreams.add(st) {
		if n := s.binStreams.expire(s.now().Add(-s.cfg.IdleTTL).UnixNano()); n > 0 {
			s.counters.binStreamsExpired.Add(int64(n))
		}
		if !s.binStreams.add(st) {
			writeBinError(w, http.StatusServiceUnavailable, modelreg.Hash{}, "stream registry full (%d streams)", maxBinStreams)
			return
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
}

// handleBinBatch decodes, validates, scatters, and classifies one
// Batch frame, appending its framed BatchAck to sc.resp and its
// group-commit durability tokens to sc.tokens. It returns whether the
// caller should keep processing frames; on false the response has
// already been written.
func (s *Server) handleBinBatch(w http.ResponseWriter, r *http.Request, sc *binScratch, payload []byte, deadline time.Time) bool {
	id, err := wire.PeekStreamID(payload)
	if err != nil {
		s.counters.binDecodeErrors.Add(1)
		writeBinError(w, http.StatusBadRequest, modelreg.Hash{}, "%v", err)
		return false
	}
	st, ok := s.binStreams.get(id)
	if !ok {
		writeBinError(w, http.StatusConflict, s.active.Load().model.Hash, "unknown stream %d (expired or never opened); re-handshake", id)
		return false
	}
	// A hot swap since the handshake invalidates the stream: the column
	// table was validated against a model that is no longer serving.
	// 409 with the new hash tells the client to re-handshake rather
	// than let the batch be decoded under stale assumptions.
	if am := s.active.Load(); st.hash != am.model.Hash {
		s.counters.binStaleStreams.Add(1)
		s.binStreams.remove(id)
		writeBinError(w, http.StatusConflict, am.model.Hash, "stream %d was negotiated under model %s; active is %s", id, st.hash.Short(), am.model.ID)
		return false
	}
	v, err := wire.ParseBatchHeader(payload, len(st.cols))
	if err != nil {
		s.counters.binDecodeErrors.Add(1)
		writeBinError(w, http.StatusBadRequest, modelreg.Hash{}, "%v", err)
		return false
	}

	// Decode, validate, and scatter every group before classifying any
	// of them, so a 400 never leaves a half-ingested frame behind (the
	// JSON path's whole-batch-validation contract, per frame). NaN and
	// Inf are rejected exactly as on the JSON path, where they are
	// unrepresentable.
	schemaLen := s.cfg.Schema.Len()
	sc.groups = sc.groups[:0]
	sc.snaps = sc.snaps[:0]
	nrows := 0
	for gi := 0; gi < v.Groups(); gi++ {
		g, gerr := v.Next()
		if gerr != nil {
			s.counters.binDecodeErrors.Add(1)
			writeBinError(w, http.StatusBadRequest, modelreg.Hash{}, "%v", gerr)
			return false
		}
		vm := st.internVM(g.VM)
		start := len(sc.snaps)
		for row := 0; row < g.Rows; row++ {
			ts := g.TimeSeconds(row)
			if ts-ts != 0 { // NaN or ±Inf
				s.counters.binDecodeErrors.Add(1)
				writeBinError(w, http.StatusBadRequest, modelreg.Hash{}, "group %d (%s) row %d has non-finite time", gi, vm, row)
				return false
			}
			vals := sc.rowbuf(nrows, schemaLen)
			nrows++
			for c, idx := range st.cols {
				x := g.Value(c, row)
				if x-x != 0 { // NaN or ±Inf
					s.counters.binDecodeErrors.Add(1)
					writeBinError(w, http.StatusBadRequest, modelreg.Hash{}, "group %d (%s) row %d column %d has non-finite value", gi, vm, row, c)
					return false
				}
				vals[idx] = x
			}
			sc.snaps = append(sc.snaps, metrics.Snapshot{
				Time:   time.Duration(ts * float64(time.Second)),
				Node:   vm,
				Values: vals,
			})
		}
		sc.groups = append(sc.groups, binGroup{vm: vm, start: start, end: len(sc.snaps)})
	}

	sc.ids = sc.ids[:0]
	for gi := range sc.groups {
		gr := &sc.groups[gi]
		if !deadline.IsZero() && s.now().After(deadline) {
			s.counters.deadlineExceeded.Add(1)
			writeBinError(w, http.StatusServiceUnavailable, modelreg.Hash{}, "ingest deadline exceeded after %d of %d vm groups", gi, len(sc.groups))
			return false
		}
		if cerr := r.Context().Err(); cerr != nil {
			s.counters.deadlineExceeded.Add(1)
			writeBinError(w, http.StatusServiceUnavailable, modelreg.Hash{}, "ingest request cancelled: %v", cerr)
			return false
		}
		classes, token, oerr := s.observeBatch(gr.vm, sc.snaps[gr.start:gr.end], sc.classes[:0], true)
		if oerr != nil {
			writeBinError(w, http.StatusInternalServerError, modelreg.Hash{}, "classify %s: %v", gr.vm, oerr)
			return false
		}
		if token != 0 {
			sc.tokens = append(sc.tokens, token)
		}
		sc.classes = classes
		for _, cl := range classes {
			sc.ids = append(sc.ids, binClassID(cl))
		}
	}
	st.lastUsed.Store(s.now().UnixNano())
	s.counters.binBatches.Add(1)

	resp, start := wire.BeginFrame(sc.resp)
	resp = wire.AppendBatchAck(resp, sc.ids)
	sc.resp = wire.EndFrame(resp, start)
	return true
}
