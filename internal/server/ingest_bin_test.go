package server

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/modelreg"
	"repro/internal/wal"
	"repro/internal/wire"
)

// binDial wraps a server's handler in a live httptest server and
// returns a wire client speaking the given metric column order.
func binDial(t *testing.T, s *Server, names []string) *wire.Client {
	t.Helper()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return wire.NewClient(ts.URL, names, ts.Client())
}

// postBin ships one raw binary body at /v1/ingest.bin.
func postBin(t *testing.T, h http.Handler, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/ingest.bin", bytes.NewReader(body))
	req.Header.Set("Content-Type", wire.ContentType)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

// oneFrame frames a single payload.
func oneFrame(payload []byte) []byte {
	buf, start := wire.BeginFrame(nil)
	buf = append(buf, payload...)
	return wire.EndFrame(buf, start)
}

func TestBinaryIngestRoundTrip(t *testing.T) {
	s := newTestServer(t, Config{})
	schema := metrics.DefaultSchema()

	// Reverse the column order so the scatter through the negotiated
	// table is exercised, not just the identity mapping.
	names := schema.Names()
	rev := make([]string, len(names))
	for i, n := range names {
		rev[len(names)-1-i] = n
	}
	c := binDial(t, s, rev)

	ctx := context.Background()
	if err := c.Handshake(ctx); err != nil {
		t.Fatalf("handshake: %v", err)
	}
	if c.StreamID() == 0 {
		t.Fatal("handshake returned stream id 0")
	}
	if c.ModelHash() == ([wire.HashSize]byte{}) {
		t.Fatal("handshake returned a zero model hash")
	}
	classes := c.Classes()
	if len(classes) != len(binClassTable) || classes[len(classes)-1] != "unknown" {
		t.Fatalf("negotiated class table = %v", classes)
	}

	row := func() []float64 { return make([]float64, schema.Len()) }
	groups := []wire.Group{
		{VM: "vm-bin-a", Times: []float64{0, 5, 10}, Rows: [][]float64{row(), row(), row()}},
		{VM: "vm-bin-b", Times: []float64{0, 5}, Rows: [][]float64{row(), row()}},
	}
	got, err := c.Send(ctx, groups)
	if err != nil {
		t.Fatalf("send: %v", err)
	}
	if len(got) != 5 {
		t.Fatalf("send returned %d classes, want 5", len(got))
	}
	for i, cl := range got {
		found := false
		for _, name := range classes {
			if cl == name {
				found = true
			}
		}
		if !found {
			t.Errorf("class %d = %q not in negotiated table", i, cl)
		}
	}
	if _, err := c.Send(ctx, groups[:1]); err != nil {
		t.Fatalf("second send: %v", err)
	}

	var vm vmDetail
	decodeGet(t, s.Handler(), "/v1/vms/vm-bin-a", &vm)
	if vm.Snapshots != 6 {
		t.Errorf("vm-bin-a snapshots = %d, want 6", vm.Snapshots)
	}
	if n := s.counters.binHandshakes.Load(); n != 1 {
		t.Errorf("binHandshakes = %d, want 1", n)
	}
	if n := s.counters.binBatches.Load(); n != 2 {
		t.Errorf("binBatches = %d, want 2", n)
	}
	if n := s.binStreams.len(); n != 1 {
		t.Errorf("active streams = %d, want 1", n)
	}
}

// TestBinaryJSONEquivalence feeds one deterministic multi-VM trace
// through the JSON path of one server and the binary path of another
// (with a shuffled wire column table, so the scatter is doing real
// work) and asserts the outcomes are bit-identical: per-snapshot
// classes, the /v1/vms composition report, and the journal segments on
// disk.
func TestBinaryJSONEquivalence(t *testing.T) {
	schema := metrics.DefaultSchema()
	fixed := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	now := func() time.Time { return fixed }

	openJournal := func(dir string) *wal.Journal {
		j, err := wal.Open(wal.Config{Dir: dir, Now: now})
		if err != nil {
			t.Fatalf("wal.Open(%s): %v", dir, err)
		}
		return j
	}
	dirJSON, dirBin := t.TempDir(), t.TempDir()
	sJSON := newTestServer(t, Config{Journal: openJournal(dirJSON), Now: now})
	sBin := newTestServer(t, Config{Journal: openJournal(dirBin), Now: now})

	// A deterministically shuffled wire column table.
	names := append([]string(nil), schema.Names()...)
	rand.New(rand.NewSource(3)).Shuffle(len(names), func(i, j int) {
		names[i], names[j] = names[j], names[i]
	})
	perm := make([]int, len(names)) // wire column -> schema index
	for i, n := range names {
		idx, ok := schema.Index(n)
		if !ok {
			t.Fatalf("schema lost metric %q", n)
		}
		perm[i] = idx
	}
	c := binDial(t, sBin, names)

	rng := rand.New(rand.NewSource(42))
	vms := []string{"vm-eq-0", "vm-eq-1", "vm-eq-2"}
	const reqs, rows = 6, 4
	ctx := context.Background()
	for r := 0; r < reqs; r++ {
		var jsonSnaps []any
		groups := make([]wire.Group, 0, len(vms))
		for _, vm := range vms {
			g := wire.Group{VM: vm}
			for k := 0; k < rows; k++ {
				ts := float64(r*rows+k) * 5.0
				vals := make([]float64, schema.Len())
				for j := range vals {
					vals[j] = rng.Float64() * 100
				}
				jsonSnaps = append(jsonSnaps, map[string]any{"vm": vm, "time_s": ts, "values": vals})
				wireRow := make([]float64, len(perm))
				for i, idx := range perm {
					wireRow[i] = vals[idx]
				}
				g.Times = append(g.Times, ts)
				g.Rows = append(g.Rows, wireRow)
			}
			groups = append(groups, g)
		}

		w := postJSON(t, sJSON.Handler(), "/v1/ingest", map[string]any{"snapshots": jsonSnaps})
		if w.Code != http.StatusOK {
			t.Fatalf("request %d: json ingest = %d: %s", r, w.Code, w.Body.String())
		}
		var jr struct {
			Results []struct {
				VM    string `json:"vm"`
				Class string `json:"class"`
			} `json:"results"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &jr); err != nil {
			t.Fatal(err)
		}
		bres, err := c.Send(ctx, groups)
		if err != nil {
			t.Fatalf("request %d: binary send: %v", r, err)
		}
		if len(bres) != len(jr.Results) {
			t.Fatalf("request %d: %d binary classes vs %d json results", r, len(bres), len(jr.Results))
		}
		for i := range bres {
			if bres[i] != jr.Results[i].Class {
				t.Errorf("request %d snapshot %d: binary %q, json %q", r, i, bres[i], jr.Results[i].Class)
			}
		}
	}

	// Composition reports must match byte for byte (the fake clock makes
	// last_seen deterministic).
	getBody := func(s *Server) string {
		req := httptest.NewRequest(http.MethodGet, "/v1/vms", nil)
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			t.Fatalf("GET /v1/vms = %d", w.Code)
		}
		return w.Body.String()
	}
	if j, b := getBody(sJSON), getBody(sBin); j != b {
		t.Errorf("/v1/vms diverged:\njson: %s\nbinary: %s", j, b)
	}

	// Journals must be bit-identical: same segments, same bytes.
	if err := sJSON.cfg.Journal.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := sBin.cfg.Journal.Sync(); err != nil {
		t.Fatal(err)
	}
	segs := func(dir string) []string {
		m, err := filepath.Glob(filepath.Join(dir, "*"))
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	js, bs := segs(dirJSON), segs(dirBin)
	if len(js) != len(bs) || len(js) == 0 {
		t.Fatalf("segment counts: json %d, binary %d", len(js), len(bs))
	}
	for i := range js {
		if filepath.Base(js[i]) != filepath.Base(bs[i]) {
			t.Fatalf("segment names diverged: %s vs %s", js[i], bs[i])
		}
		jb, err := os.ReadFile(js[i])
		if err != nil {
			t.Fatal(err)
		}
		bb, err := os.ReadFile(bs[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(jb, bb) {
			t.Errorf("segment %s differs between json and binary journals (%d vs %d bytes)",
				filepath.Base(js[i]), len(jb), len(bb))
		}
	}
}

func TestBinaryIngestMalformed(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()
	schema := metrics.DefaultSchema()

	// A live stream for the cases that need one.
	c := binDial(t, s, schema.Names())
	if err := c.Handshake(context.Background()); err != nil {
		t.Fatalf("handshake: %v", err)
	}
	sid := c.StreamID()

	batchOn := func(id uint64, times []float64, row []float64) []byte {
		p, err := wire.AppendBatch(nil, id, schema.Len(),
			[]wire.Group{{VM: "vm-bad", Times: times, Rows: [][]float64{row}}})
		if err != nil {
			t.Fatalf("AppendBatch: %v", err)
		}
		return oneFrame(p)
	}
	hello := func(ns []string) []byte {
		return oneFrame(wire.AppendHello(nil, wire.Hello{Version: wire.Version, Metrics: ns}))
	}
	zrow := make([]float64, schema.Len())
	nanRow := make([]float64, schema.Len())
	nanRow[3] = math.NaN()
	infRow := make([]float64, schema.Len())
	infRow[0] = math.Inf(-1)
	dup := append([]string(nil), schema.Names()...)
	dup[1] = dup[0]
	unknown := append([]string(nil), schema.Names()...)
	unknown[2] = "bogus_metric"
	badVersion := oneFrame(wire.AppendHello(nil, wire.Hello{Version: 99, Metrics: schema.Names()}))

	// errs is how much the request moves appclassd_ingest_errors_total:
	// every rejected batch counts once, a stale-stream 409 not at all.
	cases := []struct {
		name string
		body []byte
		want int
		errs int64
	}{
		{"empty body", nil, 400, 1},
		{"garbage frame", []byte{1, 2, 3}, 400, 1},
		{"corrupt crc", func() []byte {
			b := batchOn(sid, []float64{0}, zrow)
			b[len(b)-1] ^= 0xFF
			return b
		}(), 400, 1},
		{"unknown frame type", oneFrame([]byte{0x7E, 0, 0}), 400, 1},
		{"hello with trailing frame", append(hello(schema.Names()), batchOn(sid, []float64{0}, zrow)...), 400, 1},
		{"hello after batch", append(batchOn(sid, []float64{0}, zrow), hello(schema.Names())...), 400, 1},
		{"hello wrong metric count", hello(schema.Names()[:3]), 400, 1},
		{"hello unknown metric", hello(unknown), 400, 1},
		{"hello duplicate metric", hello(dup), 400, 1},
		{"hello bad version", badVersion, 400, 1},
		{"batch on unknown stream", batchOn(sid+999, []float64{0}, zrow), 409, 0},
		{"nan value", batchOn(sid, []float64{0}, nanRow), 400, 1},
		{"inf value", batchOn(sid, []float64{0}, infRow), 400, 1},
		{"non-finite time", batchOn(sid, []float64{math.Inf(1)}, zrow), 400, 1},
		{"oversized body", make([]byte, maxIngestBody+16), 413, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := s.counters.ingestErrors.Load()
			w := postBin(t, h, tc.body)
			if w.Code != tc.want {
				t.Fatalf("status = %d, want %d (body %x)", w.Code, tc.want, w.Body.Bytes())
			}
			if d := s.counters.ingestErrors.Load() - before; d != tc.errs {
				t.Errorf("ingest errors moved by %d, want %d", d, tc.errs)
			}
			payload, _, err := wire.NextFrame(w.Body.Bytes())
			if err != nil {
				t.Fatalf("response is not a frame: %v", err)
			}
			ef, err := wire.ParseError(payload)
			if err != nil {
				t.Fatalf("response frame is not an error frame: %v", err)
			}
			if ef.Code != tc.want {
				t.Errorf("error frame code = %d, want %d", ef.Code, tc.want)
			}
			if tc.want == 409 && ef.ModelHash == ([wire.HashSize]byte{}) {
				t.Error("409 error frame carries no serving model hash")
			}
		})
	}
	if n := s.counters.binDecodeErrors.Load(); n == 0 {
		t.Error("binDecodeErrors never incremented")
	}

	// A valid batch on the pre-opened stream still works: none of the
	// rejected requests corrupted shared state.
	if _, err := c.Send(context.Background(), []wire.Group{
		{VM: "vm-ok", Times: []float64{0}, Rows: [][]float64{zrow}},
	}); err != nil {
		t.Fatalf("send after malformed storm: %v", err)
	}
}

// TestBinaryRequestCarriesOneFrame: a request holding a second Batch
// frame, valid or not, is refused with 400 before its first frame is
// applied: no session, no ingested snapshot, no journal record.
func TestBinaryRequestCarriesOneFrame(t *testing.T) {
	dir := t.TempDir()
	j, err := wal.Open(wal.Config{Dir: dir, Fsync: wal.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	s := newTestServer(t, Config{Journal: j})
	schema := metrics.DefaultSchema()
	c := binDial(t, s, schema.Names())
	if err := c.Handshake(context.Background()); err != nil {
		t.Fatalf("handshake: %v", err)
	}
	batch := func(row []float64) []byte {
		p, err := wire.AppendBatch(nil, c.StreamID(), schema.Len(),
			[]wire.Group{{VM: "vm-two", Times: []float64{0}, Rows: [][]float64{row}}})
		if err != nil {
			t.Fatalf("AppendBatch: %v", err)
		}
		return oneFrame(p)
	}
	zrow := make([]float64, schema.Len())
	nanRow := make([]float64, schema.Len())
	nanRow[0] = math.NaN()
	for name, body := range map[string][]byte{
		"valid then nan": append(batch(zrow), batch(nanRow)...),
		"two valid":      append(batch(zrow), batch(zrow)...),
	} {
		if w := postBin(t, s.Handler(), body); w.Code != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", name, w.Code)
		}
	}
	if n := s.Sessions(); n != 0 {
		t.Errorf("rejected requests left %d sessions", n)
	}
	if n := s.counters.ingested.Load(); n != 0 {
		t.Errorf("ingested = %d, want 0", n)
	}
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	var records int
	if _, err := wal.Replay(dir, wal.Position{}, func(wal.Position, wal.Record) error {
		records++
		return nil
	}); err != nil {
		t.Fatalf("replay: %v", err)
	}
	if records != 0 {
		t.Errorf("journal holds %d replayable records, want 0", records)
	}
}

// TestBinaryHelloPinnedHashMismatch: a Hello pinning a model hash that
// is not serving is refused with 409 and the serving hash, before any
// stream is opened.
func TestBinaryHelloPinnedHashMismatch(t *testing.T) {
	s := newTestServer(t, Config{})
	var h wire.Hello
	h.Version = wire.Version
	h.Metrics = metrics.DefaultSchema().Names()
	for i := range h.ModelHash {
		h.ModelHash[i] = 0xFF
	}
	w := postBin(t, s.Handler(), oneFrame(wire.AppendHello(nil, h)))
	if w.Code != http.StatusConflict {
		t.Fatalf("pinned-mismatch hello = %d, want 409", w.Code)
	}
	payload, _, err := wire.NextFrame(w.Body.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	ef, err := wire.ParseError(payload)
	if err != nil {
		t.Fatal(err)
	}
	if ef.ModelHash == ([wire.HashSize]byte{}) {
		t.Error("409 carries no serving hash")
	}
	if s.binStreams.len() != 0 {
		t.Error("refused handshake left a stream registered")
	}
}

// TestBinaryStaleStreamOnHotSwap promotes a new model mid-stream and
// asserts the open stream is invalidated with 409 — and that the wire
// client recovers transparently by re-handshaking under the new model.
func TestBinaryStaleStreamOnHotSwap(t *testing.T) {
	modelDir := t.TempDir()
	if err := modelreg.SaveFile(filepath.Join(modelDir, "cand.json"), altClassifier(t)); err != nil {
		t.Fatalf("SaveFile: %v", err)
	}
	schema := metrics.ExpertSchema()
	s := newTestServer(t, Config{Schema: schema, ModelDir: modelDir})
	c := binDial(t, s, schema.Names())

	ctx := context.Background()
	if err := c.Handshake(ctx); err != nil {
		t.Fatalf("handshake: %v", err)
	}
	oldHash, oldStream := c.ModelHash(), c.StreamID()
	zrow := make([]float64, schema.Len())
	if _, err := c.Send(ctx, []wire.Group{{VM: "vm-swap", Times: []float64{0}, Rows: [][]float64{zrow}}}); err != nil {
		t.Fatalf("pre-swap send: %v", err)
	}

	// Load and promote the candidate over the management API.
	w := postJSON(t, s.Handler(), "/v1/models", map[string]any{"path": "cand.json"})
	if w.Code != http.StatusCreated {
		t.Fatalf("load candidate = %d: %s", w.Code, w.Body.String())
	}
	var loaded modelJSON
	if err := json.Unmarshal(w.Body.Bytes(), &loaded); err != nil {
		t.Fatal(err)
	}
	w = postJSON(t, s.Handler(), "/v1/models/"+loaded.ID+"/promote", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("promote = %d: %s", w.Code, w.Body.String())
	}

	// The old stream must be refused; the client re-handshakes once and
	// the same Send succeeds under the new model.
	got, err := c.Send(ctx, []wire.Group{{VM: "vm-swap", Times: []float64{5}, Rows: [][]float64{zrow}}})
	if err != nil {
		t.Fatalf("post-swap send: %v", err)
	}
	if len(got) != 1 {
		t.Fatalf("post-swap send returned %d classes", len(got))
	}
	if c.ModelHash() == oldHash {
		t.Error("client still pinned to the pre-swap model hash")
	}
	if c.StreamID() == oldStream {
		t.Error("client still on the pre-swap stream")
	}
	if n := s.counters.binStaleStreams.Load(); n == 0 {
		t.Error("binStaleStreams never incremented")
	}
}

// TestBinaryStreamExpiry: the janitor's idle sweep drops streams along
// with sessions; the client transparently re-handshakes.
func TestBinaryStreamExpiry(t *testing.T) {
	clock := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	s := newTestServer(t, Config{IdleTTL: time.Minute, Now: func() time.Time { return clock }})
	schema := metrics.DefaultSchema()
	c := binDial(t, s, schema.Names())

	ctx := context.Background()
	zrow := make([]float64, schema.Len())
	if _, err := c.Send(ctx, []wire.Group{{VM: "vm-exp-a", Times: []float64{0}, Rows: [][]float64{zrow}}}); err != nil {
		t.Fatalf("send: %v", err)
	}
	oldStream := c.StreamID()

	clock = clock.Add(10 * time.Minute)
	s.EvictIdle()
	if n := s.binStreams.len(); n != 0 {
		t.Fatalf("streams after idle sweep = %d, want 0", n)
	}
	if n := s.counters.binStreamsExpired.Load(); n == 0 {
		t.Error("binStreamsExpired never incremented")
	}

	// The next send hits 409 (unknown stream) and recovers.
	if _, err := c.Send(ctx, []wire.Group{{VM: "vm-exp-b", Times: []float64{0}, Rows: [][]float64{zrow}}}); err != nil {
		t.Fatalf("send after expiry: %v", err)
	}
	if c.StreamID() == oldStream {
		t.Error("client did not negotiate a fresh stream after expiry")
	}
}

func TestBinaryIngestAdmissionAndDisable(t *testing.T) {
	s := newTestServer(t, Config{MaxInflightBytes: 16})
	w := postBin(t, s.Handler(), make([]byte, 64))
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("over-budget binary ingest = %d, want 429", w.Code)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Error("429 carries no Retry-After")
	}
}
