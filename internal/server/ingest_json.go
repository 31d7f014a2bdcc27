package server

import (
	"encoding/json"
	"net/http"
	"strconv"
	"time"

	"repro/internal/metrics"
)

// ingestSnapshot is one pushed sample. Values carries the full metric
// vector in schema order; Metrics names each value instead, for
// clients that do not know the canonical order. Exactly one must be
// set.
type ingestSnapshot struct {
	VM          string             `json:"vm"`
	TimeSeconds float64            `json:"time_s"`
	Values      []float64          `json:"values,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

type ingestRequest struct {
	Snapshots []ingestSnapshot `json:"snapshots"`
}

// handleIngest is POST /v1/ingest: it decodes a JSON batch into the
// shared ingest core and answers with each snapshot's class in input
// order, however the core grouped them.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	sc, e := s.admitIngest(w, r)
	if e == nil {
		defer s.doneIngest(sc)
		if e = sc.readBody(r); e == nil {
			if e = s.decodeJSON(sc); e == nil {
				e = s.ingest(r.Context(), sc)
			}
		}
	}
	if e != nil {
		s.countRejected(e)
		writeError(w, e.code, "%s", e.msg)
		return
	}
	sc.resp = appendIngestReply(sc.resp[:0], sc)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(sc.resp)
}

// decodeJSON decodes the JSON batch in sc.body. The canonical by-values
// body goes through scanJSON, straight into the scratch's row buffers;
// any other body, by-name snapshots included, through json.Unmarshal.
// Both feed the one validation loop, groupJSON, so the accepted
// language and every 400 message are encoding/json's either way.
func (s *Server) decodeJSON(sc *ingestScratch) *ingestError {
	in, ok := sc.scanJSON(s.cfg.Schema.Len())
	if !ok {
		var e *ingestError
		if in, e = unmarshalIngest(sc.body.Bytes()); e != nil {
			return e
		}
	}
	return s.groupJSON(sc, in)
}

// unmarshalIngest is the general decoder: encoding/json over the whole
// body.
func unmarshalIngest(body []byte) ([]ingestSnapshot, *ingestError) {
	var req ingestRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, ingestErrorf(http.StatusBadRequest, "malformed ingest body: %v", err)
	}
	return req.Snapshots, nil
}

// groupJSON validates a whole JSON batch against the schema before
// anything is applied, so a 400 never leaves a half-ingested batch
// behind, and groups it by VM in first-appearance order (single-VM
// batches, the common case, stay one group); sc.at maps each input
// snapshot to its place in sc.snaps. By-name snapshots decode into the
// scratch's row buffers.
func (s *Server) groupJSON(sc *ingestScratch, in []ingestSnapshot) *ingestError {
	if len(in) == 0 {
		return ingestErrorf(http.StatusBadRequest, "ingest batch has no snapshots")
	}
	schema := s.cfg.Schema
	if sc.groupOf == nil {
		sc.groupOf = make(map[string]int)
	}
	clear(sc.groupOf)
	sc.groups, sc.at = sc.groups[:0], sc.at[:0]
	for i := range in {
		snap := &in[i]
		if err := vmNameError(snap.VM); err != nil {
			return ingestErrorf(http.StatusBadRequest, "snapshot %d %v", i, err)
		}
		if !validSnapshotTime(snap.TimeSeconds) {
			return ingestErrorf(http.StatusBadRequest, "snapshot %d (%s) time_s %g is outside ±%.4g, the span of int64 nanoseconds",
				i, snap.VM, snap.TimeSeconds, maxSnapshotSeconds)
		}
		switch {
		case len(snap.Values) > 0 && len(snap.Metrics) > 0:
			return ingestErrorf(http.StatusBadRequest, "snapshot %d (%s) sets both values and metrics", i, snap.VM)
		case len(snap.Values) > 0:
			if len(snap.Values) != schema.Len() {
				return ingestErrorf(http.StatusBadRequest, "snapshot %d (%s) has %d values, schema has %d metrics",
					i, snap.VM, len(snap.Values), schema.Len())
			}
		case len(snap.Metrics) > 0:
			for name := range snap.Metrics {
				if !schema.Contains(name) {
					return ingestErrorf(http.StatusBadRequest, "snapshot %d (%s) has unknown metric %q", i, snap.VM, name)
				}
			}
			vals := sc.row(i, schema.Len())
			for j, name := range schema.Names() {
				v, ok := snap.Metrics[name]
				if !ok {
					return ingestErrorf(http.StatusBadRequest, "snapshot %d (%s) is missing metric %q", i, snap.VM, name)
				}
				vals[j] = v
			}
			snap.Values = vals
		default:
			return ingestErrorf(http.StatusBadRequest, "snapshot %d (%s) has neither values nor metrics", i, snap.VM)
		}
		g, ok := sc.groupOf[snap.VM]
		if !ok {
			g = len(sc.groups)
			sc.groupOf[snap.VM] = g
			sc.groups = append(sc.groups, ingestGroup{vm: snap.VM})
		}
		sc.groups[g].end++ // a count until the offsets below
		sc.at = append(sc.at, g)
	}
	n := 0
	for gi := range sc.groups {
		g := &sc.groups[gi]
		g.start, g.end, n = n, n, n+g.end
	}
	if cap(sc.snaps) < n {
		sc.snaps = make([]metrics.Snapshot, n)
	}
	sc.snaps = sc.snaps[:n]
	for i, snap := range in {
		g := &sc.groups[sc.at[i]]
		sc.at[i] = g.end
		sc.snaps[g.end] = metrics.Snapshot{Node: g.vm, Time: time.Duration(snap.TimeSeconds * float64(time.Second)), Values: snap.Values}
		g.end++
	}
	return nil
}

// scanJSON decodes sc.body in one pass when it is the canonical
// by-values batch,
//
//	{"snapshots":[{"vm":…,"time_s":…,"values":[…]},…]}
//
// with JSON whitespace anywhere between tokens, each snapshot's three
// keys in any order, in exact case and once each, a VM name of
// printable ASCII without escapes, and exactly n numbers in values.
// Numbers are checked against the JSON grammar and parsed by
// strconv.ParseFloat, as encoding/json parses them, and the i'th
// snapshot's values land in the scratch's row i. VM names are interned
// for the request. On any other body it returns false: a by-name snapshot, an
// escape, an unknown, duplicate or differently cased key, null, another
// value count, a number ParseFloat refuses, trailing bytes, or a syntax
// error. What it accepts, json.Unmarshal decodes to the same snapshots.
func (sc *ingestScratch) scanJSON(n int) ([]ingestSnapshot, bool) {
	p := jsonScanner{b: sc.body.Bytes()}
	if sc.vms == nil {
		sc.vms = make(map[string]string)
	}
	clear(sc.vms)
	sc.in = sc.in[:0]
	if !p.lit('{') || !p.key("snapshots") || !p.lit('[') {
		return nil, false
	}
	for more := !p.lit(']'); more; more = !p.lit(']') {
		if len(sc.in) > 0 && !p.lit(',') {
			return nil, false
		}
		snap, ok := sc.scanSnapshot(&p, len(sc.in), n)
		if !ok {
			return nil, false
		}
		sc.in = append(sc.in, snap)
	}
	if !p.lit('}') || !p.end() {
		return nil, false
	}
	return sc.in, true
}

// scanSnapshot scans one by-values snapshot object into row i.
func (sc *ingestScratch) scanSnapshot(p *jsonScanner, i, n int) (ingestSnapshot, bool) {
	var snap ingestSnapshot
	if !p.lit('{') {
		return snap, false
	}
	var seen uint8
	for k := 0; k < 3; k++ {
		if k > 0 && !p.lit(',') {
			return snap, false
		}
		name, ok := p.str()
		if !ok || !p.lit(':') {
			return snap, false
		}
		var bit uint8
		switch string(name) {
		case "vm":
			bit = 1
			var vm []byte
			if vm, ok = p.str(); ok {
				snap.VM = sc.intern(vm)
			}
		case "time_s":
			bit = 2
			snap.TimeSeconds, ok = p.number()
		case "values":
			bit = 4
			snap.Values = sc.row(i, n)
			ok = p.values(snap.Values)
		}
		if !ok || bit == 0 || seen&bit != 0 {
			return snap, false
		}
		seen |= bit
	}
	return snap, p.lit('}')
}

// intern returns the request's one string for VM name b.
func (sc *ingestScratch) intern(b []byte) string {
	if vm, ok := sc.vms[string(b)]; ok {
		return vm
	}
	vm := string(b)
	sc.vms[vm] = vm
	return vm
}

// jsonScanner is scanJSON's cursor over the body. Every method skips
// the whitespace in front of its token and, on false, leaves the body
// to json.Unmarshal, so none needs to say why.
type jsonScanner struct {
	b []byte
	i int
}

func (p *jsonScanner) skipSpace() {
	for p.i < len(p.b) {
		switch p.b[p.i] {
		case ' ', '\t', '\n', '\r':
			p.i++
		default:
			return
		}
	}
}

// lit consumes the structural character c.
func (p *jsonScanner) lit(c byte) bool {
	p.skipSpace()
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

// end reports whether only whitespace is left.
func (p *jsonScanner) end() bool {
	p.skipSpace()
	return p.i == len(p.b)
}

// key consumes the object key k and its colon.
func (p *jsonScanner) key(k string) bool {
	name, ok := p.str()
	return ok && string(name) == k && p.lit(':')
}

// str consumes a string of printable ASCII without escapes, which
// encoding/json decodes to its bytes unchanged, and returns its bytes.
func (p *jsonScanner) str() ([]byte, bool) {
	if !p.lit('"') {
		return nil, false
	}
	for start := p.i; p.i < len(p.b); p.i++ {
		switch c := p.b[p.i]; {
		case c == '"':
			p.i++
			return p.b[start : p.i-1], true
		case c == '\\' || c < ' ' || c > '~':
			return nil, false
		}
	}
	return nil, false
}

// number consumes a JSON number and parses it as encoding/json does.
func (p *jsonScanner) number() (float64, bool) {
	p.skipSpace()
	b, i := p.b, p.i
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i)
	default:
		return 0, false
	}
	if i < len(b) && b[i] == '.' {
		j := digits(b, i+1)
		if j == i+1 {
			return 0, false
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digits(b, i)
		if j == i {
			return 0, false
		}
		i = j
	}
	f, err := strconv.ParseFloat(string(b[p.i:i]), 64)
	if err != nil {
		return 0, false
	}
	p.i = i
	return f, true
}

// digits returns the index after the run of decimal digits at b[i:].
func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// values consumes an array of exactly len(row) numbers into row.
func (p *jsonScanner) values(row []float64) bool {
	if !p.lit('[') {
		return false
	}
	for j := range row {
		if j > 0 && !p.lit(',') {
			return false
		}
		f, ok := p.number()
		if !ok {
			return false
		}
		row[j] = f
	}
	return p.lit(']')
}

// appendIngestReply appends the 200 answer to a JSON ingest, each
// snapshot's VM and class in input order, to dst: the bytes writeJSON
// makes of the same reply, indentation and final newline included.
func appendIngestReply(dst []byte, sc *ingestScratch) []byte {
	dst = append(dst, "{\n  \"accepted\": "...)
	dst = strconv.AppendInt(dst, int64(len(sc.at)), 10)
	dst = append(dst, ",\n  \"results\": ["...)
	for i, k := range sc.at {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, "\n    {\n      \"vm\": "...)
		dst = appendJSONString(dst, sc.snaps[k].Node)
		dst = append(dst, ",\n      \"class\": "...)
		dst = appendJSONString(dst, string(sc.classes[k]))
		dst = append(dst, "\n    }"...)
	}
	return append(dst, "\n  ]\n}\n"...)
}

// appendJSONString appends s quoted as encoding/json quotes it: a
// string of printable ASCII that it leaves unescaped (it escapes ", \
// and HTML's <, > and &) goes in as it is, and json.Marshal quotes any
// other.
func appendJSONString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c > '~' || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(dst, q...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}
