package appstore

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"time"

	"repro/internal/appclass"
	"repro/internal/seglog"
)

// On-disk format: a seglog segment with an 8-byte header (magic +
// format version, no extra), so a torn frame header reads as garbage
// length/CRC, a torn payload fails the CRC, and either stops a scan
// cleanly at the last valid record.
//
// A record payload leads with a fixed binary meta header — everything
// the in-memory index needs (sequence number, finalize time,
// application, class, verdict, model hash, execution time, sample
// count, composition, fingerprint flag) — followed by the full record
// as JSON. Rebuilding the index on open therefore decodes only the
// cheap meta headers and skips every JSON body, which is what lets a
// million-record store open in seconds; the JSON body is decoded
// lazily, one pread per record actually fetched.
//
//	byte kind | u64 seq | i64 finalized-at-ns |
//	u16 len(app) | app | u8 len(class) | class |
//	u8 len(verdict) | verdict | u8 len(model) | model |
//	i64 exec-ns | u32 samples | u32 gaps |
//	u8 ncomp | ncomp × (u8 len(class) | class | f64 fraction) |
//	[kind 2: f64 unknown-fraction | u32 phases |
//	    u32 len(fingerprint summary) | summary |
//	    u16 len(matched app) | matched app | f64 match score] |
//	u8 flags (bit0: has fingerprint) | u32 len(json) | json
//
// Kind 2 adds the page fields: the rest of what a page of runs shows,
// so Scan serves a page from the index without reading a body. Every
// record appended is kind 2. Kind 1, the layout before page fields,
// stays readable; its page fields come from the body.
//
// Kind 2 goes only into version-2 segments. A reader that knows only
// version 1 takes a version-2 segment for a bad header and moves it
// aside as .corrupt, from where renaming it back restores it; a kind-2
// frame inside a version-1 segment would read to it as a torn tail and
// be cut off. So open never resumes a version-1 segment. Version-2
// segments hold both kinds, since compaction copies kind-1 frames as
// they are.
//
// Deletions are not stored in segments: the tombstone set lives in a
// small atomically rewritten sidecar file (see tombstones.go), so a
// segment is immutable from creation to compaction.
const (
	segVersion   = 2
	segVersionV1 = 1
	headerSize   = 8 // magic + version
	// maxPayload rejects garbage frame lengths before any allocation: a
	// record with full training reservoirs stays well under 16 MiB.
	maxPayload = 16 << 20
	// maxName bounds every length-prefixed string in the meta header.
	maxName = 1 << 10

	kindRecord = 1 // meta header without page fields
	kindPage   = 2 // meta header with page fields
)

// segFormat is the store's segment layout.
var segFormat = seglog.Format{
	Names:      seglog.Names{Prefix: "store-", Suffix: ".seg"},
	Magic:      [4]byte{'A', 'C', 'D', 'B'},
	Version:    segVersion,
	Extra:      map[uint32]int{segVersionV1: 0, segVersion: 0},
	MaxPayload: maxPayload,
}

// meta is the decoded fixed header of one record: the slice of a
// Record the index keeps in memory.
type meta struct {
	seq     uint64
	at      int64
	app     string
	class   appclass.Class
	verdict appclass.Class
	model   string
	exec    time.Duration
	samples int
	gaps    int
	comp    []compEntry
	hasFP   bool
	// page reports that the page fields below were decoded from a kind-2
	// header; a kind-1 record keeps them only in its body.
	page    bool
	unknown float64
	phases  int
	summary string // Fingerprint.String(), "" without a fingerprint
	matched string
	score   float64
}

// compEntry is one composition fraction, kept as a slice rather than a
// map so a million index entries do not cost a million map headers.
type compEntry struct {
	class appclass.Class
	frac  float64
}

// setPage fills m's page fields from the record they summarize.
func (m *meta) setPage(r *Record) {
	m.page = true
	m.unknown, m.phases = r.UnknownFraction, len(r.Phases)
	m.summary = ""
	if r.Fingerprint != nil && !r.Fingerprint.Empty() {
		m.summary = r.Fingerprint.String()
	}
	m.matched, m.score = r.MatchedApp, r.MatchScore
}

// row renders m as a page row. The page fields are zero unless m.page.
func (m *meta) row() Row {
	row := Row{
		App: m.app, Class: m.class, ExecutionTime: m.exec, Samples: m.samples,
		FinalizedAt: m.at, Gaps: m.gaps, Verdict: m.verdict, ModelID: m.model,
		UnknownFraction: m.unknown, Phases: m.phases, Fingerprint: m.summary,
		MatchedApp: m.matched, MatchScore: m.score,
	}
	if len(m.comp) > 0 {
		row.Composition = make(map[appclass.Class]float64, len(m.comp))
		for _, c := range m.comp {
			row.Composition[c.class] = c.frac
		}
	}
	return row
}

// appendRecordPayload encodes a kind-2 record payload (meta header +
// JSON body) onto buf. The caller frames it.
func appendRecordPayload(buf []byte, seq uint64, r *Record) ([]byte, error) {
	return appendPayload(buf, kindPage, seq, r)
}

// appendPayload encodes a record payload of the given kind. Only tests
// write kind 1, to build stores in the layout before page fields.
func appendPayload(buf []byte, kind byte, seq uint64, r *Record) ([]byte, error) {
	if len(r.App) == 0 || len(r.App) > maxName {
		return buf, fmt.Errorf("appstore: app name length %d outside [1,%d]", len(r.App), maxName)
	}
	if len(r.Class) > 255 || len(r.Verdict) > 255 || len(r.ModelID) > 255 {
		return buf, fmt.Errorf("appstore: class/verdict/model label too long for %q", r.App)
	}
	if len(r.Composition) > 255 {
		return buf, fmt.Errorf("appstore: composition with %d classes for %q", len(r.Composition), r.App)
	}
	if len(r.MatchedApp) > maxName {
		return buf, fmt.Errorf("appstore: matched app name length %d over %d for %q", len(r.MatchedApp), maxName, r.App)
	}
	body, err := json.Marshal(r)
	if err != nil {
		return buf, fmt.Errorf("appstore: encode record for %q: %w", r.App, err)
	}
	buf = append(buf, kind)
	buf = binary.LittleEndian.AppendUint64(buf, seq)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(r.FinalizedAt))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(r.App)))
	buf = append(buf, r.App...)
	buf = append(buf, byte(len(r.Class)))
	buf = append(buf, r.Class...)
	buf = append(buf, byte(len(r.Verdict)))
	buf = append(buf, r.Verdict...)
	buf = append(buf, byte(len(r.ModelID)))
	buf = append(buf, r.ModelID...)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(r.ExecutionTime))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(r.Samples))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(r.Gaps))
	buf = append(buf, byte(len(r.Composition)))
	for _, c := range appclass.All() {
		f, ok := r.Composition[c]
		if !ok {
			continue
		}
		buf = append(buf, byte(len(c)))
		buf = append(buf, c...)
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(f))
	}
	// Composition may legally carry only valid classes (Validate enforces
	// it), so the canonical-order walk above covered every entry.
	if kind == kindPage {
		var m meta
		m.setPage(r)
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(m.unknown))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(m.phases))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(m.summary)))
		buf = append(buf, m.summary...)
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(m.matched)))
		buf = append(buf, m.matched...)
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(m.score))
	}
	var flags byte
	if r.Fingerprint != nil && !r.Fingerprint.Empty() {
		flags |= 1
	}
	buf = append(buf, flags)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(body)))
	buf = append(buf, body...)
	return buf, nil
}

// interner shares the strings of index entries: a header decoded
// through it allocates no string the index already holds. A nil
// interner allocates every string.
type interner map[string]string

func (in interner) str(b []byte) string {
	if v, ok := in[string(b)]; ok {
		return v
	}
	v := string(b)
	if in != nil {
		in[v] = v
	}
	return v
}

// decodeMeta parses the fixed header of a record payload of either
// kind, taking its strings from in, and returns the meta and the JSON
// body. Any malformation is an error; scans treat it like a CRC
// failure.
func decodeMeta(p []byte, in interner) (meta, []byte, error) {
	var m meta
	if len(p) < 1 || (p[0] != kindRecord && p[0] != kindPage) {
		return m, nil, fmt.Errorf("appstore: unknown payload kind")
	}
	m.page = p[0] == kindPage
	p = p[1:]
	if len(p) < 16 {
		return m, nil, fmt.Errorf("appstore: payload too short")
	}
	m.seq = binary.LittleEndian.Uint64(p[:8])
	m.at = int64(binary.LittleEndian.Uint64(p[8:16]))
	p = p[16:]
	if len(p) < 2 {
		return m, nil, fmt.Errorf("appstore: payload too short")
	}
	appLen := int(binary.LittleEndian.Uint16(p[:2]))
	p = p[2:]
	if appLen == 0 || appLen > maxName || appLen > len(p) {
		return m, nil, fmt.Errorf("appstore: app name length %d invalid", appLen)
	}
	m.app = in.str(p[:appLen])
	p = p[appLen:]
	var err error
	var s string
	if s, p, err = decodeStr8(p, in); err != nil {
		return m, nil, err
	}
	m.class = appclass.Class(s)
	if s, p, err = decodeStr8(p, in); err != nil {
		return m, nil, err
	}
	m.verdict = appclass.Class(s)
	if m.model, p, err = decodeStr8(p, in); err != nil {
		return m, nil, err
	}
	if len(p) < 16 {
		return m, nil, fmt.Errorf("appstore: payload too short")
	}
	m.exec = time.Duration(binary.LittleEndian.Uint64(p[:8]))
	m.samples = int(binary.LittleEndian.Uint32(p[8:12]))
	m.gaps = int(binary.LittleEndian.Uint32(p[12:16]))
	p = p[16:]
	if len(p) < 1 {
		return m, nil, fmt.Errorf("appstore: payload too short")
	}
	ncomp := int(p[0])
	p = p[1:]
	if ncomp > 0 {
		m.comp = make([]compEntry, 0, ncomp)
	}
	for i := 0; i < ncomp; i++ {
		var cl string
		if cl, p, err = decodeStr8(p, in); err != nil {
			return m, nil, err
		}
		if len(p) < 8 {
			return m, nil, fmt.Errorf("appstore: payload too short")
		}
		m.comp = append(m.comp, compEntry{
			class: appclass.Class(cl),
			frac:  math.Float64frombits(binary.LittleEndian.Uint64(p[:8])),
		})
		p = p[8:]
	}
	if m.page {
		if p, err = decodePage(&m, p, in); err != nil {
			return m, nil, err
		}
	}
	if len(p) < 5 {
		return m, nil, fmt.Errorf("appstore: payload too short")
	}
	m.hasFP = p[0]&1 != 0
	bodyLen := int(binary.LittleEndian.Uint32(p[1:5]))
	p = p[5:]
	if bodyLen != len(p) {
		return m, nil, fmt.Errorf("appstore: json body is %d bytes, header says %d", len(p), bodyLen)
	}
	return m, p, nil
}

// decodePage parses a kind-2 header's page fields into m.
func decodePage(m *meta, p []byte, in interner) ([]byte, error) {
	if len(p) < 16 {
		return nil, fmt.Errorf("appstore: payload too short")
	}
	m.unknown = math.Float64frombits(binary.LittleEndian.Uint64(p[:8]))
	m.phases = int(binary.LittleEndian.Uint32(p[8:12]))
	n := int(binary.LittleEndian.Uint32(p[12:16]))
	p = p[16:]
	if n > len(p) {
		return nil, fmt.Errorf("appstore: fingerprint summary length %d overruns payload", n)
	}
	m.summary = in.str(p[:n])
	p = p[n:]
	if len(p) < 2 {
		return nil, fmt.Errorf("appstore: payload too short")
	}
	n = int(binary.LittleEndian.Uint16(p[:2]))
	p = p[2:]
	if n > maxName || n > len(p) {
		return nil, fmt.Errorf("appstore: matched app length %d invalid", n)
	}
	m.matched = in.str(p[:n])
	p = p[n:]
	if len(p) < 8 {
		return nil, fmt.Errorf("appstore: payload too short")
	}
	m.score = math.Float64frombits(binary.LittleEndian.Uint64(p[:8]))
	return p[8:], nil
}

func decodeStr8(p []byte, in interner) (string, []byte, error) {
	if len(p) < 1 {
		return "", nil, fmt.Errorf("appstore: payload too short")
	}
	n := int(p[0])
	p = p[1:]
	if n > len(p) {
		return "", nil, fmt.Errorf("appstore: string length %d overruns payload", n)
	}
	return in.str(p[:n]), p[n:], nil
}

// decodeRecordPayload fully decodes a record payload: meta header plus
// JSON body.
func decodeRecordPayload(p []byte) (meta, Record, error) {
	m, body, err := decodeMeta(p, nil)
	if err != nil {
		return m, Record{}, err
	}
	var r Record
	if err := json.Unmarshal(body, &r); err != nil {
		return m, Record{}, fmt.Errorf("appstore: decode record body (seq %d): %w", m.seq, err)
	}
	return m, r, nil
}
