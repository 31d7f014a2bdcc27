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
//	byte kind (1=record) | u64 seq | i64 finalized-at-ns |
//	u16 len(app) | app | u8 len(class) | class |
//	u8 len(verdict) | verdict | u8 len(model) | model |
//	i64 exec-ns | u32 samples | u32 gaps |
//	u8 ncomp | ncomp × (u8 len(class) | class | f64 fraction) |
//	u8 flags (bit0: has fingerprint) | u32 len(json) | json
//
// Deletions are not stored in segments: the tombstone set lives in a
// small atomically rewritten sidecar file (see tombstones.go), so a
// segment is immutable from creation to compaction.
const (
	segVersion = 1
	headerSize = 8 // magic + version
	// maxPayload rejects garbage frame lengths before any allocation: a
	// record with full training reservoirs stays well under 16 MiB.
	maxPayload = 16 << 20
	// maxName bounds every length-prefixed string in the meta header.
	maxName = 1 << 10

	kindRecord = 1
)

// segFormat is the store's segment layout.
var segFormat = seglog.Format{
	Names:      seglog.Names{Prefix: "store-", Suffix: ".seg"},
	Magic:      [4]byte{'A', 'C', 'D', 'B'},
	Version:    segVersion,
	Extra:      map[uint32]int{segVersion: 0},
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
}

// compEntry is one composition fraction, kept as a slice rather than a
// map so a million index entries do not cost a million map headers.
type compEntry struct {
	class appclass.Class
	frac  float64
}

// appendRecordPayload encodes a record payload (meta header + JSON
// body) onto buf. The caller frames it.
func appendRecordPayload(buf []byte, seq uint64, r *Record) ([]byte, error) {
	if len(r.App) == 0 || len(r.App) > maxName {
		return buf, fmt.Errorf("appstore: app name length %d outside [1,%d]", len(r.App), maxName)
	}
	if len(r.Class) > 255 || len(r.Verdict) > 255 || len(r.ModelID) > 255 {
		return buf, fmt.Errorf("appstore: class/verdict/model label too long for %q", r.App)
	}
	if len(r.Composition) > 255 {
		return buf, fmt.Errorf("appstore: composition with %d classes for %q", len(r.Composition), r.App)
	}
	body, err := json.Marshal(r)
	if err != nil {
		return buf, fmt.Errorf("appstore: encode record for %q: %w", r.App, err)
	}
	buf = append(buf, kindRecord)
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
	var flags byte
	if r.Fingerprint != nil && !r.Fingerprint.Empty() {
		flags |= 1
	}
	buf = append(buf, flags)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(body)))
	buf = append(buf, body...)
	return buf, nil
}

// decodeMeta parses the fixed header of a record payload, returning the
// meta and the JSON body. Any malformation is an error; scans treat it
// like a CRC failure.
func decodeMeta(p []byte) (meta, []byte, error) {
	var m meta
	if len(p) < 1 || p[0] != kindRecord {
		return m, nil, fmt.Errorf("appstore: unknown payload kind")
	}
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
	m.app = string(p[:appLen])
	p = p[appLen:]
	var err error
	var s string
	if s, p, err = decodeStr8(p); err != nil {
		return m, nil, err
	}
	m.class = appclass.Class(s)
	if s, p, err = decodeStr8(p); err != nil {
		return m, nil, err
	}
	m.verdict = appclass.Class(s)
	if m.model, p, err = decodeStr8(p); err != nil {
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
		if cl, p, err = decodeStr8(p); err != nil {
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

func decodeStr8(p []byte) (string, []byte, error) {
	if len(p) < 1 {
		return "", nil, fmt.Errorf("appstore: payload too short")
	}
	n := int(p[0])
	p = p[1:]
	if n > len(p) {
		return "", nil, fmt.Errorf("appstore: string length %d overruns payload", n)
	}
	return string(p[:n]), p[n:], nil
}

// decodeRecordPayload fully decodes a record payload: meta header plus
// JSON body.
func decodeRecordPayload(p []byte) (meta, Record, error) {
	m, body, err := decodeMeta(p)
	if err != nil {
		return m, Record{}, err
	}
	var r Record
	if err := json.Unmarshal(body, &r); err != nil {
		return m, Record{}, fmt.Errorf("appstore: decode record body (seq %d): %w", m.seq, err)
	}
	return m, r, nil
}
