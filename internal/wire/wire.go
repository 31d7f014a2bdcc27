// Package wire implements the daemon's binary columnar ingest
// protocol: the fast-path alternative to JSON on POST /v1/ingest. Every
// request carries exactly one frame and is answered by one. A client
// opens a stream with a Hello frame that negotiates a per-connection
// metric-ID table (schema names -> small column indices) and receives
// the serving model's compatibility hash; every later Batch frame then
// carries packed little-endian float columns addressed by those
// indices, so steady-state ingest never parses a metric name or a
// decimal float again. Frames reuse the write-ahead
// journal's framing idiom — length prefix plus CRC32C over the
// payload — and the model hash stamped into the stream means a
// mid-stream hot swap is detected (the server answers 409 with the new
// hash) instead of silently mis-decoding against a retired model.
package wire

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/seglog"
)

// Version is the wire protocol version carried in every Hello and
// HelloAck. A server speaking a different version rejects the
// handshake rather than guessing at frame layouts.
const Version = 1

// Frame types, the first payload byte of every frame.
const (
	// FrameHello opens a stream: client -> server.
	FrameHello byte = 1
	// FrameHelloAck answers a Hello with the stream ID, the serving
	// model's hash, and the class-ID table.
	FrameHelloAck byte = 2
	// FrameBatch carries one ingest batch: per-VM groups of packed
	// float columns.
	FrameBatch byte = 3
	// FrameBatchAck answers a Batch frame with per-snapshot class IDs
	// in input order.
	FrameBatchAck byte = 4
	// FrameError carries an HTTP-status-shaped error; on a stale-model
	// 409 it also carries the new model hash so the client can decide
	// whether to re-handshake.
	FrameError byte = 5
)

// Framing and bounds. Every frame is a seglog frame,
//
//	uint32 payload length | uint32 CRC32C of payload | payload
//
// all little-endian — the same shape as a journal record, so a torn or
// corrupted frame is detected by the length/CRC pair, never by a
// panic.
const (
	// MaxFrame caps one frame's payload; it matches the server's ingest
	// body cap, so no legitimate batch can exceed it.
	MaxFrame = 8 << 20
	// HashSize is the model compatibility hash length (sha256).
	HashSize = 32
	// MaxVMName bounds an encoded VM name (u16 on the wire).
	MaxVMName = 1 << 10
	// MaxMetricName bounds one negotiated metric name.
	MaxMetricName = 1 << 10
	// MaxColumns bounds the negotiated metric table (u16 on the wire).
	MaxColumns = 1 << 15
	// maxClasses bounds the HelloAck class table (u8 on the wire).
	maxClasses = 255
)

// BeginFrame reserves a frame header on dst and returns the extended
// buffer plus the header's offset for EndFrame.
func BeginFrame(dst []byte) ([]byte, int) { return seglog.BeginFrame(dst) }

// EndFrame fills in the length and CRC for the payload appended since
// BeginFrame returned start.
func EndFrame(buf []byte, start int) []byte { return seglog.EndFrame(buf, start) }

// NextFrame splits one CRC-verified frame payload off the front of
// buf, returning the payload and the remaining bytes. An empty buf
// returns (nil, nil, nil).
func NextFrame(buf []byte) (payload, rest []byte, err error) {
	return seglog.NextFrame(buf, MaxFrame)
}

// Hello is the stream-opening handshake. Metrics names every column
// the client will send, in the client's chosen column order; the
// server requires them to cover its schema exactly (every schema
// metric present once, nothing else), matching the JSON by-name path's
// contract. A non-zero ModelHash pins the stream to that model: the
// handshake is refused with 409 if it is not the serving model.
type Hello struct {
	Version   byte
	ModelHash [HashSize]byte
	Metrics   []string
}

// AppendHello encodes h onto dst as a frame payload (no framing).
func AppendHello(dst []byte, h Hello) []byte {
	dst = append(dst, FrameHello, h.Version)
	dst = append(dst, h.ModelHash[:]...)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(h.Metrics)))
	for _, m := range h.Metrics {
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(m)))
		dst = append(dst, m...)
	}
	return dst
}

// ParseHello decodes a Hello frame payload.
func ParseHello(p []byte) (Hello, error) {
	var h Hello
	if len(p) < 2+HashSize+2 {
		return h, fmt.Errorf("wire: hello truncated (%d bytes)", len(p))
	}
	if p[0] != FrameHello {
		return h, fmt.Errorf("wire: not a hello frame (type %d)", p[0])
	}
	h.Version = p[1]
	copy(h.ModelHash[:], p[2:2+HashSize])
	p = p[2+HashSize:]
	n := int(binary.LittleEndian.Uint16(p[:2]))
	p = p[2:]
	if n == 0 || n > MaxColumns {
		return h, fmt.Errorf("wire: hello metric count %d outside [1,%d]", n, MaxColumns)
	}
	h.Metrics = make([]string, 0, n)
	for i := 0; i < n; i++ {
		if len(p) < 2 {
			return h, fmt.Errorf("wire: hello metric %d truncated", i)
		}
		l := int(binary.LittleEndian.Uint16(p[:2]))
		p = p[2:]
		if l == 0 || l > MaxMetricName || l > len(p) {
			return h, fmt.Errorf("wire: hello metric %d has invalid length %d", i, l)
		}
		h.Metrics = append(h.Metrics, string(p[:l]))
		p = p[l:]
	}
	if len(p) != 0 {
		return h, fmt.Errorf("wire: hello has %d trailing bytes", len(p))
	}
	return h, nil
}

// HelloAck answers a Hello: the stream ID every Batch must carry, the
// serving model's compatibility hash, and the class table Batch acks
// index into.
type HelloAck struct {
	Version   byte
	StreamID  uint64
	ModelHash [HashSize]byte
	Classes   []string
}

// AppendHelloAck encodes a onto dst as a frame payload.
func AppendHelloAck(dst []byte, a HelloAck) []byte {
	dst = append(dst, FrameHelloAck, a.Version)
	dst = binary.LittleEndian.AppendUint64(dst, a.StreamID)
	dst = append(dst, a.ModelHash[:]...)
	dst = append(dst, byte(len(a.Classes)))
	for _, c := range a.Classes {
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(c)))
		dst = append(dst, c...)
	}
	return dst
}

// ParseHelloAck decodes a HelloAck frame payload.
func ParseHelloAck(p []byte) (HelloAck, error) {
	var a HelloAck
	if len(p) < 2+8+HashSize+1 {
		return a, fmt.Errorf("wire: hello ack truncated (%d bytes)", len(p))
	}
	if p[0] != FrameHelloAck {
		return a, fmt.Errorf("wire: not a hello ack frame (type %d)", p[0])
	}
	a.Version = p[1]
	a.StreamID = binary.LittleEndian.Uint64(p[2:10])
	copy(a.ModelHash[:], p[10:10+HashSize])
	p = p[10+HashSize:]
	n := int(p[0])
	p = p[1:]
	a.Classes = make([]string, 0, n)
	for i := 0; i < n; i++ {
		if len(p) < 2 {
			return a, fmt.Errorf("wire: hello ack class %d truncated", i)
		}
		l := int(binary.LittleEndian.Uint16(p[:2]))
		p = p[2:]
		if l == 0 || l > MaxMetricName || l > len(p) {
			return a, fmt.Errorf("wire: hello ack class %d has invalid length %d", i, l)
		}
		a.Classes = append(a.Classes, string(p[:l]))
		p = p[l:]
	}
	if len(p) != 0 {
		return a, fmt.Errorf("wire: hello ack has %d trailing bytes", len(p))
	}
	return a, nil
}

// Group is one VM's rows within a batch, row-major on the client side;
// AppendBatch writes it out column-major.
type Group struct {
	VM string
	// Times are snapshot times in seconds (the JSON path's time_s).
	Times []float64
	// Rows holds one value row per snapshot, each len(cols) long, in
	// the negotiated column order.
	Rows [][]float64
}

// AppendBatch encodes a batch frame payload onto dst: the stream ID,
// then each group as a VM name, row count, packed times, and one
// packed column per negotiated metric. Layout per group:
//
//	u16 len(vm) | vm | u32 rows |
//	rows × f64 time-seconds |
//	cols × (rows × f64 values)    — column-major
func AppendBatch(dst []byte, streamID uint64, cols int, groups []Group) ([]byte, error) {
	if cols <= 0 || cols > MaxColumns {
		return dst, fmt.Errorf("wire: column count %d outside [1,%d]", cols, MaxColumns)
	}
	if len(groups) == 0 {
		return dst, fmt.Errorf("wire: empty batch")
	}
	dst = append(dst, FrameBatch)
	dst = binary.LittleEndian.AppendUint64(dst, streamID)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(groups)))
	for _, g := range groups {
		if len(g.VM) == 0 || len(g.VM) > MaxVMName {
			return dst, fmt.Errorf("wire: vm name length %d outside [1,%d]", len(g.VM), MaxVMName)
		}
		if len(g.Times) == 0 || len(g.Times) != len(g.Rows) {
			return dst, fmt.Errorf("wire: group %q has %d times for %d rows", g.VM, len(g.Times), len(g.Rows))
		}
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(g.VM)))
		dst = append(dst, g.VM...)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(g.Rows)))
		for _, t := range g.Times {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(t))
		}
		for c := 0; c < cols; c++ {
			for r, row := range g.Rows {
				if len(row) != cols {
					return dst, fmt.Errorf("wire: group %q row %d has %d values, want %d", g.VM, r, len(row), cols)
				}
				dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(row[c]))
			}
		}
	}
	return dst, nil
}

// BatchView is a zero-copy decoder over one batch frame payload: the
// server walks groups in place with Next, never allocating per frame.
type BatchView struct {
	StreamID uint64
	groups   int
	read     int
	cols     int
	p        []byte
}

// ParseBatchHeader begins decoding a batch frame payload. cols is the
// stream's negotiated column count; the caller resolves it from the
// stream ID, which is why the header carries the ID up front.
func ParseBatchHeader(p []byte, cols int) (BatchView, error) {
	var b BatchView
	if len(p) < 1+8+4 {
		return b, fmt.Errorf("wire: batch truncated (%d bytes)", len(p))
	}
	if p[0] != FrameBatch {
		return b, fmt.Errorf("wire: not a batch frame (type %d)", p[0])
	}
	b.StreamID = binary.LittleEndian.Uint64(p[1:9])
	b.groups = int(binary.LittleEndian.Uint32(p[9:13]))
	if b.groups <= 0 {
		return b, fmt.Errorf("wire: batch has %d groups", b.groups)
	}
	b.cols = cols
	b.p = p[13:]
	return b, nil
}

// PeekStreamID extracts the stream ID from a batch frame payload
// without validating the rest, so the caller can resolve the stream's
// column table before ParseBatchHeader.
func PeekStreamID(p []byte) (uint64, error) {
	if len(p) < 9 || p[0] != FrameBatch {
		return 0, fmt.Errorf("wire: not a batch frame")
	}
	return binary.LittleEndian.Uint64(p[1:9]), nil
}

// Groups returns the group count declared in the batch header.
func (b *BatchView) Groups() int { return b.groups }

// GroupView addresses one VM's packed rows inside a batch frame
// without copying them: VM aliases the frame buffer, and values are
// read on demand straight out of it.
type GroupView struct {
	// VM aliases the request buffer; it is only valid until the buffer
	// is recycled. Callers needing to keep it must copy (intern) it.
	VM     []byte
	Rows   int
	cols   int
	times  []byte
	values []byte
}

// Next decodes the next group in place. It returns an error on any
// malformed group; the caller treats that like a bad CRC.
func (b *BatchView) Next() (GroupView, error) {
	var g GroupView
	if b.read >= b.groups {
		return g, fmt.Errorf("wire: batch has only %d groups", b.groups)
	}
	p := b.p
	if len(p) < 2 {
		return g, fmt.Errorf("wire: group %d truncated", b.read)
	}
	vmLen := int(binary.LittleEndian.Uint16(p[:2]))
	p = p[2:]
	if vmLen == 0 || vmLen > MaxVMName || vmLen > len(p) {
		return g, fmt.Errorf("wire: group %d vm name length %d invalid", b.read, vmLen)
	}
	g.VM = p[:vmLen]
	p = p[vmLen:]
	if len(p) < 4 {
		return g, fmt.Errorf("wire: group %d row count truncated", b.read)
	}
	rows := int(binary.LittleEndian.Uint32(p[:4]))
	p = p[4:]
	if rows <= 0 || rows > MaxFrame/8 {
		return g, fmt.Errorf("wire: group %d has %d rows", b.read, rows)
	}
	need := 8 * rows * (1 + b.cols)
	if need < 0 || len(p) < need {
		return g, fmt.Errorf("wire: group %d body is %d bytes, want %d", b.read, len(p), need)
	}
	g.Rows = rows
	g.cols = b.cols
	g.times = p[:8*rows]
	g.values = p[8*rows : need]
	b.p = p[need:]
	b.read++
	if b.read == b.groups && len(b.p) != 0 {
		return g, fmt.Errorf("wire: batch has %d trailing bytes", len(b.p))
	}
	return g, nil
}

// TimeSeconds returns row's snapshot time in seconds.
func (g *GroupView) TimeSeconds(row int) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(g.times[8*row:]))
}

// Value returns the value at (negotiated column, row).
func (g *GroupView) Value(col, row int) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(g.values[8*(col*g.Rows+row):]))
}

// AppendBatchAck encodes a batch ack frame payload: one class-table
// index per accepted snapshot, in the batch's input order.
func AppendBatchAck(dst []byte, classIDs []byte) []byte {
	dst = append(dst, FrameBatchAck)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(classIDs)))
	return append(dst, classIDs...)
}

// ParseBatchAck decodes a batch ack frame payload. The returned slice
// aliases p.
func ParseBatchAck(p []byte) ([]byte, error) {
	if len(p) < 5 {
		return nil, fmt.Errorf("wire: batch ack truncated (%d bytes)", len(p))
	}
	if p[0] != FrameBatchAck {
		return nil, fmt.Errorf("wire: not a batch ack frame (type %d)", p[0])
	}
	n := int(binary.LittleEndian.Uint32(p[1:5]))
	if n != len(p)-5 {
		return nil, fmt.Errorf("wire: batch ack declares %d classes, carries %d", n, len(p)-5)
	}
	return p[5:], nil
}

// ErrorFrame is the binary error response: the HTTP status code the
// response carried, a message, and — on a stale-model 409 — the
// serving model's current hash.
type ErrorFrame struct {
	Code      int
	ModelHash [HashSize]byte
	Message   string
}

// AppendError encodes e onto dst as a frame payload.
func AppendError(dst []byte, e ErrorFrame) []byte {
	dst = append(dst, FrameError)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(e.Code))
	dst = append(dst, e.ModelHash[:]...)
	msg := e.Message
	if len(msg) > MaxMetricName {
		msg = msg[:MaxMetricName]
	}
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(msg)))
	return append(dst, msg...)
}

// ParseError decodes an error frame payload.
func ParseError(p []byte) (ErrorFrame, error) {
	var e ErrorFrame
	if len(p) < 1+2+HashSize+2 {
		return e, fmt.Errorf("wire: error frame truncated (%d bytes)", len(p))
	}
	if p[0] != FrameError {
		return e, fmt.Errorf("wire: not an error frame (type %d)", p[0])
	}
	e.Code = int(binary.LittleEndian.Uint16(p[1:3]))
	copy(e.ModelHash[:], p[3:3+HashSize])
	p = p[3+HashSize:]
	l := int(binary.LittleEndian.Uint16(p[:2]))
	p = p[2:]
	if l != len(p) {
		return e, fmt.Errorf("wire: error message declares %d bytes, carries %d", l, len(p))
	}
	e.Message = string(p)
	return e, nil
}
