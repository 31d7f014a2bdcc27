package wal

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"repro/internal/metrics"
	"repro/internal/seglog"
)

// RecordType tags what a journal record carries.
type RecordType byte

const (
	// RecordBatch is one validated ingest batch for a single VM.
	RecordBatch RecordType = 1
	// RecordFinalize marks a VM's session as finalized: the record has
	// no snapshots, and replay must not resurrect the session past it.
	RecordFinalize RecordType = 2
)

// Record is one decoded journal entry.
type Record struct {
	Type RecordType
	// VM is the session the record belongs to.
	VM string
	// Snaps carries the batch payload (RecordBatch only). Decoded
	// snapshots have Node set to VM.
	Snaps []metrics.Snapshot
}

// On-disk format: a seglog segment whose header extra is, from format
// version 2, a 32-byte model compatibility hash identifying the
// classifier every record in the segment was appended under (a hot
// swap rotates to a fresh segment, so one segment never mixes models).
// Version-1 segments (8-byte header, no hash) remain readable. Record
// payloads are
//
//	byte type | u16 len(vm) | vm |                       (finalize)
//	byte type | u16 len(vm) | vm | u32 count | u16 dims |
//	    count × (i64 time-ns | dims × f64)               (batch)
const (
	segmentVersion   = 2
	segmentVersionV1 = 1
	headerPrefixSize = 8                                // magic + version
	modelHashSize    = 32                               // sha256
	headerSize       = headerPrefixSize + modelHashSize // version-2 header
	// maxPayload rejects garbage lengths during replay before any
	// allocation happens: no legitimate record approaches 64 MiB.
	maxPayload = 64 << 20
	// maxVMName bounds the encoded VM-name length (u16 on disk).
	maxVMName = 1 << 10
	// maxDims bounds the values per snapshot in a batch record.
	maxDims = 1 << 15
)

// SegmentFormatVersion is the journal's on-disk segment format version.
// It is an input to the model compatibility hash: a model trained under
// one journal format must not silently serve a journal written under
// another.
const SegmentFormatVersion = segmentVersion

// segFormat is the journal's segment layout.
var segFormat = seglog.Format{
	Names:      seglog.Names{Prefix: "journal-", Suffix: ".wal"},
	Magic:      [4]byte{'A', 'C', 'W', 'L'},
	Version:    segmentVersion,
	Extra:      map[uint32]int{segmentVersionV1: 0, segmentVersion: modelHashSize},
	MaxPayload: maxPayload,
}

// appendBatchPayload encodes a batch record payload onto buf.
func appendBatchPayload(buf []byte, vm string, snaps []metrics.Snapshot) ([]byte, error) {
	if len(vm) == 0 || len(vm) > maxVMName {
		return buf, fmt.Errorf("wal: vm name length %d outside [1,%d]", len(vm), maxVMName)
	}
	if len(snaps) == 0 {
		return buf, fmt.Errorf("wal: empty batch for %q", vm)
	}
	dims := len(snaps[0].Values)
	if dims == 0 || dims > maxDims {
		return buf, fmt.Errorf("wal: batch for %q has %d values per snapshot", vm, dims)
	}
	for i := range snaps {
		if len(snaps[i].Values) != dims {
			return buf, fmt.Errorf("wal: batch for %q mixes %d- and %d-value snapshots",
				vm, dims, len(snaps[i].Values))
		}
	}
	buf = append(buf, byte(RecordBatch))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(vm)))
	buf = append(buf, vm...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(snaps)))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(dims))
	for i := range snaps {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(snaps[i].Time))
		for _, v := range snaps[i].Values {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		}
	}
	return buf, nil
}

// appendFinalizePayload encodes a finalize record payload onto buf.
func appendFinalizePayload(buf []byte, vm string) ([]byte, error) {
	if len(vm) == 0 || len(vm) > maxVMName {
		return buf, fmt.Errorf("wal: vm name length %d outside [1,%d]", len(vm), maxVMName)
	}
	buf = append(buf, byte(RecordFinalize))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(vm)))
	buf = append(buf, vm...)
	return buf, nil
}

// decodePayload parses one record payload. It returns an error for any
// malformed payload; replay treats that the same as a CRC failure.
func decodePayload(p []byte) (Record, error) {
	if len(p) < 3 {
		return Record{}, fmt.Errorf("wal: payload too short (%d bytes)", len(p))
	}
	typ := RecordType(p[0])
	vmLen := int(binary.LittleEndian.Uint16(p[1:3]))
	p = p[3:]
	if vmLen == 0 || vmLen > maxVMName || vmLen > len(p) {
		return Record{}, fmt.Errorf("wal: vm name length %d invalid", vmLen)
	}
	vm := string(p[:vmLen])
	p = p[vmLen:]
	switch typ {
	case RecordFinalize:
		if len(p) != 0 {
			return Record{}, fmt.Errorf("wal: finalize record has %d trailing bytes", len(p))
		}
		return Record{Type: RecordFinalize, VM: vm}, nil
	case RecordBatch:
		if len(p) < 6 {
			return Record{}, fmt.Errorf("wal: batch record truncated")
		}
		count := int(binary.LittleEndian.Uint32(p[:4]))
		dims := int(binary.LittleEndian.Uint16(p[4:6]))
		p = p[6:]
		if count <= 0 || dims <= 0 || dims > maxDims {
			return Record{}, fmt.Errorf("wal: batch record has count %d, dims %d", count, dims)
		}
		per := 8 + 8*dims
		if len(p) != count*per {
			return Record{}, fmt.Errorf("wal: batch record body is %d bytes, want %d", len(p), count*per)
		}
		snaps := make([]metrics.Snapshot, count)
		for i := 0; i < count; i++ {
			at := time.Duration(binary.LittleEndian.Uint64(p[:8]))
			p = p[8:]
			vals := make([]float64, dims)
			for j := 0; j < dims; j++ {
				vals[j] = math.Float64frombits(binary.LittleEndian.Uint64(p[:8]))
				p = p[8:]
			}
			snaps[i] = metrics.Snapshot{Time: at, Node: vm, Values: vals}
		}
		return Record{Type: RecordBatch, VM: vm, Snaps: snaps}, nil
	default:
		return Record{}, fmt.Errorf("wal: unknown record type %d", typ)
	}
}
