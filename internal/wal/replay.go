package wal

import (
	"encoding/hex"
	"fmt"
	"os"

	"repro/internal/seglog"
)

// SegmentInfo describes one scanned segment file.
type SegmentInfo struct {
	// Seq is the segment sequence number.
	Seq uint64
	// Path is the segment file path.
	Path string
	// Size is the file size on disk.
	Size int64
	// Records is the number of valid records scanned.
	Records int
	// ValidBytes is the offset just past the last valid record (at
	// least the header size for a well-headed segment); truncating the
	// file here discards exactly the torn tail.
	ValidBytes int64
	// Torn reports whether the segment ends in bytes that do not form a
	// complete valid record — the signature of a crash mid-write or of
	// on-disk corruption.
	Torn bool
	// TornReason says what the scanner hit when Torn (short frame,
	// CRC mismatch, bad header, ...).
	TornReason string
	// Version is the segment's on-disk format version.
	Version uint32
	// ModelHash is the hex model compatibility hash from the segment
	// header; empty for version-1 segments, which predate model
	// stamping.
	ModelHash string
}

// ReplayStats summarizes one Replay pass.
type ReplayStats struct {
	// Segments is how many segment files were scanned.
	Segments int
	// Records is how many valid records were delivered.
	Records int
	// Snapshots is the total snapshot count across delivered batches.
	Snapshots int
	// Truncated reports that a segment ended in a torn or corrupt
	// record; replay stopped cleanly at the last valid record.
	Truncated bool
	// TruncatedAt is where scanning stopped when Truncated.
	TruncatedAt Position
	// MissingSegments lists sequence numbers that should exist between
	// the replay start and the newest segment but are not on disk —
	// records in them are gone (retention pruned past a checkpoint, or
	// files were deleted out of band). Replay still delivers what
	// remains; callers must surface the gap loudly, because the stream
	// is no longer contiguous.
	MissingSegments []uint64
}

// Replay scans the journal directory from position `from`, decoding
// every valid record in order and passing it to fn along with the
// position just past it (the value to store in a checkpoint covering
// the record). Scanning a segment stops cleanly at the first torn or
// corrupt record: the partial record is dropped, no error is returned,
// and ReplayStats.Truncated is set. A torn record in a non-final
// segment also stops the whole replay — later records cannot be
// trusted to belong to the stream — which Replay reports the same way.
// fn returning an error aborts the replay with that error.
func Replay(dir string, from Position, fn func(pos Position, rec Record) error) (ReplayStats, error) {
	var stats ReplayStats
	segs, err := segFormat.List(dir)
	if err != nil {
		return stats, err
	}
	// Expected next sequence number, for gap detection. A checkpointed
	// start pins it to from.Seg — that segment must still exist. With no
	// checkpoint (from.Seg 0) the oldest surviving segment is the
	// legitimate start (retention may have pruned older ones), and only
	// gaps between surviving segments are reportable.
	expect := from.Seg
	for _, seg := range segs {
		if seg.Seq < from.Seg {
			continue
		}
		if expect == 0 {
			expect = seg.Seq
		}
		for ; expect < seg.Seq; expect++ {
			stats.MissingSegments = append(stats.MissingSegments, expect)
		}
		expect = seg.Seq + 1
		var startOff int64
		if seg.Seq == from.Seg {
			startOff = from.Off
		}
		info, err := scanSegment(segFormat.Path(dir, seg.Seq), seg.Seq, startOff, func(end Position, rec Record) error {
			stats.Records++
			stats.Snapshots += len(rec.Snaps)
			return fn(end, rec)
		})
		if err != nil {
			return stats, err
		}
		stats.Segments++
		if info.Torn {
			stats.Truncated = true
			stats.TruncatedAt = Position{Seg: seg.Seq, Off: info.ValidBytes}
			break
		}
	}
	return stats, nil
}

// scanSegment walks records from startOff (0 means just past the
// header) to the first invalid frame or EOF. An undecodable payload is
// invalid like a CRC mismatch.
func scanSegment(path string, seq uint64, startOff int64, fn func(pos Position, rec Record) error) (SegmentInfo, error) {
	sc, err := segFormat.Walk(path, startOff, false, func(off int64, p []byte) error {
		rec, err := decodePayload(p)
		if err != nil {
			return seglog.Corrupt(err)
		}
		if fn == nil {
			return nil
		}
		return fn(Position{Seg: seq, Off: off + seglog.FrameSize + int64(len(p))}, rec)
	})
	info := SegmentInfo{Seq: seq, Path: path, Size: sc.Size, Records: sc.Frames, ValidBytes: sc.End,
		Torn: sc.Torn, TornReason: sc.Reason, Version: sc.Header.Version, ModelHash: hex.EncodeToString(sc.Header.Extra)}
	if err != nil {
		return info, fmt.Errorf("wal: %w", err)
	}
	return info, nil
}

// VerifyDir scans every segment in dir and returns their infos, oldest
// first.
func VerifyDir(dir string) ([]SegmentInfo, error) {
	segs, err := segFormat.List(dir)
	if err != nil {
		return nil, err
	}
	out := make([]SegmentInfo, 0, len(segs))
	for _, seg := range segs {
		info, err := scanSegment(segFormat.Path(dir, seg.Seq), seg.Seq, 0, nil)
		if err != nil {
			return out, err
		}
		out = append(out, info)
	}
	return out, nil
}

// SegmentHashes reads only the headers of every segment with seq >=
// from and returns seq → hex model hash ("" for version-1 segments).
// Torn-headed segments are skipped — they carry no replayable records.
// Recovery uses this to refuse replaying records written under a model
// other than the one it loaded.
func SegmentHashes(dir string, from uint64) (map[uint64]string, error) {
	segs, err := segFormat.List(dir)
	if err != nil {
		return nil, err
	}
	out := make(map[uint64]string, len(segs))
	for _, seg := range segs {
		if seg.Seq < from {
			continue
		}
		path := segFormat.Path(dir, seg.Seq)
		f, err := os.Open(path)
		if err != nil {
			return nil, fmt.Errorf("wal: open segment %s: %w", path, err)
		}
		h, reason, err := segFormat.ReadHeader(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("wal: read segment header %s: %w", path, err)
		}
		if reason == "" {
			out[seg.Seq] = hex.EncodeToString(h.Extra)
		}
	}
	return out, nil
}

// TruncateAtCorruption truncates every torn segment in dir at its last
// valid record boundary, dropping the partial tail so subsequent scans
// are clean. A segment with a bad header (ValidBytes == 0) is removed
// entirely. It returns the segments that were modified.
func TruncateAtCorruption(dir string) ([]SegmentInfo, error) {
	infos, err := VerifyDir(dir)
	if err != nil {
		return nil, err
	}
	var fixed []SegmentInfo
	for _, info := range infos {
		if !info.Torn {
			continue
		}
		if info.ValidBytes <= 0 {
			if err := os.Remove(info.Path); err != nil {
				return fixed, fmt.Errorf("wal: remove headerless segment %s: %w", info.Path, err)
			}
		} else if err := os.Truncate(info.Path, info.ValidBytes); err != nil {
			return fixed, fmt.Errorf("wal: truncate %s at %d: %w", info.Path, info.ValidBytes, err)
		}
		fixed = append(fixed, info)
	}
	return fixed, nil
}
