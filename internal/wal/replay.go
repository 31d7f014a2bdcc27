package wal

import (
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"slices"

	"repro/internal/seglog"
)

// ReplayStats summarizes one walk over the journal.
type ReplayStats struct {
	// Records is how many valid records were delivered.
	Records int
	// Snapshots is the total snapshot count across delivered batches.
	Snapshots int
	// CorruptFrames counts the bad frames stepped over: a CRC mismatch,
	// or a CRC-valid payload this build cannot decode. Each costs its own
	// record only.
	CorruptFrames int
	// Truncated reports that a segment does not end on an intact frame —
	// a torn tail, bad frames with no intact one behind them, or an
	// unusable header — so Journal.Recover cut it there.
	Truncated bool
	// TruncatedAt is where the first such segment's intact frames end.
	TruncatedAt Position
	// MissingSegments lists sequence numbers that should exist between
	// the replay start and the newest segment but are not on disk —
	// records in them are gone (files were deleted out of band, or by
	// an older build's size cap). Replay still delivers what
	// remains; callers must surface the gap loudly, because the stream
	// is no longer contiguous.
	MissingSegments []uint64
}

// Replay scans the journal directory from position `from`, decoding
// every valid record in order and passing it to fn along with the
// position just past it (the value to store in a checkpoint covering
// the record). It delivers exactly what Journal.Recover does: a bad
// frame is stepped over and counted, and a torn tail ends only its own
// segment. fn returning an error aborts the replay with that error.
// Replay changes nothing on disk.
func Replay(dir string, from Position, fn func(pos Position, rec Record) error) (ReplayStats, error) {
	stats, _, err := walk(dir, from, fn, false)
	return stats, err
}

// Recover is recovery's one walk over the journal: Replay from `from`,
// cutting every segment that does not end on an intact frame as the
// walk passes it (seglog.Format.Cut), so the journal it leaves ends
// each segment cleanly. The cuts are applied to the journal's segment
// list, so Stats and retention count what is on disk. A quarantined
// segment was on disk when the walk reached it, so it is no gap.
// Recover must not race appends.
func (j *Journal) Recover(from Position, fn func(pos Position, rec Record) error) (ReplayStats, error) {
	stats, reps, err := walk(j.cfg.Dir, from, fn, true)
	j.mu.Lock()
	defer j.mu.Unlock()
	for _, rep := range reps {
		if len(rep.Bad) > 0 {
			j.cfg.Logf("wal: recovery stepped over %d corrupt frame(s) in segment %d, the first at offset %d", len(rep.Bad), rep.Seq, rep.Bad[0])
		}
		i := slices.IndexFunc(j.closed, func(s seglog.Seg) bool { return s.Seq == rep.Seq })
		switch {
		case !rep.Repaired || i < 0:
		case rep.Quarantined != "":
			j.closed = slices.Delete(j.closed, i, i+1)
			j.cfg.Logf("wal: recovery quarantined segment %d as %s: %s", rep.Seq, filepath.Base(rep.Quarantined), rep.Reason)
		default:
			j.closed[i].Size = rep.Intact
			j.cfg.Logf("wal: recovery cut segment %d from %d to %d byte(s), after its last intact frame", rep.Seq, rep.Size, rep.Intact)
		}
	}
	return stats, err
}

// walk is the one pass over a journal directory behind Replay, Recover,
// VerifyDir and TruncateAtCorruption. Each segment at or after from.Seg
// is walked once, segment from.Seg from offset from.Off, decoding every
// record and passing it to fn, when non-nil, with the position just
// past it; an undecodable payload is a bad frame like a CRC mismatch.
// With cut set, each segment that does not end on an intact frame is
// cut as the walk passes it. It returns the report of every segment
// walked.
func walk(dir string, from Position, fn func(Position, Record) error, cut bool) (stats ReplayStats, reps []seglog.Report, err error) {
	segs, err := segFormat.List(dir)
	if err != nil {
		return stats, nil, err
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
		var off int64
		if seg.Seq == from.Seg {
			off = from.Off
		}
		path := segFormat.Path(dir, seg.Seq)
		sc, err := segFormat.Walk(path, off, func(o int64, p []byte) error {
			rec, err := decodePayload(p)
			if err != nil {
				return seglog.Corrupt(err)
			}
			stats.Records++
			stats.Snapshots += len(rec.Snaps)
			if fn == nil {
				return nil
			}
			return fn(Position{Seg: seg.Seq, Off: o + seglog.FrameSize + int64(len(p))}, rec)
		})
		if err != nil {
			return stats, reps, fmt.Errorf("wal: %w", err)
		}
		rep := seglog.Report{Seq: seg.Seq, Scan: sc}
		stats.CorruptFrames += len(sc.Bad)
		if sc.NeedsCut() && !stats.Truncated {
			stats.Truncated, stats.TruncatedAt = true, Position{Seg: seg.Seq, Off: sc.Intact}
		}
		if cut && sc.NeedsCut() {
			if rep.Quarantined, err = segFormat.Cut(path, sc); err != nil {
				return stats, reps, fmt.Errorf("wal: %w", err)
			}
			rep.Repaired = true
		}
		reps = append(reps, rep)
	}
	return stats, reps, nil
}

// VerifyDir walks every segment in dir, decoding every record, and
// returns their reports, oldest first. It changes nothing on disk.
func VerifyDir(dir string) ([]seglog.Report, error) {
	_, reps, err := walk(dir, Position{}, nil, false)
	return reps, err
}

// TruncateAtCorruption cuts every segment in dir that does not end on
// an intact frame after its last one, quarantining one whose header is
// unusable, so later scans end cleanly. Bad frames with intact ones
// behind them stay: copying around them is scrub's job. It returns the
// reports of the segments it cut.
func TruncateAtCorruption(dir string) ([]seglog.Report, error) {
	_, reps, err := walk(dir, Position{}, nil, true)
	return slices.DeleteFunc(reps, func(r seglog.Report) bool { return !r.Repaired }), err
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
