package wal

import (
	"encoding/hex"
	"fmt"
	"os"
	"slices"

	"repro/internal/seglog"
)

// ReplayStats summarizes one walk over the journal.
type ReplayStats struct {
	// Records is how many valid records were delivered.
	Records int
	// Snapshots is the total snapshot count across delivered batches.
	Snapshots int
	// Truncated reports that a segment ended in a torn or corrupt
	// record, or had an unusable header: Replay stopped cleanly at the
	// last valid record, Journal.Recover cut the segment there and went
	// on.
	Truncated bool
	// TruncatedAt is where the first torn segment's valid records end.
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
// the record). Scanning a segment stops cleanly at the first torn or
// corrupt record: the partial record is dropped, no error is returned,
// and ReplayStats.Truncated is set. A torn record in a non-final
// segment also stops the whole replay — later records cannot be
// trusted to belong to the stream — which Replay reports the same way.
// fn returning an error aborts the replay with that error. Replay
// changes nothing on disk.
func Replay(dir string, from Position, fn func(pos Position, rec Record) error) (ReplayStats, error) {
	stats, _, err := walk(dir, from, fn, nil)
	return stats, err
}

// Recover is recovery's one walk over the journal: Replay from `from`,
// except that a torn segment does not end it. The segment is cut back
// to its last whole record, or removed when its header is unusable, and
// the walk goes on with the next one. Each cut is applied to the
// journal's segment list as it is made, so Stats and retention always
// count what is on disk. A removed segment was on disk when the walk
// reached it, so it is no gap. Recover must not race appends.
func (j *Journal) Recover(from Position, fn func(pos Position, rec Record) error) (ReplayStats, error) {
	stats, _, err := walk(j.cfg.Dir, from, fn, func(rep *seglog.Report) error {
		j.mu.Lock()
		defer j.mu.Unlock()
		i := slices.IndexFunc(j.closed, func(s seglog.Seg) bool { return s.Seq == rep.Seq })
		if i < 0 {
			return fmt.Errorf("wal: torn segment %d is not a sealed segment of this journal", rep.Seq)
		}
		if err := cutSegment(j.cfg.Dir, rep); err != nil {
			return err
		}
		if rep.End == 0 {
			j.closed = slices.Delete(j.closed, i, i+1)
		} else {
			j.closed[i].Size = rep.End
		}
		j.cfg.Logf("wal: recovery cut torn segment %d to %d byte(s): %s", rep.Seq, rep.End, rep.Reason)
		return nil
	})
	return stats, err
}

// walk is the one pass over a journal directory behind Replay, Recover,
// VerifyDir and TruncateAtCorruption. Each segment at or after from.Seg
// is walked once, segment from.Seg from offset from.Off, decoding every
// record and passing it to fn, when non-nil, with the position just
// past it; an undecodable payload is torn like a CRC mismatch. A torn
// segment ends the walk when cut is nil; otherwise cut gets its report
// and the walk goes on with the next segment. It returns the report of
// every segment walked.
func walk(dir string, from Position, fn func(Position, Record) error, cut func(*seglog.Report) error) (stats ReplayStats, reps []seglog.Report, err error) {
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
		sc, err := segFormat.Walk(segFormat.Path(dir, seg.Seq), off, false, func(o int64, p []byte) error {
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
		reps = append(reps, seglog.Report{Seq: seg.Seq, Scan: sc})
		if !sc.Torn {
			continue
		}
		if !stats.Truncated {
			stats.Truncated, stats.TruncatedAt = true, Position{Seg: seg.Seq, Off: sc.End}
		}
		if cut == nil {
			break
		}
		if err := cut(&reps[len(reps)-1]); err != nil {
			return stats, reps, err
		}
	}
	return stats, reps, nil
}

// cutSegment cuts the torn segment rep describes back to its last whole
// record, or removes it when its header is unusable (End 0).
func cutSegment(dir string, rep *seglog.Report) error {
	path := segFormat.Path(dir, rep.Seq)
	if rep.End == 0 {
		if err := os.Remove(path); err != nil {
			return fmt.Errorf("wal: remove headerless segment %s: %w", path, err)
		}
	} else if err := os.Truncate(path, rep.End); err != nil {
		return fmt.Errorf("wal: truncate %s at %d: %w", path, rep.End, err)
	}
	rep.Repaired = true
	return nil
}

// VerifyDir walks every segment in dir, decoding every record, and
// returns their reports, oldest first. It changes nothing on disk.
func VerifyDir(dir string) ([]seglog.Report, error) {
	_, reps, err := walk(dir, Position{}, nil, func(*seglog.Report) error { return nil })
	return reps, err
}

// TruncateAtCorruption cuts every torn segment in dir back to its last
// valid record, removing one whose header is unusable, so later scans
// are clean. It returns the reports of the segments it cut.
func TruncateAtCorruption(dir string) ([]seglog.Report, error) {
	_, reps, err := walk(dir, Position{}, nil, func(rep *seglog.Report) error { return cutSegment(dir, rep) })
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
