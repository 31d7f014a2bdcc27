package wal

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"

	"repro/internal/seglog"
)

// Scrubbing proactively re-verifies sealed segments frame-by-frame, so
// latent corruption (bit rot, a bad sector, a partial page write that
// slipped past the rotation fsync) is found on the scrubber's schedule
// instead of at the next recovery, when the damaged record is the one
// replay needs. A damaged segment is repaired by copy-forward: the
// surviving frames are rewritten into a fresh file under the original
// name, and the damaged original is kept hard-linked as
// <segment>.corrupt for forensics — the same quarantine idiom the
// application store uses.
//
// Repair rewrites byte offsets after the first dropped frame, so it is
// only safe once no checkpoint still points into the damaged region.
// The live journal asks ScrubConfig.PreRepair to checkpoint first when
// the segment holds un-checkpointed records, and both the live journal
// and the offline ScrubDir then skip a repair while either kept
// checkpoint replays from past the first bad frame: recovery falls back
// to the older checkpoint when the newest is unreadable, and a shifted
// offset would make it skip records without a tear.

// checkFrame rejects a CRC-valid frame whose payload does not decode;
// the encoder wrote every frame, so only damage produces one.
func checkFrame(_ int64, p []byte) error {
	if _, err := decodePayload(p); err != nil {
		return seglog.Corrupt(err)
	}
	return nil
}

// ScrubConfig parameterizes one live-journal scrub pass.
type ScrubConfig struct {
	// MaxSegments caps how many sealed segments one call examines; the
	// journal keeps a cursor so successive calls cycle through all of
	// them. Zero means 1 — the low-rate default.
	MaxSegments int
	// PreRepair, when set, runs after damage is found and before the
	// repair rewrites the segment. uncheckpointed reports that the
	// segment holds records not yet covered by a checkpoint — the
	// caller must take one before the repair shifts offsets (the server
	// does exactly that). Returning an error skips the repair, as does
	// a kept checkpoint still replaying from past the first bad frame
	// once the hook has run; the damage is re-detected on a later pass.
	PreRepair func(seq uint64, uncheckpointed bool) error
}

// Scrub examines up to MaxSegments sealed segments for latent
// corruption, repairing damaged ones in place (quarantining the
// original as .corrupt), and returns a report per segment examined.
// The scan runs off the journal lock — sealed segments are immutable —
// and only the repair's metadata swap holds it, so appends are not
// stalled. The active segment is never scrubbed.
func (j *Journal) Scrub(cfg ScrubConfig) ([]seglog.Report, error) {
	return j.scrub(cfg.MaxSegments, nil, func(rep seglog.Report) error {
		j.mu.Lock()
		uncheckpointed := !j.retainSet || rep.Seq >= j.retainSeg
		j.mu.Unlock()
		if cfg.PreRepair != nil {
			if err := cfg.PreRepair(rep.Seq, uncheckpointed); err != nil {
				return err
			}
		} else if uncheckpointed {
			return errors.New("segment holds un-checkpointed records and no PreRepair hook is set")
		}
		return checkpointReplaysPast(j.cfg.Dir, rep.Seq, rep.Bad[0])
	})
}

// checkpointReplaysPast refuses a repair of segment seq whose first bad
// frame starts at bad when a kept checkpoint in dir replays from an
// offset past it, which the repair would shift. An unreadable
// checkpoint is no recovery's starting point and does not count.
func checkpointReplaysPast(dir string, seq uint64, bad int64) error {
	cps, err := listCheckpoints(dir)
	if err != nil {
		return err
	}
	for _, c := range cps {
		b, err := os.ReadFile(checkpointNames.Path(dir, c.Seq))
		if err != nil {
			continue
		}
		var cp struct {
			Pos Position `json:"pos"`
		}
		if json.Unmarshal(b, &cp) != nil {
			continue
		}
		if cp.Pos.Seg == seq && bad < cp.Pos.Off {
			return fmt.Errorf("checkpoint %d replays from offset %d, past the first bad frame at %d", c.Seq, cp.Pos.Off, bad)
		}
	}
	return nil
}

// scrub runs scrubSegment over the next n sealed segments from the
// cursor.
func (j *Journal) scrub(n int, check func(int64, []byte) error, preRepair func(seglog.Report) error) ([]seglog.Report, error) {
	j.mu.Lock()
	if j.done {
		j.mu.Unlock()
		return nil, fmt.Errorf("wal: journal is closed")
	}
	seqs := make([]uint64, len(j.closed))
	for i, s := range j.closed {
		seqs[i] = s.Seq
	}
	picks, next := seglog.Pick(seqs, j.scrubNext, n)
	j.scrubNext = next
	j.stats.ScrubScans += int64(len(picks))
	j.mu.Unlock()
	return seglog.ScrubEach(picks, func(seq uint64) (seglog.Report, error) {
		return j.scrubSegment(seq, check, preRepair)
	})
}

// scrubSegment is the one per-segment scrub decision, for the live
// journal and ScrubDir alike. It walks sealed segment seq stepping over
// bad frames; check, when non-nil, vets each CRC-good frame too. The
// CRC-only walk streams through one bounded buffer, cheap enough to run
// next to hot ingest, and a repair re-checks that every surviving
// payload decodes. A torn tail is only reported: a walk ends its
// segment cleanly there, and recovery or TruncateAtCorruption cuts it.
// Bad frames are copied around unless preRepair, the caller's
// checkpoint policy, refuses.
func (j *Journal) scrubSegment(seq uint64, check func(int64, []byte) error, preRepair func(seglog.Report) error) (seglog.Report, error) {
	path := segFormat.Path(j.cfg.Dir, seq)
	sc, err := segFormat.Walk(path, 0, check)
	if errors.Is(err, fs.ErrNotExist) {
		return seglog.Report{Seq: seq}, nil // pruned since the snapshot; not damage
	}
	rep := seglog.Report{Seq: seq, Scan: sc, Lost: len(sc.Bad)}
	if err != nil || !rep.Damaged() {
		return rep, err
	}
	if rep.Lost == 0 {
		rep.SkipReason = "torn tail is not repaired"
		j.cfg.Logf("wal: scrub found torn tail in sealed segment %d: %s", seq, rep.Reason)
		return rep, nil
	}
	j.cfg.Logf("wal: scrub found %d bad frame(s) in sealed segment %d (first at offset %d)", rep.Lost, seq, rep.Bad[0])
	if err := preRepair(rep); err != nil {
		rep.SkipReason = err.Error()
		j.cfg.Logf("wal: scrub skipping repair of segment %d: %v", seq, err)
		return rep, nil
	}
	// The swap holds j.mu so retention cannot prune the segment out from
	// under the rename.
	j.mu.Lock()
	defer j.mu.Unlock()
	idx := slices.IndexFunc(j.closed, func(s seglog.Seg) bool { return s.Seq == seq })
	if idx < 0 {
		return seglog.Report{Seq: seq}, nil // pruned while we scanned
	}
	sc, size, err := segFormat.Repair(path, checkFrame)
	if err != nil {
		rep.SkipReason = fmt.Sprintf("repair failed: %v", err)
		return rep, fmt.Errorf("wal: repair segment %d: %w", seq, err)
	}
	rep = seglog.Report{Seq: seq, Scan: sc, Repaired: true, Quarantined: path + ".corrupt", Lost: len(sc.Bad)}
	j.closed[idx].Size = size
	j.stats.ScrubRepairedSegments++
	j.stats.ScrubLostRecords += int64(rep.Lost)
	j.stats.ScrubQuarantined++
	j.cfg.Logf("wal: scrub repaired segment %d: dropped %d bad frame(s), kept %d record(s), quarantined original as %s",
		seq, rep.Lost, rep.Frames, filepath.Base(rep.Quarantined))
	return rep, nil
}

// ScrubDir scrubs every segment in a journal directory offline (the
// daemon must not have it open) through the live journal's per-segment
// decision, decoding every payload as well. With repair set, damaged
// segments are rewritten without their bad frames and the originals
// quarantined as .corrupt — except where a kept checkpoint still
// points into the region a repair would shift, which is reported and
// skipped. Without repair it is a pure report.
func ScrubDir(dir string, repair bool) ([]seglog.Report, error) {
	segs, err := segFormat.List(dir)
	if err != nil {
		return nil, err
	}
	// A journal with no active segment: the sealed list is all the
	// decision reads.
	j := &Journal{cfg: Config{Dir: dir, Logf: func(string, ...any) {}}, closed: segs}
	return j.scrub(len(segs), checkFrame, func(rep seglog.Report) error {
		if !repair {
			return errors.New("repair not requested")
		}
		return checkpointReplaysPast(dir, rep.Seq, rep.Bad[0])
	})
}
