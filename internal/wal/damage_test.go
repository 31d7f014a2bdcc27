package wal

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/seglog"
)

// frameAt locates one record's frame in a journal.
type frameAt struct {
	Seg        uint64
	Start, End int64
	Last       bool // the last frame of its segment
}

// delivered is one record a walk handed out, at the position just past it.
type delivered struct {
	Pos Position
	Rec Record
}

// twoSegmentJournal writes a sealed segment of five records and a
// second segment of three, and returns the directory and every frame.
func twoSegmentJournal(t *testing.T) (string, []frameAt) {
	t.Helper()
	dir := t.TempDir()
	j, err := Open(Config{Dir: dir, Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	var frames []frameAt
	for i := 0; i < 8; i++ {
		if i == 5 {
			if err := j.Rotate(); err != nil {
				t.Fatal(err)
			}
		}
		start := j.Pos()
		pos, err := j.AppendBatch("vm", testSnaps("vm", 2, 3, float64(10*i)))
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, frameAt{Seg: pos.Seg, Start: start.Off, End: pos.Off, Last: i == 4 || i == 7})
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	return dir, frames
}

// copyJournal copies every file of a journal directory into a fresh one.
func copyJournal(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// collect runs one walk, Replay's or Recover's, and returns what it
// delivered.
func collect(t *testing.T, walk func(func(Position, Record) error) (ReplayStats, error)) ([]delivered, ReplayStats) {
	t.Helper()
	var got []delivered
	st, err := walk(func(pos Position, rec Record) error {
		got = append(got, delivered{pos, rec})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return got, st
}

func replayDir(dir string) func(func(Position, Record) error) (ReplayStats, error) {
	return func(fn func(Position, Record) error) (ReplayStats, error) { return Replay(dir, Position{}, fn) }
}

func records(ds []delivered) []Record {
	out := make([]Record, len(ds))
	for i, d := range ds {
		out[i] = d.Rec
	}
	return out
}

// rewriteFrame replaces the payload of the frame at start in the
// segment at path with what edit makes of it, framed with a valid CRC
// unless keepCRC is set.
func rewriteFrame(t *testing.T, path string, start int64, keepCRC bool, edit func(p []byte)) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	payload, _, err := seglog.NextFrame(b[start:], maxPayload)
	if err != nil {
		t.Fatal(err)
	}
	p := slices.Clone(payload)
	edit(p)
	frame, at := seglog.BeginFrame(nil)
	frame = seglog.EndFrame(append(frame, p...), at)
	if keepCRC {
		copy(frame[4:seglog.FrameSize], b[start+4:])
	}
	copy(b[start:], frame)
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestFlippedFrameCostsOneRecord flips one payload byte in each frame
// of a two-segment journal in turn. Every walk must step over that
// frame alone: Replay before recovery, Recover, a second Recover, and
// Replay after an offline scrub repair all deliver every other record,
// the walks at its original position, and count one corrupt frame.
// Recovery cuts nothing unless the frame was its segment's last.
func TestFlippedFrameCostsOneRecord(t *testing.T) {
	src, frames := twoSegmentJournal(t)
	all, _ := collect(t, replayDir(src))
	if len(all) != len(frames) {
		t.Fatalf("pristine journal replays %d records, want %d", len(all), len(frames))
	}
	sizes := map[uint64]int64{}
	for _, fr := range frames {
		sizes[fr.Seg] = fr.End
	}
	for k, fr := range frames {
		t.Run(fmt.Sprint("frame", k), func(t *testing.T) {
			dir := copyJournal(t, src)
			path := segFormat.Path(dir, fr.Seg)
			rewriteFrame(t, path, fr.Start, true, func(p []byte) { p[1] ^= 0x40 })
			want := slices.Delete(slices.Clone(all), k, k+1)
			scrubbed := copyJournal(t, dir)

			got, st := collect(t, replayDir(dir))
			if !reflect.DeepEqual(got, want) || st.CorruptFrames != 1 || st.Truncated != fr.Last {
				t.Fatalf("replay delivered %d of %d records (stats %+v), want all but record %d, one corrupt frame",
					len(got), len(frames), st, k)
			}

			j, err := Open(Config{Dir: dir, Fsync: FsyncNever})
			if err != nil {
				t.Fatal(err)
			}
			defer j.Close()
			got, st = collect(t, func(fn func(Position, Record) error) (ReplayStats, error) { return j.Recover(Position{}, fn) })
			if !reflect.DeepEqual(got, want) || st.CorruptFrames != 1 || st.Truncated != fr.Last {
				t.Fatalf("recovery delivered %d of %d records (stats %+v), want all but record %d, one corrupt frame",
					len(got), len(frames), st, k)
			}
			wantSize := sizes[fr.Seg]
			if fr.Last {
				wantSize = fr.Start
			}
			if fi, err := os.Stat(path); err != nil {
				t.Fatal(err)
			} else if fi.Size() != wantSize {
				t.Fatalf("segment %d after recovery holds %d bytes, want %d", fr.Seg, fi.Size(), wantSize)
			}
			got, st = collect(t, func(fn func(Position, Record) error) (ReplayStats, error) { return j.Recover(Position{}, fn) })
			if !reflect.DeepEqual(got, want) || st.Truncated {
				t.Fatalf("second recovery delivered %d records (stats %+v), want the first's %d and no cut", len(got), st, len(want))
			}

			if _, err := ScrubDir(scrubbed, true); err != nil {
				t.Fatal(err)
			}
			got, st = collect(t, replayDir(scrubbed))
			if !reflect.DeepEqual(records(got), records(want)) || st.CorruptFrames != 0 || st.Truncated {
				t.Fatalf("replay after scrub repair delivered %d records (stats %+v), want %d", len(got), st, len(want))
			}
		})
	}
}

// TestUndecodableFrameCostsOneRecord: a CRC-valid frame of a record
// kind this build does not know, as a newer build might write, costs
// recovery that record only.
func TestUndecodableFrameCostsOneRecord(t *testing.T) {
	dir, frames := twoSegmentJournal(t)
	all, _ := collect(t, replayDir(dir))
	rewriteFrame(t, segFormat.Path(dir, frames[1].Seg), frames[1].Start, false, func(p []byte) { p[0] = 9 })
	j, err := Open(Config{Dir: dir, Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	got, st := collect(t, func(fn func(Position, Record) error) (ReplayStats, error) { return j.Recover(Position{}, fn) })
	if want := slices.Delete(all, 1, 2); !reflect.DeepEqual(got, want) || st.CorruptFrames != 1 || st.Truncated {
		t.Fatalf("recovery delivered %d records (stats %+v), want %d, one corrupt frame and no cut", len(got), st, len(want))
	}
}

// TestRetentionRemovesQuarantineFiles: a scrub repair leaves its
// segment's damaged original as a .corrupt file, and retention removes
// it with the segment once three checkpoints across rotations move past
// it; a quarantine file at or above the floor stays.
func TestRetentionRemovesQuarantineFiles(t *testing.T) {
	dir, frames := twoSegmentJournal(t)
	rewriteFrame(t, segFormat.Path(dir, 1), frames[1].Start, true, func(p []byte) { p[1] ^= 0x40 })
	if reps, err := ScrubDir(dir, true); err != nil || len(damaged(reps)) != 1 || !damaged(reps)[0].Repaired {
		t.Fatalf("scrub = %+v (err %v), want segment 1 repaired", reps, err)
	}
	q1 := quarantineNames.Path(dir, 1)
	if _, err := os.Stat(q1); err != nil {
		t.Fatalf("repair left no quarantine file: %v", err)
	}
	j, err := Open(Config{Dir: dir, Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	// A quarantine file well above any floor this test reaches.
	q9 := quarantineNames.Path(dir, 9)
	if err := os.WriteFile(q9, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := j.AppendBatch("vm", testSnaps("vm", 1, 3, 0)); err != nil {
			t.Fatal(err)
		}
		pos := j.Pos()
		if _, err := SaveCheckpoint(dir, pos, time.Now(), "", json.RawMessage(`{}`)); err != nil {
			t.Fatal(err)
		}
		j.SetRetainFloor(pos.Seg)
		if err := j.Rotate(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := os.Stat(q1); !os.IsNotExist(err) {
		t.Errorf("%s outlived its segment (stat err %v)", filepath.Base(q1), err)
	}
	if _, err := os.Stat(segFormat.Path(dir, 1)); !os.IsNotExist(err) {
		t.Errorf("segment 1 not trimmed (stat err %v)", err)
	}
	if _, err := os.Stat(q9); err != nil {
		t.Errorf("quarantine file above the floor removed: %v", err)
	}
}
