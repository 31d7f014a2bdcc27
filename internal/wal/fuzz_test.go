package wal

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/seglog"
)

// encodeRecord re-encodes a decoded record's payload.
func encodeRecord(rec Record) ([]byte, error) {
	if rec.Type == RecordFinalize {
		return appendFinalizePayload(nil, rec.VM)
	}
	return appendBatchPayload(nil, rec.VM, rec.Snaps)
}

// FuzzJournalRecord throws arbitrary bytes at the record payload
// decoder: it must never panic, and every payload it accepts must
// re-encode to exactly the same bytes, so encode→decode round-trips.
func FuzzJournalRecord(f *testing.F) {
	batch, err := appendBatchPayload(nil, "vm-fuzz", testSnaps("vm-fuzz", 3, 4, 1))
	if err != nil {
		f.Fatal(err)
	}
	fin, err := appendFinalizePayload(nil, "vm-fuzz")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(batch)
	f.Add(batch[:len(batch)/2])
	f.Add(fin)
	f.Add([]byte{})
	f.Add([]byte{byte(RecordBatch), 1, 0, 'v', 1, 0, 0, 0, 0, 0x80})
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := decodePayload(data)
		if err != nil {
			return // malformed input rejected, as it should be
		}
		enc, err := encodeRecord(rec)
		if err != nil {
			t.Fatalf("decoded %+v does not re-encode: %v", rec, err)
		}
		if !bytes.Equal(enc, data) {
			t.Fatalf("re-encoding differs:\n in  %x\n out %x", data, enc)
		}
	})
}

// FuzzJournalRecover damages one segment of a three-segment journal —
// bytes overwritten from some offset, or the file cut there — and runs
// recovery's walk over it. The walk must not panic; every record it
// delivers must re-encode to the exact frame on disk before its
// position; afterwards the journal's stats must count the files on
// disk; and a second recovery must cut nothing and deliver the same
// records.
func FuzzJournalRecover(f *testing.F) {
	src := f.TempDir()
	j, err := Open(Config{Dir: src, Fsync: FsyncNever})
	if err != nil {
		f.Fatal(err)
	}
	for seg := 0; seg < 3; seg++ {
		for i := 0; i < 3; i++ {
			vm := string(rune('a' + i))
			if _, err := j.AppendBatch(vm, testSnaps(vm, 1+i, 3, float64(seg))); err != nil {
				f.Fatal(err)
			}
		}
		if _, err := j.AppendFinalize("a"); err != nil {
			f.Fatal(err)
		}
		if seg < 2 {
			if err := j.Rotate(); err != nil {
				f.Fatal(err)
			}
		}
	}
	if err := j.Close(); err != nil {
		f.Fatal(err)
	}
	var segs [3][]byte
	for i := range segs {
		if segs[i], err = os.ReadFile(segFormat.Path(src, uint64(i+1))); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(uint8(0), uint32(0), []byte{}, false)
	f.Add(uint8(1), uint32(headerSize+3), []byte{0xff}, false)
	f.Add(uint8(1), uint32(len(segs[1])-2), []byte{}, true)
	f.Add(uint8(2), uint32(5), []byte{}, true)
	f.Add(uint8(0), uint32(headerSize), []byte{0, 0, 0, 0}, false)
	f.Fuzz(func(t *testing.T, which uint8, off uint32, patch []byte, cut bool) {
		dir := t.TempDir()
		victim := int(which % 3)
		for i, b := range segs {
			if i == victim {
				b = bytes.Clone(b)
				at := int(off % uint32(len(b)+1))
				if cut {
					b = b[:at]
				} else {
					b = append(b, patch[copy(b[at:], patch):]...)
				}
			}
			if err := os.WriteFile(segFormat.Path(dir, uint64(i+1)), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		j, err := Open(Config{Dir: dir, Fsync: FsyncNever})
		if err != nil {
			t.Fatal(err)
		}
		defer j.Close()
		recoverOnce := func() ([][]byte, ReplayStats) {
			var frames [][]byte
			st, err := j.Recover(Position{}, func(pos Position, rec Record) error {
				enc, err := encodeRecord(rec)
				if err != nil {
					t.Fatalf("record at %+v does not re-encode: %v", pos, err)
				}
				frame, start := seglog.BeginFrame(nil)
				frame = seglog.EndFrame(append(frame, enc...), start)
				disk, err := os.ReadFile(segFormat.Path(dir, pos.Seg))
				if err != nil {
					t.Fatal(err)
				}
				if lo := pos.Off - int64(len(frame)); lo < 0 || pos.Off > int64(len(disk)) || !bytes.Equal(disk[lo:pos.Off], frame) {
					t.Fatalf("record at %+v re-encodes to a frame that is not on disk before it", pos)
				}
				frames = append(frames, frame)
				return nil
			})
			if err != nil {
				t.Fatalf("recover: %v", err)
			}
			return frames, st
		}
		first, _ := recoverOnce()
		files, err := filepath.Glob(filepath.Join(dir, "journal-*.wal"))
		if err != nil {
			t.Fatal(err)
		}
		var size int64
		for _, p := range files {
			fi, err := os.Stat(p)
			if err != nil {
				t.Fatal(err)
			}
			size += fi.Size()
		}
		if st := j.Stats(); st.Segments != len(files) || st.Bytes != size {
			t.Fatalf("after recovery Stats() = %d segment(s), %d bytes; disk has %d, %d", st.Segments, st.Bytes, len(files), size)
		}
		second, st := recoverOnce()
		if st.Truncated {
			t.Fatalf("second recovery cut again at %+v", st.TruncatedAt)
		}
		if !slices.EqualFunc(first, second, bytes.Equal) {
			t.Fatalf("second recovery delivered %d record(s), first %d, or different ones", len(second), len(first))
		}
	})
}
