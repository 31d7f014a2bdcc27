package wal

import (
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func testHash(fill byte) [modelHashSize]byte {
	var h [modelHashSize]byte
	for i := range h {
		h[i] = fill
	}
	return h
}

func TestSegmentHeaderCarriesModelHash(t *testing.T) {
	dir := t.TempDir()
	j := openTestJournal(t, Config{Dir: dir, Fsync: FsyncNever})
	h := testHash(0xAB)
	if err := j.SetModelHash(h); err != nil {
		t.Fatalf("SetModelHash: %v", err)
	}
	if got := j.ModelHash(); got != h {
		t.Fatalf("ModelHash = %x, want %x", got, h)
	}
	if _, err := j.AppendBatch("vm-a", testSnaps("vm-a", 3, 4, 1)); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	infos, err := VerifyDir(dir)
	if err != nil {
		t.Fatalf("VerifyDir: %v", err)
	}
	if len(infos) != 1 {
		t.Fatalf("segments = %d, want 1 (empty stamped segment must be replaced in place, not rotated)", len(infos))
	}
	if infos[0].Header.Version != segmentVersion {
		t.Fatalf("segment version = %d, want %d", infos[0].Header.Version, segmentVersion)
	}
	if hex.EncodeToString(infos[0].Header.Extra) != hex.EncodeToString(h[:]) {
		t.Fatalf("segment hash = %x, want %x", infos[0].Header.Extra, h)
	}
	if infos[0].Frames != 1 {
		t.Fatalf("records = %d, want 1", infos[0].Frames)
	}
}

func TestSetModelHashRotatesNonEmptySegment(t *testing.T) {
	dir := t.TempDir()
	j := openTestJournal(t, Config{Dir: dir, Fsync: FsyncNever})
	h1, h2 := testHash(1), testHash(2)
	if err := j.SetModelHash(h1); err != nil {
		t.Fatal(err)
	}
	if _, err := j.AppendBatch("vm-a", testSnaps("vm-a", 2, 4, 1)); err != nil {
		t.Fatal(err)
	}
	// The active segment has records: a hash change must rotate so one
	// segment never mixes models.
	if err := j.SetModelHash(h2); err != nil {
		t.Fatal(err)
	}
	if err := j.SetModelHash(h2); err != nil { // no-op repeat
		t.Fatal(err)
	}
	if _, err := j.AppendBatch("vm-a", testSnaps("vm-a", 2, 4, 9)); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	hashes, err := SegmentHashes(dir, 0)
	if err != nil {
		t.Fatalf("SegmentHashes: %v", err)
	}
	if len(hashes) != 2 {
		t.Fatalf("segments = %v, want 2", hashes)
	}
	if hashes[1] != hex.EncodeToString(h1[:]) || hashes[2] != hex.EncodeToString(h2[:]) {
		t.Fatalf("hashes = %v, want seg1=%x seg2=%x", hashes, h1, h2)
	}

	// The from bound skips earlier segments.
	tail, err := SegmentHashes(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(tail) != 1 || tail[2] != hex.EncodeToString(h2[:]) {
		t.Fatalf("SegmentHashes(from=2) = %v", tail)
	}

	// Replay still walks both segments across the model boundary.
	var records int
	replay, err := Replay(dir, Position{}, func(pos Position, rec Record) error {
		records++
		return nil
	})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if records != 2 || replay.Truncated {
		t.Fatalf("replayed %d record(s), truncated=%v", records, replay.Truncated)
	}
}

// A v1 segment (8-byte header, written by older daemons) must still
// read: its version reports 1 and its model hash is empty.
func TestV1SegmentBackCompat(t *testing.T) {
	dir := t.TempDir()
	// Forge a v1 segment: old header followed by one valid record frame,
	// produced by writing through a v2 journal and surgically shrinking
	// the header.
	j := openTestJournal(t, Config{Dir: dir, Fsync: FsyncNever})
	if _, err := j.AppendBatch("vm-a", testSnaps("vm-a", 2, 4, 1)); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	path := segFormat.Path(dir, 1)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	v1 := make([]byte, 0, len(raw)-modelHashSize)
	v1 = append(v1, raw[:4]...) // magic
	var ver [4]byte
	binary.LittleEndian.PutUint32(ver[:], segmentVersionV1)
	v1 = append(v1, ver[:]...)
	v1 = append(v1, raw[headerSize:]...) // records, unchanged
	if err := os.WriteFile(path, v1, 0o644); err != nil {
		t.Fatal(err)
	}

	infos, err := VerifyDir(dir)
	if err != nil {
		t.Fatalf("VerifyDir: %v", err)
	}
	if len(infos) != 1 || infos[0].Header.Version != segmentVersionV1 || len(infos[0].Header.Extra) != 0 {
		t.Fatalf("v1 segment info = %+v", infos[0])
	}
	if infos[0].Torn || infos[0].Frames != 1 {
		t.Fatalf("v1 segment did not replay cleanly: %+v", infos[0])
	}
	hashes, err := SegmentHashes(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if h, ok := hashes[1]; !ok || h != "" {
		t.Fatalf("SegmentHashes on v1 = %v, want seg1 present with empty hash", hashes)
	}

	// And appending through a reopened journal continues at v2 in a new
	// segment without disturbing the v1 one.
	j2 := openTestJournal(t, Config{Dir: dir, Fsync: FsyncNever})
	if err := j2.SetModelHash(testHash(7)); err != nil {
		t.Fatal(err)
	}
	if _, err := j2.AppendBatch("vm-b", testSnaps("vm-b", 1, 4, 2)); err != nil {
		t.Fatal(err)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	var count int
	if _, err := Replay(dir, Position{}, func(Position, Record) error { count++; return nil }); err != nil {
		t.Fatalf("Replay across v1+v2: %v", err)
	}
	if count != 2 {
		t.Fatalf("replayed %d record(s) across v1+v2 segments, want 2", count)
	}
}

// A header torn mid-hash is reported torn, not misread, and
// SegmentHashes skips it.
func TestTornHeaderSegment(t *testing.T) {
	dir := t.TempDir()
	j := openTestJournal(t, Config{Dir: dir, Fsync: FsyncNever})
	if err := j.SetModelHash(testHash(3)); err != nil {
		t.Fatal(err)
	}
	if _, err := j.AppendBatch("vm-a", testSnaps("vm-a", 1, 4, 1)); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	path := segFormat.Path(dir, 1)
	if err := os.Truncate(path, headerPrefixSize+5); err != nil { // mid-hash
		t.Fatal(err)
	}
	infos, err := VerifyDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || !infos[0].Torn {
		t.Fatalf("torn-header segment not reported torn: %+v", infos)
	}
	hashes, err := SegmentHashes(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(hashes) != 0 {
		t.Fatalf("SegmentHashes included a torn-headed segment: %v", hashes)
	}
}

func TestCheckpointModelHashRoundtrip(t *testing.T) {
	dir := t.TempDir()
	at := time.Unix(1700000000, 0)
	hash := "deadbeef"
	if _, err := SaveCheckpoint(dir, Position{Seg: 2, Off: 99}, at, hash, json.RawMessage(`{"sessions":[]}`)); err != nil {
		t.Fatalf("SaveCheckpoint: %v", err)
	}
	cp, err := LatestCheckpoint(dir)
	if err != nil {
		t.Fatalf("LatestCheckpoint: %v", err)
	}
	if cp == nil || cp.ModelHash != hash {
		t.Fatalf("checkpoint ModelHash = %+v, want %q", cp, hash)
	}
	// Empty hash (legacy daemons) is preserved as empty, not invented.
	if _, err := SaveCheckpoint(dir, Position{Seg: 3}, at.Add(time.Second), "", json.RawMessage(`{}`)); err != nil {
		t.Fatal(err)
	}
	cp, err = LatestCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if cp.ModelHash != "" {
		t.Fatalf("legacy checkpoint hash = %q, want empty", cp.ModelHash)
	}
}

// TruncateAtCorruption must not delete a valid v1 segment just because
// its header is shorter than v2's.
func TestTruncateKeepsValidV1Segment(t *testing.T) {
	dir := t.TempDir()
	j := openTestJournal(t, Config{Dir: dir, Fsync: FsyncNever})
	if _, err := j.AppendBatch("vm-a", testSnaps("vm-a", 1, 4, 1)); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// Shrink to v1 form (empty v1 segment: header only).
	path := segFormat.Path(dir, 1)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	v1 := append([]byte{}, raw[:4]...)
	var ver [4]byte
	binary.LittleEndian.PutUint32(ver[:], segmentVersionV1)
	v1 = append(v1, ver[:]...)
	if err := os.WriteFile(path, v1, 0o644); err != nil {
		t.Fatal(err)
	}
	fixed, err := TruncateAtCorruption(dir)
	if err != nil {
		t.Fatalf("TruncateAtCorruption: %v", err)
	}
	if len(fixed) != 0 {
		t.Fatalf("valid empty v1 segment was modified: %+v", fixed)
	}
	if _, err := os.Stat(filepath.Join(dir, filepath.Base(path))); err != nil {
		t.Fatalf("valid v1 segment deleted: %v", err)
	}
}
