package wal

import (
	"os"
	"testing"
	"time"
)

func TestCheckpointSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	cp, err := LatestCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if cp != nil {
		t.Fatalf("empty dir yielded checkpoint %+v", cp)
	}

	at := time.Unix(1700000000, 123)
	seq, err := SaveCheckpoint(dir, Position{Seg: 3, Off: 4096}, at, "", []byte(`{"sessions":[]}`))
	if err != nil {
		t.Fatal(err)
	}
	if seq != 1 {
		t.Errorf("first checkpoint seq = %d, want 1", seq)
	}
	cp, err = LatestCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if cp == nil || cp.Seq != 1 || cp.Pos != (Position{Seg: 3, Off: 4096}) || !cp.TakenAt().Equal(at) {
		t.Fatalf("loaded checkpoint = %+v", cp)
	}
	if string(cp.Payload) != `{"sessions":[]}` {
		t.Errorf("payload = %s", cp.Payload)
	}
}

func TestCheckpointPruningKeepsTwo(t *testing.T) {
	dir := t.TempDir()
	for i := 0; i < 5; i++ {
		if _, err := SaveCheckpoint(dir, Position{Seg: uint64(i + 1)}, time.Unix(int64(i), 0), "", []byte(`{}`)); err != nil {
			t.Fatal(err)
		}
	}
	seqs, err := listCheckpoints(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) != checkpointsToKeep {
		t.Fatalf("checkpoints on disk = %v, want %d newest", seqs, checkpointsToKeep)
	}
	cp, err := LatestCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if cp == nil || cp.Seq != 5 || cp.Pos.Seg != 5 {
		t.Errorf("latest = %+v, want seq 5", cp)
	}
}

func TestCorruptLatestFallsBackToPrevious(t *testing.T) {
	dir := t.TempDir()
	if _, err := SaveCheckpoint(dir, Position{Seg: 1, Off: 10}, time.Unix(1, 0), "", []byte(`{}`)); err != nil {
		t.Fatal(err)
	}
	if _, err := SaveCheckpoint(dir, Position{Seg: 2, Off: 20}, time.Unix(2, 0), "", []byte(`{}`)); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(checkpointNames.Path(dir, 2), []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	cp, err := LatestCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if cp == nil || cp.Seq != 1 || cp.Pos.Seg != 1 {
		t.Errorf("fallback checkpoint = %+v, want seq 1", cp)
	}
}
