package wal

import (
	"bytes"
	"encoding/json"
	"math"
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
	seq, err := SaveCheckpoint(dir, Position{Seg: 3, Off: 4096}, at, "", json.RawMessage(`{"sessions":[]}`))
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
		if _, err := SaveCheckpoint(dir, Position{Seg: uint64(i + 1)}, time.Unix(int64(i), 0), "", json.RawMessage(`{}`)); err != nil {
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
	if _, err := SaveCheckpoint(dir, Position{Seg: 1, Off: 10}, time.Unix(1, 0), "", json.RawMessage(`{}`)); err != nil {
		t.Fatal(err)
	}
	if _, err := SaveCheckpoint(dir, Position{Seg: 2, Off: 20}, time.Unix(2, 0), "", json.RawMessage(`{}`)); err != nil {
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

// TestSaveCheckpointBytesUnchanged pins the checkpoint file format:
// SaveCheckpoint writes the payload json.Marshal gave it between the
// envelope's bytes, and the file is exactly json.Marshal of a
// Checkpoint whose Payload is that payload. So a checkpoint written
// either way recovers under code that writes the other.
func TestSaveCheckpointBytesUnchanged(t *testing.T) {
	type state struct {
		VM     string             `json:"vm"`
		Note   string             `json:"note"`
		Values []float64          `json:"values"`
		Extra  json.RawMessage    `json:"extra"`
		Counts map[string]float64 `json:"counts"`
	}
	payloads := map[string]any{
		"value": struct {
			Sessions []state `json:"sessions"`
		}{Sessions: []state{{
			VM:   "vm-<a>&b",
			Note: "naïve – 日本語 \u2028 \u2029 ✓ \x7f \"quoted\" \\ \t",
			Values: []float64{0, math.Copysign(0, -1), 0.1, 1e-7, 1e-6, 1e20, 1e21, -1.5e-300,
				math.MaxFloat64, math.SmallestNonzeroFloat64, float64(1 << 53)},
			Extra:  json.RawMessage(` { "spaced" : [ 1 , 2 ] , "html" : "<&>" } `),
			Counts: map[string]float64{"z": 1, "a": 2, "é": 3},
		}}},
		"raw message": json.RawMessage(` {"sessions" : [ ] } `),
		"nil":         nil,
	}
	for name, payload := range payloads {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			at := time.Unix(1700000000, 123)
			pos := Position{Seg: 7, Off: 4242}
			inner, err := json.Marshal(payload)
			if err != nil {
				t.Fatal(err)
			}
			seq, err := SaveCheckpoint(dir, pos, at, "cafe0123", inner)
			if err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(checkpointNames.Path(dir, seq))
			if err != nil {
				t.Fatal(err)
			}
			want, err := json.Marshal(Checkpoint{
				Seq:           seq,
				Pos:           pos,
				TakenAtUnixNS: at.UnixNano(),
				ModelHash:     "cafe0123",
				Payload:       json.RawMessage(inner),
			})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("checkpoint bytes changed:\n got %s\nwant %s", got, want)
			}
			cp, err := LatestCheckpoint(dir)
			if err != nil || cp == nil {
				t.Fatalf("LatestCheckpoint = %+v, %v", cp, err)
			}
			if cp.Seq != seq || cp.Pos != pos || cp.TakenAtUnixNS != at.UnixNano() || cp.ModelHash != "cafe0123" ||
				!bytes.Equal(cp.Payload, inner) {
				t.Fatalf("read back %+v (payload %s), want payload %s", cp, cp.Payload, inner)
			}
		})
	}
}
