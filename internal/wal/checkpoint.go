package wal

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"time"

	"repro/internal/seglog"
)

// Checkpoint is a durable snapshot of serving state (the server's
// serialized per-VM sessions) paired with the journal position it
// covers: recovery loads the newest readable checkpoint and replays
// the journal from Pos.
type Checkpoint struct {
	// Seq orders checkpoints; the highest readable one wins.
	Seq uint64 `json:"seq"`
	// Pos is the journal position the payload state covers: every
	// record at or before Pos is folded into Payload, every record
	// after it must be replayed.
	Pos Position `json:"pos"`
	// TakenAtUnixNS is when the checkpoint was captured.
	TakenAtUnixNS int64 `json:"taken_at_unix_ns"`
	// ModelHash is the hex compatibility hash of the model the payload
	// sessions were serialized under. Recovery refuses a checkpoint whose
	// hash differs from the loaded model's: the serialized drift
	// accumulators, phase segmentation, and open-set counts are only
	// meaningful under the model that produced them. Empty on
	// checkpoints written before model stamping.
	ModelHash string `json:"model_hash,omitempty"`
	// Payload is the caller-defined serialized state.
	Payload json.RawMessage `json:"payload"`
}

// TakenAt returns the capture time.
func (c Checkpoint) TakenAt() time.Time { return time.Unix(0, c.TakenAtUnixNS) }

// checkpointsToKeep is how many recent checkpoint files survive
// pruning: the newest plus one fallback in case the newest is
// unreadable (it is written atomically, so that means disk damage, not
// a crash mid-write).
const checkpointsToKeep = 2

// checkpointNames names checkpoint files checkpoint-%08d.ckpt.
var checkpointNames = seglog.Names{Prefix: "checkpoint-", Suffix: ".ckpt"}

// listCheckpoints returns the checkpoints in dir, oldest first; a
// missing directory has none.
func listCheckpoints(dir string) ([]seglog.Seg, error) {
	cps, err := checkpointNames.List(dir)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	return cps, err
}

// SaveCheckpoint atomically writes a new checkpoint covering pos into
// the journal directory (seglog.WriteFile: temp file, fsync, rename,
// directory fsync), then prunes all but the newest checkpointsToKeep
// files. modelHash is the hex compatibility hash of the model the
// payload was serialized under ("" to leave the checkpoint unstamped).
// payload is the caller's state as a value: it is JSON-encoded in the
// same pass as the envelope. Bytes already encoded go in as a
// json.RawMessage; a plain []byte would be encoded as a base64 string.
// It returns the new checkpoint's sequence.
func SaveCheckpoint(dir string, pos Position, takenAt time.Time, modelHash string, payload any) (uint64, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, fmt.Errorf("wal: create %s: %w", dir, err)
	}
	cps, err := listCheckpoints(dir)
	if err != nil {
		return 0, err
	}
	seq := uint64(1)
	if n := len(cps); n > 0 {
		seq = cps[n-1].Seq + 1
	}
	// The outer Payload shadows Checkpoint.Payload and is its last
	// field, so the document has Checkpoint's fields in Checkpoint's
	// order: the bytes a RawMessage of the encoded payload would give,
	// without compacting those bytes a second time.
	doc, err := json.Marshal(struct {
		Checkpoint
		Payload any `json:"payload"`
	}{Checkpoint{Seq: seq, Pos: pos, TakenAtUnixNS: takenAt.UnixNano(), ModelHash: modelHash}, payload})
	if err != nil {
		return 0, fmt.Errorf("wal: encode checkpoint: %w", err)
	}
	if err := seglog.WriteFile(checkpointNames.Path(dir, seq), func(w io.Writer) error {
		_, err := w.Write(doc)
		return err
	}); err != nil {
		return 0, fmt.Errorf("wal: save checkpoint: %w", err)
	}
	// Prune older checkpoints; failures here are cosmetic (stale files),
	// not correctness problems, so they do not fail the save.
	for i := 0; i+checkpointsToKeep <= len(cps); i++ {
		os.Remove(checkpointNames.Path(dir, cps[i].Seq))
	}
	return seq, nil
}

// LatestCheckpoint returns the newest readable checkpoint in dir, or
// nil if none exists. An unreadable newer checkpoint is skipped in
// favour of an older readable one.
func LatestCheckpoint(dir string) (*Checkpoint, error) {
	cps, err := listCheckpoints(dir)
	if err != nil {
		return nil, err
	}
	for i := len(cps) - 1; i >= 0; i-- {
		b, err := os.ReadFile(checkpointNames.Path(dir, cps[i].Seq))
		if err != nil {
			continue
		}
		var c Checkpoint
		if err := json.Unmarshal(b, &c); err != nil {
			continue
		}
		return &c, nil
	}
	return nil, nil
}
