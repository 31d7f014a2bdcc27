package appstore

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/seglog"
)

// Deletions never touch segment files: the set of dead sequence numbers
// lives in a small JSON sidecar rewritten atomically by
// seglog.WriteFile. A segment therefore stays immutable from creation until
// compaction physically drops its dead records, at which point the
// sidecar shrinks again.

const tombstonesName = "tombstones.json"

type tombstoneDoc struct {
	Dead []uint64 `json:"dead"`
}

// loadTombstones reads the sidecar; a missing file is an empty set.
func loadTombstones(dir string) (map[uint64]bool, error) {
	data, err := os.ReadFile(filepath.Join(dir, tombstonesName))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("appstore: read tombstones: %w", err)
	}
	var doc tombstoneDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("appstore: decode tombstones: %w", err)
	}
	out := make(map[uint64]bool, len(doc.Dead))
	for _, seq := range doc.Dead {
		out[seq] = true
	}
	return out, nil
}

// persistTombstonesLocked atomically rewrites the sidecar from the
// index's current dead set. Caller holds the write lock.
func (s *Store) persistTombstonesLocked() error {
	doc := tombstoneDoc{}
	for i := range s.entries {
		if s.entries[i].dead {
			doc.Dead = append(doc.Dead, s.entries[i].seq)
		}
	}
	path := filepath.Join(s.dir, tombstonesName)
	if len(doc.Dead) == 0 {
		if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("appstore: remove empty tombstones: %w", err)
		}
		return nil
	}
	data, err := json.Marshal(doc)
	if err != nil {
		return fmt.Errorf("appstore: encode tombstones: %w", err)
	}
	if err := seglog.WriteFile(path, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	}); err != nil {
		return fmt.Errorf("appstore: persist tombstones: %w", err)
	}
	return nil
}
