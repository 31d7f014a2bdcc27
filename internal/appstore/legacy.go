package appstore

import (
	"encoding/json"
	"fmt"
	"os"
)

// legacyDoc is the legacy JSON appdb file format ({"records": [...]}),
// what the in-memory engine saved before the segmented store existed.
// Open converts such a file in place, one way.
type legacyDoc struct {
	Records []Record `json:"records"`
}

// loadLegacy reads a legacy JSON appdb file, validating every record.
func loadLegacy(path string) ([]Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("open %s: %w", path, err)
	}
	defer f.Close()
	var doc legacyDoc
	if err := json.NewDecoder(f).Decode(&doc); err != nil {
		return nil, fmt.Errorf("decode %s: %w", path, err)
	}
	for i, r := range doc.Records {
		if err := r.Validate(); err != nil {
			return nil, fmt.Errorf("record %d: %w", i, err)
		}
	}
	return doc.Records, nil
}
