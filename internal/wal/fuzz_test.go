package wal

import (
	"bytes"
	"testing"
)

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
		var enc []byte
		switch rec.Type {
		case RecordBatch:
			enc, err = appendBatchPayload(nil, rec.VM, rec.Snaps)
		case RecordFinalize:
			enc, err = appendFinalizePayload(nil, rec.VM)
		}
		if err != nil {
			t.Fatalf("decoded %+v does not re-encode: %v", rec, err)
		}
		if !bytes.Equal(enc, data) {
			t.Fatalf("re-encoding differs:\n in  %x\n out %x", data, enc)
		}
	})
}
