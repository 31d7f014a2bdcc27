package appstore

import (
	"testing"
	"time"

	"repro/internal/appclass"
	"repro/internal/phase"
)

// FuzzStoreDecode throws malformed payload bytes at the decoder: it
// must reject garbage with an error, never panic, and on valid input
// agree with the encoder.
func FuzzStoreDecode(f *testing.F) {
	// Seed with real encoded payloads of both kinds and
	// truncations/mutations of them.
	rec := testRecord("vm-fuzz", appclass.CPU, 3)
	rec.Fingerprint = testFingerprint()
	valid, err := appendRecordPayload(nil, 42, &rec)
	if err != nil {
		f.Fatal(err)
	}
	matched := pageRecord(4)
	page, err := appendRecordPayload(nil, 43, &matched)
	if err != nil {
		f.Fatal(err)
	}
	kind1, err := appendPayload(nil, kindRecord, 44, &matched)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(page)
	f.Add(page[:len(page)-len(page)/3])
	f.Add(kind1)
	f.Add([]byte{})
	f.Add([]byte{kindRecord})
	f.Add([]byte{kindPage})
	f.Add([]byte{0xFF, 0x00, 0x01})
	mutated := append([]byte(nil), valid...)
	mutated[10] ^= 0xFF
	f.Add(mutated)

	f.Fuzz(func(t *testing.T, data []byte) {
		m, body, err := decodeMeta(data, nil)
		if err != nil {
			return // malformed input rejected, as it should be
		}
		// Whatever decodeMeta accepts must re-encode losslessly enough to
		// satisfy basic sanity: bounded strings, body round-trip.
		if len(m.app) == 0 || len(m.app) > maxName || len(m.matched) > maxName {
			t.Fatalf("decodeMeta accepted app name of length %d, matched app of length %d", len(m.app), len(m.matched))
		}
		if m.page != (data[0] == kindPage) {
			t.Fatalf("kind %d decoded with page fields %v", data[0], m.page)
		}
		if len(body) > len(data) {
			t.Fatalf("body longer than input: %d > %d", len(body), len(data))
		}
		// decodeRecordPayload must not panic either; a JSON body that
		// fails to parse is an error, not a crash.
		_, _, _ = decodeRecordPayload(data)
	})
}

// TestDecodeEncodeRoundTrip pins the meta header codec: every field the
// index needs survives an encode/decode cycle, the page fields in kind
// 2 and not in kind 1.
func TestDecodeEncodeRoundTrip(t *testing.T) {
	rec := testRecord("vm-rt", appclass.Net, 9)
	rec.Fingerprint = testFingerprint()
	rec.Phases = []phase.Phase{{Class: appclass.Net}, {Class: appclass.IO}}
	rec.MatchedApp, rec.MatchScore, rec.UnknownFraction = "vm-other", 0.875, 0.125
	kind1, err := appendPayload(nil, kindRecord, 77, &rec)
	if err != nil {
		t.Fatal(err)
	}
	if m, _, err := decodeMeta(kind1, nil); err != nil || m.page || m.summary != "" || m.matched != "" || m.phases != 0 {
		t.Errorf("kind-1 header decoded page fields: %+v (err %v)", m, err)
	}
	payload, err := appendRecordPayload(nil, 77, &rec)
	if err != nil {
		t.Fatal(err)
	}
	m, got, err := decodeRecordPayload(payload)
	if err != nil {
		t.Fatal(err)
	}
	if m.seq != 77 || m.app != "vm-rt" || m.class != appclass.Net ||
		m.verdict != rec.Verdict || m.model != rec.ModelID ||
		m.at != rec.FinalizedAt || m.exec != rec.ExecutionTime ||
		m.samples != rec.Samples || !m.hasFP {
		t.Errorf("meta header mismatch: %+v", m)
	}
	if !m.page || m.unknown != 0.125 || m.phases != 2 || m.summary != rec.Fingerprint.String() ||
		m.matched != "vm-other" || m.score != 0.875 {
		t.Errorf("page fields mismatch: %+v", m)
	}
	if len(m.comp) != len(rec.Composition) {
		t.Errorf("meta composition has %d entries, want %d", len(m.comp), len(rec.Composition))
	}
	for _, c := range m.comp {
		if rec.Composition[c.class] != c.frac {
			t.Errorf("meta composition[%s] = %v, want %v", c.class, c.frac, rec.Composition[c.class])
		}
	}
	if got.App != rec.App || got.ExecutionTime != rec.ExecutionTime ||
		got.FinalizedAt != rec.FinalizedAt || got.Fingerprint == nil {
		t.Errorf("body mismatch: %+v", got)
	}
	if got.ExecutionTime != time.Duration(9+1)*time.Second {
		t.Errorf("ExecutionTime = %v", got.ExecutionTime)
	}
}
