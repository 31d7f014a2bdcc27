package appstore

import (
	"strconv"
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

// FuzzParseFilter feeds arbitrary run-query parameters to ParseFilter:
// it never panics, every time it accepts lies inside the span of int64
// nanoseconds, and an accepted unix-seconds value round-trips.
func FuzzParseFilter(f *testing.F) {
	for _, seed := range [][4]string{
		{"cpu", "unknown", "3500", ""},
		{"", "", "1677-09-21T00:12:44Z", "2262-04-11T23:47:16Z"},
		{"", "", "-9223372036", "9223372036"},
		{"", "", "-9223372037", "9223372037"},
		{"", "", "10000000000", "2300-01-01T00:00:00Z"},
		{"bogus", "io", "", ""},
		{"", "", "2026-01-01T00:00:00+14:00", "-0"},
	} {
		f.Add(seed[0], seed[1], seed[2], seed[3])
	}
	f.Fuzz(func(t *testing.T, class, verdict, since, until string) {
		q := map[string]string{"app": "a", "class": class, "verdict": verdict, "model": "m", "since": since, "until": until}
		flt, err := ParseFilter(func(k string) string { return q[k] })
		if err != nil {
			return
		}
		for _, b := range []struct {
			in string
			ns int64
		}{{since, flt.Since}, {until, flt.Until}} {
			if b.in == "" {
				if b.ns != 0 {
					t.Fatalf("absent bound parsed to %d", b.ns)
				}
				continue
			}
			at := time.Unix(0, b.ns)
			if at.Before(minRunTime) || at.After(maxRunTime) {
				t.Fatalf("%q parsed to %d, outside the span", b.in, b.ns)
			}
			if secs, err := strconv.ParseInt(b.in, 10, 64); err == nil {
				if b.ns != secs*int64(time.Second) || at.Unix() != secs {
					t.Fatalf("%q parsed to %d ns, want %d s", b.in, b.ns, secs)
				}
			}
		}
	})
}
