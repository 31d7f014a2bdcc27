package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/appclass"
	"repro/internal/appdb"
	"repro/internal/appstore"
	"repro/internal/phase"
)

// writeFingerprintDB builds a database with two fingerprinted runs: a
// plain CPU run and an adversarial run that matched it with an UNKNOWN
// verdict.
func writeFingerprintDB(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "appdb")
	db, err := appdb.Open(path, appstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	cpuPhases := []phase.Phase{{
		Class: appclass.CPU, Start: 0, End: 600 * time.Second, Snapshots: 120,
		Composition: map[appclass.Class]float64{appclass.CPU: 1},
		Centroid:    []float64{1, 0},
	}}
	cpuFP := phase.NewFingerprint(cpuPhases)
	if err := db.Put(appdb.Record{
		App: "seis", Class: appclass.CPU,
		Composition:   map[appclass.Class]float64{appclass.CPU: 1},
		ExecutionTime: 600 * time.Second, Samples: 120,
		Phases: cpuPhases, Fingerprint: &cpuFP,
	}); err != nil {
		t.Fatal(err)
	}
	mimicFP := phase.NewFingerprint(cpuPhases)
	if err := db.Put(appdb.Record{
		App: "mimic", Class: appclass.CPU,
		Composition:   map[appclass.Class]float64{appclass.CPU: 1},
		ExecutionTime: 300 * time.Second, Samples: 60,
		Phases: cpuPhases, Fingerprint: &mimicFP,
		MatchedApp: "seis", MatchScore: 0.75,
		Verdict: appclass.Unknown, UnknownFraction: 0.8,
	}); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestFingerprints(t *testing.T) {
	path := writeFingerprintDB(t)
	var out bytes.Buffer
	if err := run("fingerprints", []string{path}, &out); err != nil {
		t.Fatalf("fingerprints: %v", err)
	}
	got := out.String()
	for _, want := range []string{
		"seis", "cpu:1.00",
		"mimic", "(matched seis, score 0.75)", "[UNKNOWN verdict]",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("fingerprints output missing %q:\n%s", want, got)
		}
	}
}

func TestFingerprintsEmpty(t *testing.T) {
	path := writeTestDB(t) // no fingerprinted runs
	var out bytes.Buffer
	if err := run("fingerprints", []string{path}, &out); err != nil {
		t.Fatalf("fingerprints: %v", err)
	}
	if !strings.Contains(out.String(), "no fingerprinted runs") {
		t.Errorf("fingerprints on a fingerprint-free database:\n%s", out.String())
	}
}
