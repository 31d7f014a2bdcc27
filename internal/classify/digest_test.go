package classify

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/testbed"
	"repro/internal/workload"
)

var updateDigest = flag.Bool("update-digest", false, "rewrite testdata/kernel_digest.txt from the current kernel")

const kernelDigestFile = "testdata/kernel_digest.txt"

// kernelDigest classifies every snapshot of the Table 3 and extension
// traces through the fused kernel of the testbed models of seeds 1–3
// and returns one line per open-set threshold and one per trace. A
// trace line carries its snapshot count and the SHA-256 of its
// (class ID, kth-distance bits) sequence, so any change to a
// neighbour, a vote or a distance bit changes the line.
func kernelDigest(t *testing.T) []string {
	t.Helper()
	var lines []string
	for seed := int64(1); seed <= 3; seed++ {
		var runs []TrainingRun
		for _, e := range workload.TrainingSet() {
			res, err := testbed.ProfileEntry(e, seed)
			if err != nil {
				t.Fatalf("seed %d: profile %s: %v", seed, e.Name, err)
			}
			runs = append(runs, TrainingRun{Class: e.Expected, Trace: res.Trace})
		}
		cl, err := Train(runs, Config{})
		if err != nil {
			t.Fatalf("seed %d: train: %v", seed, err)
		}
		os, err := cl.CalibrateOpenSet(OpenSetConfig{})
		if err != nil {
			t.Fatalf("seed %d: calibrate: %v", seed, err)
		}
		for id, c := range cl.classes {
			lines = append(lines, fmt.Sprintf("seed %d threshold %d %s %016x",
				seed, id, c, math.Float64bits(os.Threshold(id))))
		}
		// Traces are profiled one seed after the model, as Table 3
		// profiles its test runs.
		entries := append(workload.TestSet(), workload.ExtendedSet()...)
		for _, e := range entries {
			res, err := testbed.ProfileEntry(e, seed+1)
			if err != nil {
				t.Fatalf("seed %d: profile %s: %v", seed, e.Name, err)
			}
			idx, err := cl.GatherIndices(res.Trace.Schema())
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			var s Scratch
			var rec [12]byte
			for i := 0; i < res.Trace.Len(); i++ {
				id, dist, err := cl.classifySnapshotIDDist(idx, res.Trace.At(i).Values, &s)
				if err != nil {
					t.Fatalf("seed %d %s snapshot %d: %v", seed, e.Name, i, err)
				}
				binary.LittleEndian.PutUint32(rec[:4], uint32(id))
				binary.LittleEndian.PutUint64(rec[4:], math.Float64bits(dist))
				h.Write(rec[:])
			}
			lines = append(lines, fmt.Sprintf("seed %d trace %s %d %x",
				seed, e.Name, res.Trace.Len(), h.Sum(nil)))
		}
	}
	return lines
}

// TestKernelDigest pins the classification kernel bit for bit: the
// committed digest was generated before the grid index was rebuilt
// (flat cells, squared-distance prefilter), and every class, every
// kth-neighbour distance and every open-set threshold must still
// match it. Regenerate with -update-digest only for a change meant to
// move results.
func TestKernelDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("profiles 48 testbed traces")
	}
	got := kernelDigest(t)
	if *updateDigest {
		body := "# Fused-kernel digest of the testbed models of seeds 1-3; see TestKernelDigest.\n" +
			strings.Join(got, "\n") + "\n"
		if err := os.MkdirAll(filepath.Dir(kernelDigestFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(kernelDigestFile, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(kernelDigestFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := sc.Text(); line != "" && !strings.HasPrefix(line, "#") {
			want = append(want, line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("digest has %d lines, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("digest line %d:\n got  %s\n want %s", i+1, got[i], want[i])
		}
	}
}
