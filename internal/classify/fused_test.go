package classify

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/appclass"
	"repro/internal/metrics"
	"repro/internal/testbed"
	"repro/internal/workload"
)

// TestFusedMatchesStagedFeatures is the fused-kernel equivalence
// property: on randomized inputs the one-shot affine map must reproduce
// the staged normalize→center→project pipeline to within 1e-9 in every
// feature coordinate.
func TestFusedMatchesStagedFeatures(t *testing.T) {
	cl := trainSynthetic(t, Config{})
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 25; trial++ {
		c := appclass.All()[rng.Intn(len(appclass.All()))]
		tr := syntheticTrace(t, c, 40, rng.Int63())
		fused, err := cl.featuresOf(tr)
		if err != nil {
			t.Fatal(err)
		}
		staged, err := cl.stagedFeaturesOf(tr)
		if err != nil {
			t.Fatal(err)
		}
		if fused.Rows() != staged.Rows() || fused.Cols() != staged.Cols() {
			t.Fatalf("trial %d: fused %dx%d, staged %dx%d",
				trial, fused.Rows(), fused.Cols(), staged.Rows(), staged.Cols())
		}
		for i := 0; i < fused.Rows(); i++ {
			for j := 0; j < fused.Cols(); j++ {
				if d := math.Abs(fused.At(i, j) - staged.At(i, j)); d > 1e-9 {
					t.Fatalf("trial %d feature (%d,%d): fused %v staged %v (|Δ| = %g)",
						trial, i, j, fused.At(i, j), staged.At(i, j), d)
				}
			}
		}
	}
}

// stagedClassifyTrace classifies a trace through the retained staged
// pipeline plus the string-label k-NN vote — the pre-fusion code path,
// kept as the reference the fast path must agree with.
func stagedClassifyTrace(t *testing.T, cl *Classifier, tr *metrics.Trace) []appclass.Class {
	t.Helper()
	features, err := cl.stagedFeaturesOf(tr)
	if err != nil {
		t.Fatal(err)
	}
	labels, err := cl.nn.ClassifyBatch(features)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]appclass.Class, len(labels))
	for i, l := range labels {
		c, err := appclass.Parse(l)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = c
	}
	return out
}

// TestFusedMatchesStagedLabels requires identical per-snapshot labels
// from the fused and staged pipelines on randomized traces.
func TestFusedMatchesStagedLabels(t *testing.T) {
	cl := trainSynthetic(t, Config{})
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 10; trial++ {
		c := appclass.All()[rng.Intn(len(appclass.All()))]
		tr := syntheticTrace(t, c, 60, rng.Int63())
		res, err := cl.ClassifyTrace(tr)
		if err != nil {
			t.Fatal(err)
		}
		want := stagedClassifyTrace(t, cl, tr)
		for i := range want {
			if res.Snapshots[i] != want[i] {
				t.Fatalf("trial %d snapshot %d: fused %s, staged %s", trial, i, res.Snapshots[i], want[i])
			}
		}
	}
}

// TestFusedMatchesStagedOnTestbed replays every Table 3 test
// application and requires the fused path to assign the exact same
// label to every snapshot as the staged pipeline (so the dominant-class
// reproduction is unchanged by the optimization).
func TestFusedMatchesStagedOnTestbed(t *testing.T) {
	if testing.Short() {
		t.Skip("long integration test")
	}
	cl := trainFromTestbed(t, Config{})
	for _, e := range workload.TestSet() {
		res, err := testbed.ProfileEntry(e, 2)
		if err != nil {
			t.Fatalf("profile %s: %v", e.Name, err)
		}
		out, err := cl.ClassifyTrace(res.Trace)
		if err != nil {
			t.Fatalf("classify %s: %v", e.Name, err)
		}
		want := stagedClassifyTrace(t, cl, res.Trace)
		for i := range want {
			if out.Snapshots[i] != want[i] {
				t.Errorf("%s snapshot %d: fused %s, staged %s", e.Name, i, out.Snapshots[i], want[i])
			}
		}
	}
}

// TestClassifySnapshotScratchMatchesTrace cross-checks the single-shot
// scratch path against whole-trace classification.
func TestClassifySnapshotScratchMatchesTrace(t *testing.T) {
	cl := trainSynthetic(t, Config{})
	tr := syntheticTrace(t, appclass.IO, 50, 5)
	res, err := cl.ClassifyTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := cl.GatherIndices(tr.Schema())
	if err != nil {
		t.Fatal(err)
	}
	var s Scratch
	for i := 0; i < tr.Len(); i++ {
		got, err := cl.ClassifySnapshotScratch(idx, tr.At(i).Values, &s)
		if err != nil {
			t.Fatal(err)
		}
		if got != res.Snapshots[i] {
			t.Fatalf("snapshot %d: scratch %s, trace %s", i, got, res.Snapshots[i])
		}
	}
}

// TestGatherIndicesCached verifies the per-schema cache returns the
// same slice for repeated lookups.
func TestGatherIndicesCached(t *testing.T) {
	cl := trainSynthetic(t, Config{})
	schema := metrics.DefaultSchema()
	a, err := cl.GatherIndices(schema)
	if err != nil {
		t.Fatal(err)
	}
	b, err := cl.GatherIndices(schema)
	if err != nil {
		t.Fatal(err)
	}
	if &a[0] != &b[0] {
		t.Error("GatherIndices did not return the cached slice")
	}
	if _, err := cl.GatherIndices(nil); err == nil {
		t.Error("nil schema: want error")
	}
}

// TestClassifySnapshotScratchZeroAllocs is the tentpole's allocation
// contract: the fused snapshot path performs zero allocations at steady
// state (paper configuration, grid-indexed 2-D k-NN).
func TestClassifySnapshotScratchZeroAllocs(t *testing.T) {
	cl := trainSynthetic(t, Config{})
	tr := syntheticTrace(t, appclass.CPU, 64, 9)
	idx, err := cl.GatherIndices(tr.Schema())
	if err != nil {
		t.Fatal(err)
	}
	var s Scratch
	i := 0
	allocs := testing.AllocsPerRun(500, func() {
		if _, err := cl.ClassifySnapshotScratch(idx, tr.At(i%tr.Len()).Values, &s); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs != 0 {
		t.Errorf("ClassifySnapshotScratch allocates %v per run, want 0", allocs)
	}
}

// TestOnlineObserveSteadyStateZeroAllocs pins the streaming path: once
// the history backing array and maps have warmed up, Observe must not
// allocate.
func TestOnlineObserveSteadyStateZeroAllocs(t *testing.T) {
	cl := trainSynthetic(t, Config{})
	tr := syntheticTrace(t, appclass.Net, 64, 11)
	online, err := NewOnline(cl, tr.Schema())
	if err != nil {
		t.Fatal(err)
	}
	snaps := make([]metrics.Snapshot, tr.Len())
	for i := range snaps {
		snaps[i] = tr.At(i)
	}
	// Warm up past several trim cycles so the history array stabilizes.
	for i := 0; i < 1000; i++ {
		if _, err := online.Observe(snaps[i%len(snaps)]); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(500, func() {
		if _, err := online.Observe(snaps[i%len(snaps)]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs != 0 {
		t.Errorf("Observe allocates %v per run at steady state, want 0", allocs)
	}
}

// TestObserveBatchMatchesSequential runs the same stream through
// ObserveBatch and per-snapshot Observe and requires identical classes
// and running state.
func TestObserveBatchMatchesSequential(t *testing.T) {
	cl := trainSynthetic(t, Config{})
	tr := syntheticTrace(t, appclass.Mem, 80, 17)
	seq, err := NewOnline(cl, tr.Schema())
	if err != nil {
		t.Fatal(err)
	}
	bat, err := NewOnline(cl, tr.Schema())
	if err != nil {
		t.Fatal(err)
	}
	snaps := make([]metrics.Snapshot, tr.Len())
	want := make([]appclass.Class, tr.Len())
	for i := range snaps {
		snaps[i] = tr.At(i)
		c, err := seq.Observe(snaps[i])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = c
	}
	got, err := bat.ObserveBatch(snaps, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("batch returned %d classes, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("snapshot %d: batch %s, sequential %s", i, got[i], want[i])
		}
	}
	sv, bv := seq.Snapshot(), bat.Snapshot()
	if sv.Class != bv.Class || sv.Total != bv.Total || sv.LastClass != bv.LastClass ||
		sv.FirstAt != bv.FirstAt || sv.LastAt != bv.LastAt || sv.Drift != bv.Drift {
		t.Errorf("views diverge: sequential %+v, batch %+v", sv, bv)
	}
}

// TestObserveBatchValidation requires a malformed snapshot anywhere in
// the batch to reject the whole batch before any state mutation.
func TestObserveBatchValidation(t *testing.T) {
	cl := trainSynthetic(t, Config{})
	tr := syntheticTrace(t, appclass.CPU, 5, 23)
	online, err := NewOnline(cl, tr.Schema())
	if err != nil {
		t.Fatal(err)
	}
	snaps := []metrics.Snapshot{tr.At(0), {Values: []float64{1, 2}}, tr.At(1)}
	if _, err := online.ObserveBatch(snaps, nil); err == nil {
		t.Fatal("malformed batch: want error")
	}
	if online.Seen() != 0 {
		t.Errorf("failed batch mutated state: Seen = %d", online.Seen())
	}
}
