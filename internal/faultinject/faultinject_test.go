package faultinject

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/wal"
)

func testBackend(t *testing.T, body string) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, body)
	}))
	t.Cleanup(srv.Close)
	return srv
}

func TestRoundTripperErrorRate(t *testing.T) {
	srv := testBackend(t, "ok")
	rt := NewRoundTripper(srv.Client().Transport, 1)
	client := &http.Client{Transport: rt}
	rt.SetErrorRate(1)
	if _, err := client.Get(srv.URL); err == nil {
		t.Fatal("error rate 1.0: want every request to fail")
	}
	rt.SetErrorRate(0)
	resp, err := client.Get(srv.URL)
	if err != nil {
		t.Fatalf("healed injector: %v", err)
	}
	resp.Body.Close()
	if rt.Requests() != 2 || rt.Injected() != 1 {
		t.Errorf("requests=%d injected=%d, want 2 and 1", rt.Requests(), rt.Injected())
	}
}

func TestRoundTripperBlackout(t *testing.T) {
	srv := testBackend(t, "ok")
	rt := NewRoundTripper(srv.Client().Transport, 1)
	client := &http.Client{Transport: rt}
	rt.SetBlackout(true)
	for i := 0; i < 3; i++ {
		if _, err := client.Get(srv.URL); err == nil {
			t.Fatalf("blackout request %d succeeded", i)
		}
	}
	rt.SetBlackout(false)
	resp, err := client.Get(srv.URL)
	if err != nil {
		t.Fatalf("post-blackout: %v", err)
	}
	resp.Body.Close()
	if rt.Injected() != 3 {
		t.Errorf("injected = %d, want 3", rt.Injected())
	}
}

func TestRoundTripperTruncatesBody(t *testing.T) {
	body := strings.Repeat("x", 4096)
	srv := testBackend(t, body)
	rt := NewRoundTripper(srv.Client().Transport, 1)
	client := &http.Client{Transport: rt}
	rt.SetTruncateRate(1)
	resp, err := client.Get(srv.URL)
	if err != nil {
		t.Fatalf("truncated response should still connect: %v", err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err == nil {
		t.Fatal("reading a truncated body: want a mid-read error, got clean EOF")
	}
	if len(got) >= len(body) {
		t.Errorf("read %d bytes of a %d-byte body; nothing was cut", len(got), len(body))
	}
	if rt.Truncated() != 1 {
		t.Errorf("truncated = %d, want 1", rt.Truncated())
	}
}

func TestRoundTripperLatencyHonorsContext(t *testing.T) {
	srv := testBackend(t, "ok")
	rt := NewRoundTripper(srv.Client().Transport, 1)
	client := &http.Client{Transport: rt}
	rt.SetLatency(time.Minute)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL, nil)
	start := time.Now()
	if _, err := client.Do(req); err == nil {
		t.Fatal("latency past the deadline: want context error")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("cancelled request took %v; latency sleep ignored the context", elapsed)
	}
}

func TestRoundTripperDeterministic(t *testing.T) {
	srv := testBackend(t, "ok")
	outcomes := func(seed int64) []bool {
		rt := NewRoundTripper(srv.Client().Transport, seed)
		rt.SetErrorRate(0.5)
		client := &http.Client{Transport: rt}
		var out []bool
		for i := 0; i < 32; i++ {
			resp, err := client.Get(srv.URL)
			if err == nil {
				resp.Body.Close()
			}
			out = append(out, err == nil)
		}
		return out
	}
	a, b := outcomes(42), outcomes(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at request %d", i)
		}
	}
}

// testSnaps builds n snapshots for vm, mirroring the wal test helper.
func testSnaps(vm string, n int) []metrics.Snapshot {
	out := make([]metrics.Snapshot, n)
	for i := range out {
		out[i] = metrics.Snapshot{
			Time:   time.Duration(i) * 5 * time.Second,
			Node:   vm,
			Values: []float64{float64(i), float64(i + 1)},
		}
	}
	return out
}

// TestFSTransientENOSPC scripts the canonical degraded-durability fault:
// the disk fills (every write and segment creation fails with ENOSPC),
// the journal poisons itself, the fault heals, and Revive re-arms the
// journal so records on both sides of the outage replay.
func TestFSTransientENOSPC(t *testing.T) {
	fs := NewFS()
	dir := t.TempDir()
	j, err := wal.Open(wal.Config{
		Dir:             dir,
		Fsync:           wal.FsyncNever,
		OpenSegmentFile: fs.OpenSegmentFile,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()

	if _, err := j.AppendBatch("vm", testSnaps("vm", 2)); err != nil {
		t.Fatalf("pre-fault append: %v", err)
	}

	fs.FailWrites(syscall.ENOSPC)
	fs.FailOpens(syscall.ENOSPC)
	if _, err := j.AppendBatch("vm", testSnaps("vm", 1)); err == nil {
		t.Fatal("append with a full disk succeeded")
	}
	if j.Failed() == nil {
		t.Fatal("journal not poisoned: abandoning the segment should have failed too")
	}
	if _, err := j.AppendBatch("vm", testSnaps("vm", 1)); err == nil {
		t.Fatal("poisoned journal accepted an append")
	}
	if err := j.Revive(); err == nil {
		t.Fatal("Revive with the fault still active: want error")
	}
	if fs.FailedWrites() == 0 || fs.FailedOpens() == 0 {
		t.Errorf("failedWrites=%d failedOpens=%d, want both nonzero", fs.FailedWrites(), fs.FailedOpens())
	}

	// The disk frees up.
	fs.FailWrites(nil)
	fs.FailOpens(nil)
	if err := j.Revive(); err != nil {
		t.Fatalf("Revive after heal: %v", err)
	}
	if j.Failed() != nil {
		t.Fatalf("journal still poisoned after Revive: %v", j.Failed())
	}
	if _, err := j.AppendBatch("vm", testSnaps("vm", 3)); err != nil {
		t.Fatalf("post-revive append: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	snaps := 0
	if _, err := wal.Replay(dir, wal.Position{}, func(pos wal.Position, rec wal.Record) error {
		snaps += len(rec.Snaps)
		return nil
	}); err != nil {
		t.Fatalf("replay: %v", err)
	}
	// The two pre-fault and three post-revive snapshots survive; the
	// batch that hit the full disk was never acknowledged.
	if snaps != 5 {
		t.Errorf("replayed %d snapshots, want 5", snaps)
	}
}

// TestFSSyncFailure exercises the fsync-error path: with FsyncAlways,
// a failing fsync surfaces on the append so the daemon can degrade.
func TestFSSyncFailure(t *testing.T) {
	fs := NewFS()
	j, err := wal.Open(wal.Config{
		Dir:             t.TempDir(),
		Fsync:           wal.FsyncAlways,
		OpenSegmentFile: fs.OpenSegmentFile,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if _, err := j.AppendBatch("vm", testSnaps("vm", 1)); err != nil {
		t.Fatal(err)
	}
	fs.FailSyncs(syscall.EIO)
	if _, err := j.AppendBatch("vm", testSnaps("vm", 1)); err == nil {
		t.Fatal("append under FsyncAlways with a failing fsync succeeded")
	}
	if fs.FailedSyncs() == 0 {
		t.Error("no fsyncs were failed")
	}
	fs.FailSyncs(nil)
	if _, err := j.AppendBatch("vm", testSnaps("vm", 1)); err != nil {
		t.Fatalf("append after fsync heal: %v", err)
	}
}

// TestFSSyncFailureCutsRecord pins the fsync-failure rule under plain
// FsyncAlways: the record whose fsync failed is cut from the journal,
// so after the fault heals and the journal closes, replay returns
// exactly the appends that were acknowledged.
func TestFSSyncFailureCutsRecord(t *testing.T) {
	fs := NewFS()
	dir := t.TempDir()
	j, err := wal.Open(wal.Config{Dir: dir, Fsync: wal.FsyncAlways, OpenSegmentFile: fs.OpenSegmentFile})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.AppendBatch("vm", testSnaps("vm", 1)); err != nil {
		t.Fatal(err)
	}
	fs.FailSyncs(syscall.EIO)
	if _, err := j.AppendBatch("vm", testSnaps("vm", 2)); err == nil {
		t.Fatal("append with a failing fsync succeeded")
	}
	fs.FailSyncs(nil)
	if _, err := j.AppendBatch("vm", testSnaps("vm", 3)); err != nil {
		t.Fatalf("append after fsync heal: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	var batches []int
	if _, err := wal.Replay(dir, wal.Position{}, func(_ wal.Position, rec wal.Record) error {
		batches = append(batches, len(rec.Snaps))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(batches) != 2 || batches[0] != 1 || batches[1] != 3 {
		t.Errorf("replayed batches of %v snapshots, want [1 3]: the unacknowledged batch came back", batches)
	}
}
