package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/wal"
)

// writeTestJournal builds a small journal directory with two batch
// records and one finalize marker, plus a checkpoint.
func writeTestJournal(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	j, err := wal.Open(wal.Config{Dir: dir, Fsync: wal.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	snaps := []metrics.Snapshot{
		{Time: 0, Node: "vm1", Values: []float64{1, 2}},
		{Time: 5 * time.Second, Node: "vm1", Values: []float64{3, 4}},
	}
	for i := 0; i < 2; i++ {
		if _, err := j.AppendBatch("vm1", snaps); err != nil {
			t.Fatal(err)
		}
	}
	pos, err := j.AppendFinalize("vm1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wal.SaveCheckpoint(dir, pos, time.Unix(1700000000, 0), "", json.RawMessage(`{"sessions":[]}`)); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestJournalDump(t *testing.T) {
	dir := writeTestJournal(t)
	var out bytes.Buffer
	if err := run("journal", []string{"dump", dir}, &out); err != nil {
		t.Fatalf("dump: %v", err)
	}
	for _, want := range []string{"batch", "finalize", "vm1", "records: 3 (snapshots: 4)", "checkpoint 1: 0 session(s)"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("dump output missing %q:\n%s", want, out.String())
		}
	}
}

func TestJournalVerifyAndTruncate(t *testing.T) {
	dir := writeTestJournal(t)
	var out bytes.Buffer
	if err := run("journal", []string{"verify", dir}, &out); err != nil {
		t.Fatalf("verify clean journal: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "clean") {
		t.Errorf("verify output:\n%s", out.String())
	}

	// Tear the segment: verify must fail, truncate must repair it.
	segs, err := filepath.Glob(filepath.Join(dir, "journal-*.wal"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments %v (err %v)", segs, err)
	}
	st, err := os.Stat(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(segs[0], st.Size()-2); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := run("journal", []string{"verify", dir}, &out); err == nil {
		t.Fatalf("verify torn journal: want error\n%s", out.String())
	}
	if !strings.Contains(out.String(), "TORN") {
		t.Errorf("verify output missing TORN:\n%s", out.String())
	}
	out.Reset()
	if err := run("journal", []string{"truncate", dir}, &out); err != nil {
		t.Fatalf("truncate: %v", err)
	}
	if !strings.Contains(out.String(), "truncated to") {
		t.Errorf("truncate output:\n%s", out.String())
	}
	out.Reset()
	if err := run("journal", []string{"verify", dir}, &out); err != nil {
		t.Fatalf("verify after repair: %v\n%s", err, out.String())
	}

	// Idempotent repair.
	out.Reset()
	if err := run("journal", []string{"truncate", dir}, &out); err != nil {
		t.Fatalf("second truncate: %v", err)
	}
	if !strings.Contains(out.String(), "nothing to repair") {
		t.Errorf("second truncate output:\n%s", out.String())
	}
}

func TestJournalUsageErrors(t *testing.T) {
	if err := run("journal", []string{"dump"}, &bytes.Buffer{}); err == nil {
		t.Error("missing dir: want error")
	}
	if err := run("journal", []string{"bogus", t.TempDir()}, &bytes.Buffer{}); err == nil {
		t.Error("unknown subcommand: want error")
	}
}
