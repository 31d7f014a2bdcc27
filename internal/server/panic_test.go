package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestPanicUnderSessionLocksReleasesThem: a panic while ingest or a
// finish holds a session's lock, and the checkpoint read lock, must
// release both. net/http recovers a handler's panic and keeps serving,
// so a lock left held would hang that VM's requests and block every
// later checkpoint, and with it the journal's trimming, for good.
func TestPanicUnderSessionLocksReleasesThem(t *testing.T) {
	s := crashServer(t, crashJournal(t, t.TempDir()))
	ts := httptest.NewUnstartedServer(s.Handler())
	ts.Config.ErrorLog = log.New(io.Discard, "", 0) // the recovered panics
	ts.Start()
	t.Cleanup(ts.Close)
	const vm = "panic-vm"
	post := func(path string, body any) error {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		resp, err := ts.Client().Post(ts.URL+path, "application/json", bytes.NewReader(b))
		if err != nil {
			return err
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("status %d", resp.StatusCode)
		}
		return nil
	}
	ingest := func(at float64) error {
		return post("/v1/ingest", map[string]any{"snapshots": []any{zeroSnapshot(vm, at)}})
	}
	if err := ingest(0); err != nil {
		t.Fatalf("ingest: %v", err)
	}
	sess, ok := s.reg.get(vm)
	if !ok {
		t.Fatal("no session after ingest")
	}
	// breakSession takes the session's classifier away, so the next call
	// into it panics, and returns the step that puts it back, which needs
	// the session lock.
	breakSession := func() func() error {
		sess.mu.Lock()
		online := sess.online
		sess.online = nil
		sess.mu.Unlock()
		return func() error {
			sess.mu.Lock()
			sess.online = online
			sess.mu.Unlock()
			return nil
		}
	}

	restore := breakSession()
	if err := ingest(5); err == nil {
		t.Fatal("ingest into a broken session succeeded; want its panic to drop the connection")
	}
	within(t, "session lock after an ingest panic", restore)
	within(t, "checkpoint after an ingest panic", s.Checkpoint)
	within(t, "ingest after the panic", func() error { return ingest(10) })

	restore = breakSession()
	if err := post("/v1/vms/"+vm+"/finish", nil); err == nil {
		t.Fatal("finish of a broken session succeeded; want its panic to drop the connection")
	}
	within(t, "session lock after a finish panic", restore)
	within(t, "checkpoint after a finish panic", s.Checkpoint)
}
