package server

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/wal"
	"repro/internal/wire"
)

// handlerTransport serves a client's requests by calling the handler
// in-process, so a handler panic surfaces in the calling goroutine.
type handlerTransport struct{ h http.Handler }

func (ht handlerTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	w := httptest.NewRecorder()
	ht.h.ServeHTTP(w, r)
	return w.Result(), nil
}

// within runs one step with a deadline, turning a panic into an error:
// a step that wedges a lock must fail the test, not hang it.
func within(t *testing.T, what string, step func() error) {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				done <- fmt.Errorf("panic: %v", r)
			}
		}()
		done <- step()
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("%s did not return within 10s", what)
	}
}

// TestHugeFiniteSnapshotIsClassified sends snapshots whose every value
// is huge but finite — 1e20, 1e160, ±math.MaxFloat64, so ingest
// validation lets them in — over JSON and binary ingest into a
// journaled daemon. Their fused features lie far outside the kNN grid,
// and the deviations the drift accumulators square overflow; the daemon
// must classify them (unknown, under the open set), keep serving that
// VM, checkpoint, and recover the journal that holds them, both from
// the checkpoint and by replaying it.
func TestHugeFiniteSnapshotIsClassified(t *testing.T) {
	schema := metrics.DefaultSchema()
	normal := make([]float64, schema.Len())
	const vm = "huge-vm"

	senders := map[string]func(t *testing.T, s *Server) func(at float64, values []float64) error{
		"json": func(t *testing.T, s *Server) func(float64, []float64) error {
			return func(at float64, values []float64) error {
				w := postJSON(t, s.Handler(), "/v1/ingest", map[string]any{"snapshots": []any{
					map[string]any{"vm": vm, "time_s": at, "values": values},
				}})
				if w.Code != http.StatusOK {
					return fmt.Errorf("status %d: %s", w.Code, w.Body.String())
				}
				return nil
			}
		},
		"binary": func(t *testing.T, s *Server) func(float64, []float64) error {
			c := wire.NewClient("http://appclassd.test", schema.Names(),
				&http.Client{Transport: handlerTransport{s.Handler()}})
			return func(at float64, values []float64) error {
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				defer cancel()
				_, err := c.Send(ctx, []wire.Group{{VM: vm, Times: []float64{at}, Rows: [][]float64{values}}})
				return err
			}
		},
	}
	for name, sender := range senders {
		t.Run(name, func(t *testing.T) {
			for _, v := range []float64{1e20, 1e160, math.MaxFloat64, -math.MaxFloat64} {
				t.Run(fmt.Sprintf("%g", v), func(t *testing.T) {
					huge := make([]float64, schema.Len())
					for i := range huge {
						huge[i] = v
					}
					dir := t.TempDir()
					a := crashServer(t, crashJournal(t, dir))
					send := sender(t, a)
					within(t, "ingest huge snapshot", func() error { return send(0, huge) })
					within(t, "ingest normal snapshot after it", func() error { return send(5, normal) })
					within(t, "checkpoint", a.Checkpoint)
					within(t, "ingest huge snapshot after the checkpoint", func() error { return send(10, huge) })
					if n := a.counters.unknownSnapshots.Load(); n < 2 {
						t.Errorf("%d unknown snapshots, want the two huge ones", n)
					}
					want := sessionView(t, a, vm)
					// Crash a; a fresh server restores the checkpoint and
					// replays the huge batch journaled after it.
					jb, err := wal.Open(wal.Config{Dir: dir, Fsync: wal.FsyncNever})
					if err != nil {
						t.Fatal(err)
					}
					t.Cleanup(func() { jb.Close() })
					b := newTestServer(t, Config{Journal: jb})
					var rs RecoveryStats
					within(t, "recover", func() (err error) { rs, err = b.Recover(); return err })
					if rs.CheckpointSeq == 0 || rs.Sessions != 1 || rs.Snapshots != 1 || rs.Errors != 0 {
						t.Errorf("recovery: checkpoint %d, %d session(s), %d replayed snapshot(s), %d error(s); want a checkpoint, 1, 1, 0",
							rs.CheckpointSeq, rs.Sessions, rs.Snapshots, rs.Errors)
					}
					got := sessionView(t, b, vm)
					if got.Total != 3 || got.Unknown != want.Unknown || got.Class != want.Class || got.Drift != want.Drift {
						t.Errorf("recovered session: %d snapshots, %d unknown, class %s, drift %g; want 3, %d, %s, %g",
							got.Total, got.Unknown, got.Class, got.Drift, want.Unknown, want.Class, want.Drift)
					}
				})
			}
		})
	}
}
