package server

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"
)

// TestIngestSplitsAndNamesAreInvisible is the server-level metamorphic
// test: profiled runs of four applications, plus a second run of the
// first so one finish matches a stored fingerprint, go to three
// servers, one VM per run. One server gets one snapshot per request,
// one gets seeded random requests that interleave the VMs, and one gets
// those same requests with every VM name permuted. Each VM's
// /v1/vms/{name} body, last_seen aside (class, composition, verdict,
// stages and phase list), and each finish reply must be identical, the
// permuted server's after mapping names back, matched applications
// included.
func TestIngestSplitsAndNamesAreInvisible(t *testing.T) {
	apps := []string{"Stream", "PostMark", "SPECseis96_C", "XSpim", "Stream"}
	vms := make([]string, len(apps))
	renamed := map[string]string{} // original name -> permuted name
	back := map[string]string{}    // and back
	for i := range apps {
		vms[i] = fmt.Sprintf("mm-%d", i)
	}
	for i, vm := range vms {
		renamed[vm] = vms[(i+2)%len(vms)]
		back[renamed[vm]] = vm
	}
	fixed := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	now := func() time.Time { return fixed }
	single := newTestServer(t, Config{Now: now})
	split := newTestServer(t, Config{Now: now})
	permuted := newTestServer(t, Config{Now: now})

	// One stream of every run's snapshots, each run's in order, the
	// runs interleaved at random.
	type ref struct{ vm, i int }
	var stream []ref
	next := make([]int, len(apps))
	rng := rand.New(rand.NewSource(26))
	for left := true; left; {
		left = false
		for _, v := range rng.Perm(len(apps)) {
			if n := rng.Intn(4); next[v] < profiledTrace(t, apps[v]).Len() {
				for ; n >= 0 && next[v] < profiledTrace(t, apps[v]).Len(); n-- {
					stream = append(stream, ref{v, next[v]})
					next[v]++
				}
				left = true
			}
		}
	}
	snapshot := func(r ref, name string) map[string]any {
		sn := profiledTrace(t, apps[r.vm]).At(r.i)
		return map[string]any{"vm": name, "time_s": sn.Time.Seconds(), "values": sn.Values}
	}
	ingest := func(s *Server, snaps []any) {
		t.Helper()
		if w := postJSON(t, s.Handler(), "/v1/ingest", map[string]any{"snapshots": snaps}); w.Code != http.StatusOK {
			t.Fatalf("ingest: %d %s", w.Code, w.Body.String())
		}
	}
	for _, r := range stream {
		ingest(single, []any{snapshot(r, vms[r.vm])})
	}
	requests := 0
	for lo := 0; lo < len(stream); requests++ {
		hi := min(len(stream), lo+1+rng.Intn(48))
		var plain, perm []any
		for _, r := range stream[lo:hi] {
			plain = append(plain, snapshot(r, vms[r.vm]))
			perm = append(perm, snapshot(r, renamed[vms[r.vm]]))
		}
		ingest(split, plain)
		ingest(permuted, perm)
		lo = hi
	}
	t.Logf("%d snapshots: %d single-snapshot requests, %d split requests", len(stream), len(stream), requests)

	// body decodes GET /v1/vms/{vm} or, with finish set, the finish
	// reply, drops last_seen, and maps VM names back through names.
	body := func(s *Server, vm string, finish bool, names map[string]string) map[string]any {
		t.Helper()
		var w *httptest.ResponseRecorder
		if finish {
			w = postJSON(t, s.Handler(), "/v1/vms/"+vm+"/finish", nil)
		} else {
			w = getJSON(t, s, "/v1/vms/"+vm)
		}
		var m map[string]any
		decodeJSON(t, w, &m)
		delete(m, "last_seen")
		for _, k := range []string{"vm", "matched_app"} {
			if name, ok := m[k].(string); ok && names != nil {
				m[k] = names[name]
			}
		}
		return m
	}
	matched := 0
	for _, finish := range []bool{false, true} {
		for _, vm := range vms {
			want := body(single, vm, finish, nil)
			if got := body(split, vm, finish, nil); !reflect.DeepEqual(got, want) {
				t.Errorf("%s (finish %v) with split requests:\n got %v\nwant %v", vm, finish, got, want)
			}
			if got := body(permuted, renamed[vm], finish, back); !reflect.DeepEqual(got, want) {
				t.Errorf("%s (finish %v) with split requests and permuted names:\n got %v\nwant %v", vm, finish, got, want)
			}
			if want["matched_app"] != nil {
				matched++
			}
		}
	}
	if matched == 0 {
		t.Error("no finish matched a stored fingerprint, so the permutation of matched applications went unchecked")
	}
}
