package appstore

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/appclass"
	"repro/internal/phase"
	"repro/internal/seglog"
)

// fpRecord is testRecord for application app, fingerprinted when fp is
// set with a fingerprint unique to (app, i).
func fpRecord(app, i int, fp bool) Record {
	r := testRecord(fmt.Sprintf("app-%03d", app), appclass.CPU, i)
	if fp {
		r.Fingerprint = &phase.Fingerprint{Phases: []phase.PhaseSig{
			{Class: appclass.CPU, DurFrac: 0.5, Centroid: []float64{float64(app), float64(i)}},
			{Class: appclass.IO, DurFrac: 0.5, Centroid: []float64{-1, 0.5}},
		}}
	}
	return r
}

// appendSeq appends r and returns the seq it was stored under.
func appendSeq(t *testing.T, s *Store, r Record) uint64 {
	t.Helper()
	s.mu.RLock()
	seq := s.nextSeq
	s.mu.RUnlock()
	if err := s.Append(&r); err != nil {
		t.Fatal(err)
	}
	return seq
}

// recordReads runs Fingerprints and returns the dictionary and the
// record bodies the call read.
func recordReads(t *testing.T, s *Store) (map[string]phase.Fingerprint, int64) {
	t.Helper()
	before := s.Stats().RecordReads
	fps, err := s.Fingerprints()
	if err != nil {
		t.Fatal(err)
	}
	return fps, s.Stats().RecordReads - before
}

// dictSeq returns the seq of app's dictionary entry per the index, 0
// if it has none.
func dictSeq(s *Store, app string) uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	idxs := s.byApp[app]
	for i := len(idxs) - 1; i >= 0; i-- {
		if e := &s.entries[idxs[i]]; !e.dead && e.hasFP {
			return e.seq
		}
	}
	return 0
}

func TestFingerprintsReadOnlyChangedEntries(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	opt := Options{SegmentBytes: 32 << 10, NoFsync: true}
	s := openTest(t, dir, opt)
	for i := 0; i < 600; i++ {
		appendSeq(t, s, fpRecord(i%200, i, i < 400 || i%2 == 0))
	}
	s.Close()
	s = openTest(t, dir, opt)
	if n := s.Stats().RecordReads; n != 0 {
		t.Fatalf("Open read %d record bodies, want 0", n)
	}

	fps, n := recordReads(t, s)
	if len(fps) != 200 || n != 200 {
		t.Fatalf("first call: %d entries from %d reads, want 200 from 200", len(fps), n)
	}
	if _, n = recordReads(t, s); n != 0 {
		t.Fatalf("repeat call read %d bodies, want 0", n)
	}

	r := fpRecord(7, 1000, true)
	appendSeq(t, s, r)
	fps, n = recordReads(t, s)
	if n != 1 {
		t.Fatalf("after one fingerprinted append: %d reads, want 1", n)
	}
	if got := fps["app-007"]; !reflect.DeepEqual(&got, r.Fingerprint) {
		t.Fatalf("app-007 entry = %+v, want the appended run's", got)
	}
	appendSeq(t, s, fpRecord(8, 1001, false))
	if _, n = recordReads(t, s); n != 0 {
		t.Fatalf("after an append without fingerprint: %d reads, want 0", n)
	}

	// Prune keeps each application's newest records, so a pruned
	// dictionary entry leaves no older fingerprinted record behind: the
	// application leaves the dictionary without a read. app-008's newest
	// record has no fingerprint; app-007's does. Compaction moves the
	// surviving entries to new segments under their old seqs.
	if _, err := s.Prune(1); err != nil {
		t.Fatal(err)
	}
	fps, n = recordReads(t, s)
	if n != 0 {
		t.Fatalf("after Prune: %d reads, want 0", n)
	}
	if _, ok := fps["app-008"]; ok {
		t.Fatal("app-008 kept a dictionary entry its only fingerprinted record was pruned from")
	}
	if got := fps["app-007"]; !reflect.DeepEqual(&got, r.Fingerprint) {
		t.Fatalf("app-007 entry after Prune = %+v", got)
	}

	// Damage is the one way an entry goes while an older fingerprinted
	// record stays: the next call reads exactly that fallback.
	app := "app-009"
	older := fpRecord(9, 1002, true)
	olderSeq := appendSeq(t, s, older)
	newer := fpRecord(9, 1003, true)
	newerSeq := appendSeq(t, s, newer)
	for i := 0; i < 200; i++ { // push both into a closed segment
		appendSeq(t, s, fpRecord(100+i%50, 2000+i, false))
	}
	if fps, _ = recordReads(t, s); !reflect.DeepEqual(fps[app], *newer.Fingerprint) {
		t.Fatalf("%s entry = %+v, want the newest run's", app, fps[app])
	}
	corruptLiveFrame(t, s, newerSeq)
	scrubAll(t, s)
	if got := dictSeq(s, app); got != olderSeq {
		t.Fatalf("after scrub the index names seq %d for %s, want the fallback %d", got, app, olderSeq)
	}
	fps, n = recordReads(t, s)
	if n != 1 {
		t.Fatalf("after scrub lost a dictionary entry: %d reads, want 1 (the fallback)", n)
	}
	if !reflect.DeepEqual(fps[app], *older.Fingerprint) {
		t.Fatalf("%s entry after scrub = %+v, want the fallback's", app, fps[app])
	}
}

// scrubAll runs the scrubber over every closed segment and returns the
// reports that found damage. A pass starts at the scrub cursor and
// ends at the newest segment, so a full cycle takes two.
func scrubAll(t *testing.T, s *Store) []seglog.Report {
	t.Helper()
	var out []seglog.Report
	for pass := 0; pass < 2; pass++ {
		reps, err := s.Scrub(1 << 20)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, damaged(reps)...)
	}
	return out
}

// churnModel is the reference the cached dictionary is checked against:
// every record as it was appended, by seq. Liveness comes from the
// index, which retention, compaction and scrub change on their own.
type churnModel map[uint64]Record

// want is the dictionary an uncached reader derives from the index and
// the appended records.
func (m churnModel) want(s *Store) map[string]phase.Fingerprint {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := map[string]phase.Fingerprint{}
	for app, idxs := range s.byApp {
		for i := len(idxs) - 1; i >= 0; i-- {
			if e := &s.entries[idxs[i]]; !e.dead && e.hasFP {
				out[app] = *m[e.seq].Fingerprint
				break
			}
		}
	}
	return out
}

// reopenedCopy opens a copy of the store's directory and returns its
// dictionary: a store that has decoded nothing yet.
func reopenedCopy(t *testing.T, s *Store, opt Options) map[string]phase.Fingerprint {
	t.Helper()
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	dst := filepath.Join(t.TempDir(), "copy")
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(s.Dir())
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(s.Dir(), e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	c, err := Open(dst, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fps, err := c.Fingerprints()
	if err != nil {
		t.Fatal(err)
	}
	return fps
}

// TestFingerprintCacheMatchesUncachedUnderChurn runs a seeded mix of
// appends with and without fingerprints, explicit prunes, byte-capped
// retention, compactions, damage found by the scrubber, and reopens,
// and after every step requires the cached dictionary to equal the one
// an uncached reader derives.
func TestFingerprintCacheMatchesUncachedUnderChurn(t *testing.T) {
	const apps = 20
	dir := filepath.Join(t.TempDir(), "store")
	done := map[string]int{}
	opt := Options{SegmentBytes: 2048, MaxBytes: 16 << 10, NoFsync: true, Logf: func(format string, _ ...any) {
		if strings.HasPrefix(format, "appstore: retention marked") {
			done["retention"]++
		}
	}}
	s := openTest(t, dir, opt)
	m := churnModel{}
	rng := rand.New(rand.NewSource(17))
	check := func(step int, op string) {
		t.Helper()
		got, err := s.Fingerprints()
		if err != nil {
			t.Fatalf("step %d (%s): %v", step, op, err)
		}
		if want := m.want(s); !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d (%s): cached dictionary differs from an uncached read:\n got %v\nwant %v", step, op, got, want)
		}
	}
	for step := 0; step < 600; step++ {
		var op string
		switch p := rng.Intn(100); {
		case p < 80:
			op = "put"
			fp := rng.Intn(2) == 0
			if fp {
				op = "put+fp"
			}
			r := fpRecord(rng.Intn(apps), step, fp)
			m[appendSeq(t, s, r)] = r
		case p < 86:
			op = "prune"
			if _, err := s.Prune(1 + rng.Intn(4)); err != nil {
				t.Fatal(err)
			}
		case p < 90:
			op = "compact"
			if err := s.Compact(); err != nil {
				t.Fatal(err)
			}
		case p < 96:
			// Damage the dictionary entry of an application whose entry
			// sits in a closed segment; the scrubber tombstones it.
			op = "scrub"
			var victim uint64
			s.mu.RLock()
			active := s.w.Seq()
			s.mu.RUnlock()
			for _, a := range rng.Perm(apps) {
				seq := dictSeq(s, fmt.Sprintf("app-%03d", a))
				if seq == 0 {
					continue
				}
				s.mu.RLock()
				seg := s.entries[s.findSeqLocked(seq)].seg
				s.mu.RUnlock()
				if seg != active {
					victim = seq
					break
				}
			}
			if victim == 0 {
				continue
			}
			corruptLiveFrame(t, s, victim)
			if lost := scrubAll(t, s); len(lost) != 1 || lost[0].Lost != 1 {
				t.Fatalf("step %d: scrub reports %+v, want one lost record", step, lost)
			}
			got, err := s.Fingerprints()
			if err != nil {
				t.Fatal(err)
			}
			if want := reopenedCopy(t, s, opt); !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d (scrub): cached dictionary differs from a fresh reopen:\n got %v\nwant %v", step, got, want)
			}
		default:
			op = "reopen"
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			s = openTest(t, dir, opt)
		}
		done[op]++
		check(step, op)
	}
	t.Logf("steps run: %v", done)
	for _, op := range []string{"put", "put+fp", "prune", "retention", "compact", "scrub", "reopen"} {
		if done[op] == 0 {
			t.Errorf("churn never ran %s: %v", op, done)
		}
	}
	got, err := s.Fingerprints()
	if err != nil {
		t.Fatal(err)
	}
	if want := reopenedCopy(t, s, opt); !reflect.DeepEqual(got, want) {
		t.Fatalf("final dictionary differs from a fresh reopen:\n got %v\nwant %v", got, want)
	}
}

// TestFingerprintsConcurrentWithPutAndPrune shares the cache between
// dictionary readers, an appender and a pruner; run it under -race.
// Every entry a reader sees must be one of its application's runs, and
// once the writers stop the cache must equal an uncached read.
func TestFingerprintsConcurrentWithPutAndPrune(t *testing.T) {
	const apps = 20
	opt := Options{SegmentBytes: 4096, MaxBytes: 32 << 10, NoFsync: true, Logf: func(string, ...any) {}}
	s := openTest(t, filepath.Join(t.TempDir(), "store"), opt)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				fps, err := s.Fingerprints()
				if err != nil {
					t.Error(err)
					return
				}
				for app, fp := range fps {
					if want := fmt.Sprintf("app-%03.0f", fp.Phases[0].Centroid[0]); want != app {
						t.Errorf("%s maps to a fingerprint of %s", app, want)
						return
					}
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := s.Prune(3); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 400; i++ {
		r := fpRecord(i%apps, i, i%3 != 0)
		if err := s.Append(&r); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	wg.Wait()
	got, err := s.Fingerprints()
	if err != nil {
		t.Fatal(err)
	}
	if want := reopenedCopy(t, s, opt); !reflect.DeepEqual(got, want) {
		t.Fatalf("dictionary after concurrent churn differs from a fresh reopen:\n got %v\nwant %v", got, want)
	}
}
