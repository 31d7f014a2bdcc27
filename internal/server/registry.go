package server

import (
	"sort"
	"sync"
	"time"

	"repro/internal/classify"
)

// session is one VM's live classification state: an online classifier
// plus bookkeeping for eviction. The mutex guards every field; the
// registry's shard lock is never held while a session is classifying,
// so slow snapshots on one VM do not stall ingest for its shard
// neighbours.
type session struct {
	vm string

	mu       sync.Mutex
	online   *classify.Online
	lastSeen time.Time
	// finalized marks a session whose record has been (or is being)
	// written to the application database. A finalized session is dead:
	// ingest must not observe into it, and a concurrent writer that
	// raced an eviction retries against the registry instead.
	finalized bool
	// model is the ID (short hash) of the model currently serving this
	// session — verdict provenance, stamped into the session's appdb
	// record at finalization and updated when a promote rebinds the
	// session.
	model string
}

// shard is one stripe of the registry.
type shard struct {
	mu       sync.RWMutex
	sessions map[string]*session
}

// registry is a mutex-striped map of live sessions keyed by VM name.
// Striping keeps ingest from many VMs from serializing on one lock.
type registry struct {
	shards []*shard
}

const defaultShards = 16

func newRegistry(n int) *registry {
	if n <= 0 {
		n = defaultShards
	}
	r := &registry{shards: make([]*shard, n)}
	for i := range r.shards {
		r.shards[i] = &shard{sessions: make(map[string]*session)}
	}
	return r
}

// fnv1a is FNV-1a over s, inlined so a per-ingest lookup never
// allocates (hash/fnv's interface-shaped hasher escapes to the heap).
func fnv1a(s string) uint32 {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= prime32
	}
	return h
}

func (r *registry) shardFor(vm string) *shard {
	return r.shards[fnv1a(vm)%uint32(len(r.shards))]
}

// get returns the live session for vm, if any.
func (r *registry) get(vm string) (*session, bool) {
	sh := r.shardFor(vm)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	s, ok := sh.sessions[vm]
	return s, ok
}

// getOrCreate returns the live session for vm, building one with build
// if absent. The second return reports whether a session was created.
func (r *registry) getOrCreate(vm string, build func() (*session, error)) (*session, bool, error) {
	sh := r.shardFor(vm)
	sh.mu.RLock()
	s, ok := sh.sessions[vm]
	sh.mu.RUnlock()
	if ok {
		return s, false, nil
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if s, ok := sh.sessions[vm]; ok {
		return s, false, nil
	}
	s, err := build()
	if err != nil {
		return nil, false, err
	}
	sh.sessions[vm] = s
	return s, true, nil
}

// remove unmaps vm only if it still resolves to s, so an evictor that
// raced a fresh session for the same name does not tear the new one
// down.
func (r *registry) remove(vm string, s *session) bool {
	sh := r.shardFor(vm)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if cur, ok := sh.sessions[vm]; !ok || cur != s {
		return false
	}
	delete(sh.sessions, vm)
	return true
}

// names returns all live VM names, sorted.
func (r *registry) names() []string {
	var out []string
	for _, sh := range r.shards {
		sh.mu.RLock()
		for vm := range sh.sessions {
			out = append(out, vm)
		}
		sh.mu.RUnlock()
	}
	sort.Strings(out)
	return out
}

// all returns every live session.
func (r *registry) all() []*session {
	var out []*session
	for _, sh := range r.shards {
		sh.mu.RLock()
		for _, s := range sh.sessions {
			out = append(out, s)
		}
		sh.mu.RUnlock()
	}
	return out
}

// counts returns the per-shard session counts.
func (r *registry) counts() []int {
	out := make([]int, len(r.shards))
	for i, sh := range r.shards {
		sh.mu.RLock()
		out[i] = len(sh.sessions)
		sh.mu.RUnlock()
	}
	return out
}

// len returns the total number of live sessions.
func (r *registry) len() int {
	n := 0
	for _, c := range r.counts() {
		n += c
	}
	return n
}
