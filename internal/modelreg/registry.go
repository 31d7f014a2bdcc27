package modelreg

import (
	"fmt"
	"os"
	"sort"
	"sync"

	"repro/internal/classify"
	"repro/internal/seglog"
)

// State is a model's position in the lifecycle.
type State string

const (
	// StateLoaded: in the registry, not serving anything.
	StateLoaded State = "loaded"
	// StateCandidate: shadow-classifying live traffic next to the active
	// model; its verdicts are measured, never served.
	StateCandidate State = "candidate"
	// StateActive: the model serving verdicts.
	StateActive State = "active"
	// StateRetired: a former active model kept for reference.
	StateRetired State = "retired"
)

// Model is one immutable registry entry: a trained classifier plus the
// serving params it will run under, identified by its compatibility
// hash. The classifier itself is read-only after training, so a Model
// is safe to share across goroutines.
type Model struct {
	// ID is the short hash — the registry key and URL path element.
	ID string
	// Hash is the full compatibility hash.
	Hash Hash
	// Classifier is the trained model.
	Classifier *classify.Classifier
	// Params are the serving-behaviour knobs the hash covers.
	Params Params
	// Source says where the model came from: "boot", "file:<path>",
	// "retrain", ...
	Source string
	// LoadedAtUnixNS is when the model entered the registry.
	LoadedAtUnixNS int64
}

// NewModel wraps a trained classifier as a registry entry, computing
// its compatibility hash.
func NewModel(cl *classify.Classifier, p Params, source string, loadedAtUnixNS int64) (*Model, error) {
	h, err := HashClassifier(cl, p)
	if err != nil {
		return nil, err
	}
	return &Model{
		ID:             h.Short(),
		Hash:           h,
		Classifier:     cl,
		Params:         p,
		Source:         source,
		LoadedAtUnixNS: loadedAtUnixNS,
	}, nil
}

// LoadFile reads a classifier artifact (the classify.Save format, as
// written by `appdbtool retrain` or Classifier.Save) and wraps it as a
// registry entry under the given serving params.
func LoadFile(path string, p Params, loadedAtUnixNS int64) (*Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("modelreg: open artifact: %w", err)
	}
	defer f.Close()
	cl, err := classify.Load(f)
	if err != nil {
		return nil, fmt.Errorf("modelreg: load artifact %s: %w", path, err)
	}
	return NewModel(cl, p, "file:"+path, loadedAtUnixNS)
}

// SaveFile writes a classifier artifact atomically with
// seglog.WriteFile (temp file, fsync, rename, directory fsync), ready
// for LoadFile or POST /v1/models.
func SaveFile(path string, cl *classify.Classifier) error {
	if err := seglog.WriteFile(path, cl.Save); err != nil {
		return fmt.Errorf("modelreg: save artifact: %w", err)
	}
	return nil
}

// Registry holds the known models and their lifecycle states: exactly
// one active model, at most one candidate, any number of loaded or
// retired ones. It is safe for concurrent use.
type Registry struct {
	mu     sync.Mutex
	models map[string]*Model
	states map[string]State
	active string
	cand   string
}

// NewRegistry creates a registry with the given model active.
func NewRegistry(active *Model) *Registry {
	r := &Registry{
		models: map[string]*Model{active.ID: active},
		states: map[string]State{active.ID: StateActive},
		active: active.ID,
	}
	return r
}

// Add registers a model as loaded. Adding an ID already present is an
// error — same hash means same model.
func (r *Registry) Add(m *Model) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.models[m.ID]; ok {
		return fmt.Errorf("modelreg: model %s already registered (state %s)", m.ID, r.states[m.ID])
	}
	r.models[m.ID] = m
	r.states[m.ID] = StateLoaded
	return nil
}

// Get returns a model and its state by ID.
func (r *Registry) Get(id string) (*Model, State, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	m, ok := r.models[id]
	return m, r.states[id], ok
}

// Active returns the active model.
func (r *Registry) Active() *Model {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.models[r.active]
}

// Candidate returns the current candidate, or nil.
func (r *Registry) Candidate() *Model {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.cand == "" {
		return nil
	}
	return r.models[r.cand]
}

// SetCandidate moves a registered model into the candidate slot. The
// slot holds at most one model; an existing candidate is demoted back
// to loaded.
func (r *Registry) SetCandidate(id string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.models[id]; !ok {
		return fmt.Errorf("modelreg: unknown model %s", id)
	}
	if id == r.active {
		return fmt.Errorf("modelreg: model %s is already active", id)
	}
	if r.cand != "" && r.cand != id {
		r.states[r.cand] = StateLoaded
	}
	r.cand = id
	r.states[id] = StateCandidate
	return nil
}

// ClearCandidate empties the candidate slot, demoting the candidate
// back to loaded. Returns the demoted model's ID ("" if the slot was
// empty).
func (r *Registry) ClearCandidate() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := r.cand
	if id != "" {
		r.states[id] = StateLoaded
		r.cand = ""
	}
	return id
}

// SetActive promotes a registered model to active, retiring the
// previous active model and emptying the candidate slot if the promoted
// model occupied it. The caller (the serving layer) is responsible for
// actually swapping traffic before or after, under its own quiesce.
func (r *Registry) SetActive(id string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.models[id]; !ok {
		return fmt.Errorf("modelreg: unknown model %s", id)
	}
	if id == r.active {
		return nil
	}
	r.states[r.active] = StateRetired
	if r.cand == id {
		r.cand = ""
	}
	r.active = id
	r.states[id] = StateActive
	return nil
}

// Remove drops a loaded or retired model. The active model and the
// candidate cannot be removed (promote another model or clear the
// candidate first).
func (r *Registry) Remove(id string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.models[id]; !ok {
		return fmt.Errorf("modelreg: unknown model %s", id)
	}
	switch r.states[id] {
	case StateActive:
		return fmt.Errorf("modelreg: model %s is active", id)
	case StateCandidate:
		return fmt.Errorf("modelreg: model %s is the candidate; clear it first", id)
	}
	delete(r.models, id)
	delete(r.states, id)
	return nil
}

// Entry is one List row.
type Entry struct {
	Model *Model
	State State
}

// List returns every registered model, active first, then candidate,
// then the rest by ID.
func (r *Registry) List() []Entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Entry, 0, len(r.models))
	for id, m := range r.models {
		out = append(out, Entry{Model: m, State: r.states[id]})
	}
	rank := func(e Entry) int {
		switch e.State {
		case StateActive:
			return 0
		case StateCandidate:
			return 1
		case StateLoaded:
			return 2
		default:
			return 3
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if ra, rb := rank(out[a]), rank(out[b]); ra != rb {
			return ra < rb
		}
		return out[a].Model.ID < out[b].Model.ID
	})
	return out
}
