package modelreg

import (
	"fmt"

	"repro/internal/classify"
	"repro/internal/seglog"
)

// State is a model's position in the lifecycle, as GET /v1/models
// names it. The daemon derives it from what is serving.
type State string

const (
	// StateLoaded: known to the daemon, not serving anything.
	StateLoaded State = "loaded"
	// StateCandidate: shadow-classifying live traffic next to the active
	// model; its verdicts are measured, never served.
	StateCandidate State = "candidate"
	// StateActive: the model serving verdicts.
	StateActive State = "active"
	// StateRetired: a former active model kept for reference.
	StateRetired State = "retired"
)

// Model is one immutable model artifact: a trained classifier plus the
// serving params it will run under, identified by its compatibility
// hash. The classifier itself is read-only after training, so a Model
// is safe to share across goroutines.
type Model struct {
	// ID is the short hash — the model's key and URL path element.
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
	// LoadedAtUnixNS is when the daemon loaded the model.
	LoadedAtUnixNS int64
}

// NewModel wraps a trained classifier as a model, computing its
// compatibility hash.
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
// model under the given serving params.
func LoadFile(path string, p Params, loadedAtUnixNS int64) (*Model, error) {
	cl, err := classify.LoadFile(path)
	if err != nil {
		return nil, fmt.Errorf("modelreg: load artifact: %w", err)
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
