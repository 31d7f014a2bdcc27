// Package modelreg holds the daemon's model artifacts: immutable
// trained classifiers, each identified by a deterministic compatibility
// hash over everything that affects serving behaviour — expert-metric
// schema, fused-kernel weights, interned k-NN training set, open-set
// calibration, phase-segmentation parameters, and the journal's on-disk
// format version. Two daemons (or one daemon across a restart) agree on
// a hash exactly when their models classify identically and their
// checkpoints/journals are interchangeable, so the hash is the unit of
// refusal for crash recovery and session handoff, and the unit of
// identity for shadow serving and hot swap.
package modelreg

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"

	"repro/internal/appclass"
	"repro/internal/classify"
	"repro/internal/linalg"
	"repro/internal/phase"
	"repro/internal/wal"
)

// Hash is a model compatibility hash.
type Hash [sha256.Size]byte

// String returns the full hex form.
func (h Hash) String() string { return hex.EncodeToString(h[:]) }

// Short returns the 12-hex-character prefix — the model ID, long
// enough that collisions among one daemon's models are implausible and
// short enough for URLs and log lines.
func (h Hash) Short() string { return hex.EncodeToString(h[:6]) }

// IsZero reports whether the hash is unset.
func (h Hash) IsZero() bool { return h == Hash{} }

// ParseHash decodes a full hex hash.
func ParseHash(s string) (Hash, error) {
	var h Hash
	b, err := hex.DecodeString(s)
	if err != nil {
		return h, fmt.Errorf("modelreg: parse hash: %w", err)
	}
	if len(b) != len(h) {
		return h, fmt.Errorf("modelreg: parse hash: %d bytes, want %d", len(b), len(h))
	}
	copy(h[:], b)
	return h, nil
}

// Params are the serving-behaviour knobs hashed alongside the trained
// model: a model promoted with different open-set or segmentation
// settings classifies sessions differently, so it is a different model.
// Negative values mean the corresponding feature is disabled, and hash
// differently from any enabled setting.
type Params struct {
	// OpenSetQuantile and OpenSetSlack parameterize open-set
	// calibration; OpenSetSlack < 0 disables the open-set test.
	OpenSetQuantile float64
	OpenSetSlack    float64
	// SegWindow, SegMinLen, and SegThreshold parameterize phase
	// segmentation; SegWindow < 0 disables it.
	SegWindow    int
	SegMinLen    int
	SegThreshold float64
}

// DefaultParams returns the daemon's default serving parameters (both
// open-set verdicts and phase segmentation enabled at their package
// defaults).
func DefaultParams() Params {
	return Params{
		OpenSetQuantile: classify.DefaultOpenSetQuantile,
		OpenSetSlack:    classify.DefaultOpenSetSlack,
		SegWindow:       phase.DefaultWindow,
		SegMinLen:       phase.DefaultMinLen,
		SegThreshold:    phase.DefaultThreshold,
	}
}

// hashInputs is the canonical byte layout fed to sha256. Strings are
// written null-terminated, integers as little-endian uint64, floats as
// the little-endian bits of their IEEE-754 representation, matrices
// row-major with their dimensions first. Any representational change
// here must bump the leading format tag.
const hashFormatTag = "appclassd-model-hash-v1"

type hasher struct {
	sum     hash.Hash
	scratch [8]byte
}

func newHasher() *hasher {
	return &hasher{sum: sha256.New()}
}

func (w *hasher) str(s string) {
	w.sum.Write([]byte(s))
	w.scratch[0] = 0
	w.sum.Write(w.scratch[:1])
}

func (w *hasher) u64(v uint64) {
	binary.LittleEndian.PutUint64(w.scratch[:], v)
	w.sum.Write(w.scratch[:])
}

func (w *hasher) i64(v int) { w.u64(uint64(int64(v))) }

func (w *hasher) f64(v float64) { w.u64(math.Float64bits(v)) }

func (w *hasher) vec(v linalg.Vector) {
	w.i64(len(v))
	for _, x := range v {
		w.f64(x)
	}
}

func (w *hasher) mat(m *linalg.Matrix) {
	if m == nil {
		w.i64(-1)
		return
	}
	w.i64(m.Rows())
	w.i64(m.Cols())
	for i := 0; i < m.Rows(); i++ {
		row := m.RowView(i)
		for _, x := range row {
			w.f64(x)
		}
	}
}

func (w *hasher) finish() Hash {
	var h Hash
	w.sum.Sum(h[:0])
	return h
}

// HashInputs is everything the compatibility hash covers. Use
// HashClassifier to derive one from a trained classifier.
type HashInputs struct {
	// JournalFormat is the WAL segment format version the model will be
	// served against (wal.SegmentFormatVersion for a live daemon).
	JournalFormat uint32
	// ExpertMetrics is the ordered expert-metric name list (the schema
	// subset the fused kernel gathers).
	ExpertMetrics []string
	// K and Q are the k-NN vote count and the fused feature
	// dimensionality.
	K, Q int
	// W (q×p) and B are the fused affine kernel.
	W *linalg.Matrix
	B linalg.Vector
	// TrainPoints (n×q) and TrainLabels are the interned k-NN training
	// set, in training order.
	TrainPoints *linalg.Matrix
	TrainLabels []string
	// Params are the serving-behaviour knobs.
	Params Params
}

// ComputeHash derives the deterministic compatibility hash. Identical
// inputs hash identically across processes and platforms; any
// single-field change — one weight, one label, one threshold knob, the
// journal format — produces a different hash.
func ComputeHash(in HashInputs) Hash {
	w := newHasher()
	w.str(hashFormatTag)
	w.u64(uint64(in.JournalFormat))
	w.i64(len(in.ExpertMetrics))
	for _, name := range in.ExpertMetrics {
		w.str(name)
	}
	w.i64(in.K)
	w.i64(in.Q)
	w.mat(in.W)
	w.vec(in.B)
	w.mat(in.TrainPoints)
	w.i64(len(in.TrainLabels))
	for _, l := range in.TrainLabels {
		w.str(l)
	}
	w.f64(in.Params.OpenSetQuantile)
	w.f64(in.Params.OpenSetSlack)
	w.i64(in.Params.SegWindow)
	w.i64(in.Params.SegMinLen)
	w.f64(in.Params.SegThreshold)
	return w.finish()
}

// HashClassifier derives the compatibility hash of a trained classifier
// served under the given params and the current journal format.
func HashClassifier(cl *classify.Classifier, p Params) (Hash, error) {
	w, b := cl.FusedParams()
	if w == nil {
		return Hash{}, fmt.Errorf("modelreg: hash: classifier is not trained")
	}
	points, labels := cl.TrainingPoints()
	return ComputeHash(HashInputs{
		JournalFormat: wal.SegmentFormatVersion,
		ExpertMetrics: cl.Config().ExpertMetrics,
		K:             cl.Config().K,
		Q:             w.Rows(),
		W:             w,
		B:             b,
		TrainPoints:   points,
		TrainLabels:   classStrings(labels),
		Params:        p,
	}), nil
}

func classStrings(labels []appclass.Class) []string {
	out := make([]string, len(labels))
	for i, l := range labels {
		out[i] = string(l)
	}
	return out
}
