package classify

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"repro/internal/appclass"
	"repro/internal/knn"
	"repro/internal/linalg"
	"repro/internal/pca"
	"repro/internal/stats"
)

// persistedClassifier is the JSON wire form of a trained classifier:
// the configuration, the normalization parameters, the PCA projection,
// and the projected, labelled training points.
type persistedClassifier struct {
	Version       int         `json:"version"`
	ExpertMetrics []string    `json:"expert_metrics"`
	K             int         `json:"k"`
	Q             int         `json:"q"`
	NormMeans     []float64   `json:"norm_means"`
	NormStdDevs   []float64   `json:"norm_stddevs"`
	Eigenvalues   []float64   `json:"eigenvalues"`
	ColMeans      []float64   `json:"pca_col_means"`
	Components    [][]float64 `json:"components"` // p rows of q values
	TrainPoints   [][]float64 `json:"train_points"`
	TrainLabels   []string    `json:"train_labels"`
}

const persistVersion = 1

// Save serializes the trained classifier as JSON.
func (c *Classifier) Save(w io.Writer) error {
	params := c.normalizer.Params()
	doc := persistedClassifier{
		Version:       persistVersion,
		ExpertMetrics: append([]string(nil), c.cfg.ExpertMetrics...),
		K:             c.cfg.K,
		Q:             c.model.Q,
		Eigenvalues:   append([]float64(nil), c.model.Eigenvalues...),
		ColMeans:      c.model.ColMeans(),
	}
	for _, z := range params {
		doc.NormMeans = append(doc.NormMeans, z.Mean)
		doc.NormStdDevs = append(doc.NormStdDevs, z.StdDev)
	}
	comps := c.model.Components
	for i := 0; i < comps.Rows(); i++ {
		doc.Components = append(doc.Components, comps.Row(i))
	}
	for i := 0; i < c.trainPoints.Rows(); i++ {
		doc.TrainPoints = append(doc.TrainPoints, c.trainPoints.Row(i))
	}
	for _, l := range c.trainLabels {
		doc.TrainLabels = append(doc.TrainLabels, string(l))
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(doc); err != nil {
		return fmt.Errorf("classify: save: %w", err)
	}
	return nil
}

// LoadFile reads a classifier artifact saved with Save from path.
func LoadFile(path string) (*Classifier, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("classify: %w", err)
	}
	defer f.Close()
	cl, err := Load(f)
	if err != nil {
		return nil, fmt.Errorf("%w (%s)", err, path)
	}
	return cl, nil
}

// Load reconstructs a classifier saved with Save.
func Load(r io.Reader) (*Classifier, error) {
	var doc persistedClassifier
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return nil, fmt.Errorf("classify: load: %w", err)
	}
	if doc.Version != persistVersion {
		return nil, fmt.Errorf("classify: unsupported model version %d", doc.Version)
	}
	p := len(doc.ExpertMetrics)
	if p == 0 {
		return nil, fmt.Errorf("classify: model has no metrics")
	}
	if len(doc.NormMeans) != p || len(doc.NormStdDevs) != p || len(doc.ColMeans) != p {
		return nil, fmt.Errorf("classify: model parameter arity mismatch")
	}
	if doc.K <= 0 || doc.K%2 == 0 {
		return nil, fmt.Errorf("classify: model k = %d invalid", doc.K)
	}
	if doc.Q <= 0 || doc.Q > p {
		return nil, fmt.Errorf("classify: model q = %d invalid for %d metrics", doc.Q, p)
	}
	zs := make([]stats.ZScore, p)
	for i := range zs {
		if doc.NormStdDevs[i] <= 0 {
			return nil, fmt.Errorf("classify: model normalizer stddev %d not positive", i)
		}
		zs[i] = stats.ZScore{Mean: doc.NormMeans[i], StdDev: doc.NormStdDevs[i]}
	}
	norm := pca.NormalizerFromParams(zs)
	comps, err := linalg.FromRows(doc.Components)
	if err != nil {
		return nil, fmt.Errorf("classify: model components: %w", err)
	}
	if comps.Rows() != p || comps.Cols() != doc.Q {
		return nil, fmt.Errorf("classify: model components are %dx%d, want %dx%d",
			comps.Rows(), comps.Cols(), p, doc.Q)
	}
	model, err := pca.ModelFromParams(comps, doc.Eigenvalues, doc.Q, doc.ColMeans)
	if err != nil {
		return nil, fmt.Errorf("classify: model: %w", err)
	}
	if len(doc.TrainPoints) == 0 || len(doc.TrainPoints) != len(doc.TrainLabels) {
		return nil, fmt.Errorf("classify: model has %d points but %d labels",
			len(doc.TrainPoints), len(doc.TrainLabels))
	}
	points, err := linalg.FromRows(doc.TrainPoints)
	if err != nil {
		return nil, fmt.Errorf("classify: model points: %w", err)
	}
	if points.Cols() != doc.Q {
		return nil, fmt.Errorf("classify: model points have %d dims, want %d", points.Cols(), doc.Q)
	}
	nn, err := knn.New(doc.K)
	if err != nil {
		return nil, err
	}
	vecs := make([]linalg.Vector, points.Rows())
	labels := make([]appclass.Class, points.Rows())
	for i := range vecs {
		vecs[i] = points.Row(i)
		cl, err := appclass.Parse(doc.TrainLabels[i])
		if err != nil {
			return nil, fmt.Errorf("classify: model label %d: %w", i, err)
		}
		labels[i] = cl
	}
	if err := nn.Train(vecs, doc.TrainLabels); err != nil {
		return nil, err
	}
	if doc.Q == 2 {
		if err := nn.EnableIndex(); err != nil {
			return nil, fmt.Errorf("classify: index k-NN: %w", err)
		}
	}
	c := &Classifier{
		cfg: Config{
			ExpertMetrics: doc.ExpertMetrics,
			Components:    doc.Q,
			K:             doc.K,
		},
		normalizer:  norm,
		model:       model,
		nn:          nn,
		trainPoints: points,
		trainLabels: labels,
	}
	// A loaded classifier gets the same precomputed fused kernel as a
	// freshly trained one.
	if err := c.finish(); err != nil {
		return nil, err
	}
	return c, nil
}
