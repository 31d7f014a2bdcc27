// Package knn implements the k-nearest-neighbour classifier of
// Section 3: the class of a test point is the majority vote of the k
// training points geometrically closest to it in the feature space. The
// paper uses k = 3 ("an odd number") over the two-dimensional PCA
// feature space.
package knn

import (
	"fmt"
	"math"

	"repro/internal/linalg"
)

// Distance measures how far apart two feature vectors are.
type Distance func(a, b linalg.Vector) (float64, error)

// Euclidean is the default distance.
func Euclidean(a, b linalg.Vector) (float64, error) { return a.Dist(b) }

// Manhattan is the L1 distance, available for ablation experiments.
func Manhattan(a, b linalg.Vector) (float64, error) {
	if len(a) != len(b) {
		return 0, fmt.Errorf("knn: manhattan distance of %d vs %d dims", len(a), len(b))
	}
	var s float64
	for i := range a {
		s += math.Abs(a[i] - b[i])
	}
	return s, nil
}

// Classifier is a k-NN classifier over labelled feature vectors.
type Classifier struct {
	k      int
	dist   Distance
	points []linalg.Vector
	labels []string
	dims   int
	// Labels are interned at Train time: classNames holds the distinct
	// labels in first-seen order, classIDs the per-point index into it.
	// The integer fast path (ClassifyID) votes over these IDs and never
	// touches a label string.
	classNames []string
	classIDs   []int
	classIndex map[string]int
	// index, when enabled, accelerates Euclidean 2-D queries without
	// changing results.
	index *GridIndex
	// customDist records whether WithDistance replaced the Euclidean
	// default (the grid index hard-codes Euclidean geometry).
	customDist bool
}

// Option configures a Classifier.
type Option func(*Classifier)

// WithDistance overrides the Euclidean default.
func WithDistance(d Distance) Option {
	return func(c *Classifier) {
		c.dist = d
		c.customDist = true
	}
}

// New creates a k-NN classifier. k must be positive and odd (the paper's
// tie-avoidance rule).
func New(k int, opts ...Option) (*Classifier, error) {
	if k <= 0 {
		return nil, fmt.Errorf("knn: k must be positive, got %d", k)
	}
	if k%2 == 0 {
		return nil, fmt.Errorf("knn: k must be odd (the paper's rule), got %d", k)
	}
	c := &Classifier{k: k, dist: Euclidean}
	for _, o := range opts {
		o(c)
	}
	return c, nil
}

// K returns the configured neighbour count.
func (c *Classifier) K() int { return c.k }

// Len returns the number of training points.
func (c *Classifier) Len() int { return len(c.points) }

// Train adds labelled points to the training set. All points across all
// Train calls must have the same dimensionality.
func (c *Classifier) Train(points []linalg.Vector, labels []string) error {
	if len(points) != len(labels) {
		return fmt.Errorf("knn: %d points but %d labels", len(points), len(labels))
	}
	for i, p := range points {
		if len(p) == 0 {
			return fmt.Errorf("knn: empty training point at %d", i)
		}
		if c.dims == 0 {
			c.dims = len(p)
		}
		if len(p) != c.dims {
			return fmt.Errorf("knn: training point %d has %d dims, want %d", i, len(p), c.dims)
		}
		if labels[i] == "" {
			return fmt.Errorf("knn: empty label at %d", i)
		}
		c.points = append(c.points, p.Clone())
		c.labels = append(c.labels, labels[i])
		if c.classIndex == nil {
			c.classIndex = make(map[string]int)
		}
		id, ok := c.classIndex[labels[i]]
		if !ok {
			id = len(c.classNames)
			c.classIndex[labels[i]] = id
			c.classNames = append(c.classNames, labels[i])
		}
		c.classIDs = append(c.classIDs, id)
	}
	// New training data invalidates any built index.
	c.index = nil
	return nil
}

// NumClasses returns the number of distinct training labels.
func (c *Classifier) NumClasses() int { return len(c.classNames) }

// ClassName returns the label interned as id (see ClassifyID).
func (c *Classifier) ClassName(id int) string {
	if id < 0 || id >= len(c.classNames) {
		panic(fmt.Sprintf("knn: class id %d out of range [0,%d)", id, len(c.classNames)))
	}
	return c.classNames[id]
}

// Classes returns the distinct training labels in interning order: the
// label interned as id i is at position i.
func (c *Classifier) Classes() []string {
	return append([]string(nil), c.classNames...)
}

// EnableIndex builds a grid index over the training data, accelerating
// subsequent queries. It requires two-dimensional points and the
// Euclidean distance (the classifier's PCA feature space satisfies
// both); results are identical to brute force.
func (c *Classifier) EnableIndex() error {
	if len(c.points) == 0 {
		return fmt.Errorf("knn: cannot index an untrained classifier")
	}
	if c.dims != 2 {
		return fmt.Errorf("knn: grid index requires 2-D points, trained on %d dims", c.dims)
	}
	// The index hard-codes Euclidean geometry.
	if c.customDist {
		return fmt.Errorf("knn: grid index requires the Euclidean distance")
	}
	idx, err := NewGridIndex(c.points, c.labels, 0)
	if err != nil {
		return err
	}
	c.index = idx
	return nil
}

// Indexed reports whether a grid index is active.
func (c *Classifier) Indexed() bool { return c.index != nil }

// Neighbor is one training point ranked by distance to a query.
type Neighbor struct {
	Index    int
	Label    string
	Distance float64
}

// neighborLess orders candidates by distance, breaking exact ties by
// training insertion order — the brute-force stable-sort order, which
// the grid index and the top-k kernels must reproduce exactly.
func neighborLess(a, b Neighbor) bool {
	if a.Distance != b.Distance {
		return a.Distance < b.Distance
	}
	return a.Index < b.Index
}

// insertTopK inserts nb into best — kept sorted by neighborLess with at
// most k entries — shifting worse entries down. best must have capacity
// k so steady-state insertion never allocates.
func insertTopK(best *[]Neighbor, nb Neighbor, k int) {
	b := *best
	if len(b) == k {
		if !neighborLess(nb, b[k-1]) {
			return
		}
	} else {
		b = append(b, Neighbor{})
	}
	i := len(b) - 1
	for i > 0 && neighborLess(nb, b[i-1]) {
		b[i] = b[i-1]
		i--
	}
	b[i] = nb
	*best = b
}

// Scratch holds the caller-owned buffers of the allocation-free query
// path (ClassifyID and the batch kernels). The zero value is ready to
// use; buffers grow on first use and are reused afterwards. A Scratch
// must not be shared between concurrent queries.
type Scratch struct {
	cand  []Neighbor
	votes []int
}

// neighborsInto finds the k nearest neighbours of x, closest first,
// reusing best's backing array. With the grid index enabled (and the
// default Euclidean distance) the search is allocation-free; the
// brute-force fallback allocates inside the pluggable Distance.
func (c *Classifier) neighborsInto(x linalg.Vector, k int, best []Neighbor) ([]Neighbor, error) {
	if c.index != nil {
		return c.index.NeighborsInto(x, k, best)
	}
	best = best[:0]
	for i, p := range c.points {
		d, err := c.dist(x, p)
		if err != nil {
			return nil, err
		}
		insertTopK(&best, Neighbor{Index: i, Label: c.labels[i], Distance: d}, k)
	}
	return best, nil
}

// Neighbors returns the k training points nearest to x, closest first.
// Equal distances break ties by training insertion order, keeping
// results deterministic.
func (c *Classifier) Neighbors(x linalg.Vector) ([]Neighbor, error) {
	if len(c.points) == 0 {
		return nil, fmt.Errorf("knn: classifier has no training data")
	}
	if len(x) != c.dims {
		return nil, fmt.Errorf("knn: query has %d dims, trained on %d", len(x), c.dims)
	}
	k := c.k
	if k > len(c.points) {
		k = len(c.points)
	}
	return c.neighborsInto(x, k, make([]Neighbor, 0, k))
}

// ClassifyID returns the interned class ID (see ClassName) of the
// majority vote of the k nearest neighbours of x — the integer fast
// path: no label strings are touched and, with a grid index and a
// reused Scratch, nothing is allocated. A nil scratch classifies with
// temporary buffers. The tie rule matches Classify: the nearest
// neighbour among tied classes wins.
func (c *Classifier) ClassifyID(x linalg.Vector, s *Scratch) (int, error) {
	id, _, err := c.ClassifyIDDist(x, s)
	return id, err
}

// ClassifyIDDist is ClassifyID plus the distance to the kth nearest
// neighbour — the open-set novelty signal: a query far from all
// training points of its voted class is not well explained by that
// class. The distance comes for free from the neighbour search, so
// this path is exactly as fast and allocation-free as ClassifyID.
func (c *Classifier) ClassifyIDDist(x linalg.Vector, s *Scratch) (int, float64, error) {
	if len(c.points) == 0 {
		return 0, 0, fmt.Errorf("knn: classifier has no training data")
	}
	if len(x) != c.dims {
		return 0, 0, fmt.Errorf("knn: query has %d dims, trained on %d", len(x), c.dims)
	}
	if s == nil {
		s = &Scratch{}
	}
	k := c.k
	if k > len(c.points) {
		k = len(c.points)
	}
	if cap(s.cand) < k {
		s.cand = make([]Neighbor, 0, k)
	}
	nbrs, err := c.neighborsInto(x, k, s.cand[:0])
	if err != nil {
		return 0, 0, err
	}
	s.cand = nbrs[:0]
	if len(nbrs) == 0 {
		return 0, 0, fmt.Errorf("knn: neighbour search of %v found no neighbours", x)
	}
	if cap(s.votes) < len(c.classNames) {
		s.votes = make([]int, len(c.classNames))
	}
	votes := s.votes[:len(c.classNames)]
	for i := range votes {
		votes[i] = 0
	}
	best := 0
	for _, n := range nbrs {
		id := c.classIDs[n.Index]
		votes[id]++
		if votes[id] > best {
			best = votes[id]
		}
	}
	// Neighbours are sorted by distance: the kth distance is the last
	// entry's, and the first tied class is the nearest one.
	kth := nbrs[len(nbrs)-1].Distance
	for _, n := range nbrs {
		if id := c.classIDs[n.Index]; votes[id] == best {
			return id, kth, nil
		}
	}
	return 0, 0, fmt.Errorf("knn: vote produced no label") // unreachable
}

// Classify returns the majority label of the k nearest neighbours of x.
// If the vote ties (possible with more classes than k), the label of the
// nearest neighbour among the tied labels wins.
func (c *Classifier) Classify(x linalg.Vector) (string, error) {
	id, err := c.ClassifyID(x, nil)
	if err != nil {
		return "", err
	}
	return c.classNames[id], nil
}

// classifyIDsRange classifies rows [lo, hi) of a matrix into out,
// sharing one scratch across the range and reading rows in place — the
// per-worker body of the blocked batch kernel.
func (c *Classifier) classifyIDsRange(rows *linalg.Matrix, out []int, lo, hi int, s *Scratch) error {
	for i := lo; i < hi; i++ {
		id, err := c.ClassifyID(rows.RowView(i), s)
		if err != nil {
			return fmt.Errorf("knn: row %d: %w", i, err)
		}
		out[i] = id
	}
	return nil
}

// ClassifyIDs classifies every row of a matrix into out (one interned
// class ID per row), reusing scratch across the whole batch. out must
// have rows.Rows() entries. This is the batch kernel behind
// ClassifyBatch and ClassifyBatchParallel.
func (c *Classifier) ClassifyIDs(rows *linalg.Matrix, out []int, s *Scratch) error {
	if len(out) != rows.Rows() {
		return fmt.Errorf("knn: %d outputs for %d rows", len(out), rows.Rows())
	}
	if s == nil {
		s = &Scratch{}
	}
	return c.classifyIDsRange(rows, out, 0, rows.Rows(), s)
}

// ClassifyBatch classifies each row of a matrix, returning one label per
// row.
func (c *Classifier) ClassifyBatch(rows *linalg.Matrix) ([]string, error) {
	ids := make([]int, rows.Rows())
	if err := c.ClassifyIDs(rows, ids, nil); err != nil {
		return nil, err
	}
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = c.classNames[id]
	}
	return out, nil
}
