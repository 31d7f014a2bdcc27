package knn

import (
	"fmt"
	"math"

	"repro/internal/linalg"
)

// GridIndex accelerates nearest-neighbour queries over two-dimensional
// feature spaces (the classifier's PCA output is 2-D) by bucketing
// training points into a uniform grid and searching outward in rings.
// Results are exactly the brute-force neighbours; the index only changes
// the search order.
//
// The grid is flat: the points are stored cell by cell, row-major, in
// xs, ys and ids, and start[c]..start[c+1] delimit cell c = y*nx + x,
// so a run of cells along one grid row is one contiguous slice.
type GridIndex struct {
	cell       float64
	minX, minY float64
	nx, ny     int       // cells per axis
	start      []int32   // nx*ny+1 cell offsets into xs, ys and ids
	xs, ys     []float64 // point coordinates, cell-sorted
	ids        []int32   // training index of each cell-sorted point
	pos        []int32   // pos[i] is training point i's cell-sorted slot
	labels     []string
}

// maxCellCoord bounds the cell coordinates the ring search accepts. A
// grid spans at most 257 cells per axis, so a query this far out is
// nowhere near it; within the bound every ring bound the search
// computes fits a 32-bit int. Beyond it, and for non-finite cell
// coordinates, a query takes the full scan.
const maxCellCoord = 1 << 29

// NewGridIndex builds an index over 2-D points. The cell size is chosen
// so the average bucket holds targetPerCell points (default 8 when <= 0).
func NewGridIndex(points []linalg.Vector, labels []string, targetPerCell int) (*GridIndex, error) {
	if len(points) == 0 {
		return nil, fmt.Errorf("knn: grid index needs points")
	}
	if len(points) != len(labels) {
		return nil, fmt.Errorf("knn: %d points but %d labels", len(points), len(labels))
	}
	if len(points) > math.MaxInt32 {
		return nil, fmt.Errorf("knn: grid index holds at most %d points, got %d", math.MaxInt32, len(points))
	}
	if targetPerCell <= 0 {
		targetPerCell = 8
	}
	minX, minY := math.Inf(1), math.Inf(1)
	maxX, maxY := math.Inf(-1), math.Inf(-1)
	for i, p := range points {
		if len(p) != 2 {
			return nil, fmt.Errorf("knn: grid index requires 2-D points, point %d has %d dims", i, len(p))
		}
		if math.IsNaN(p[0]) || math.IsNaN(p[1]) || math.IsInf(p[0], 0) || math.IsInf(p[1], 0) {
			return nil, fmt.Errorf("knn: grid index requires finite points, point %d is %v", i, p)
		}
		minX, maxX = math.Min(minX, p[0]), math.Max(maxX, p[0])
		minY, maxY = math.Min(minY, p[1]), math.Max(maxY, p[1])
	}
	spanX, spanY := maxX-minX, maxY-minY
	area := spanX * spanY
	var cell float64
	switch {
	case area > 0:
		cell = math.Sqrt(area * float64(targetPerCell) / float64(len(points)))
	case spanX > 0:
		cell = spanX * float64(targetPerCell) / float64(len(points))
	case spanY > 0:
		cell = spanY * float64(targetPerCell) / float64(len(points))
	default:
		cell = 1 // all points identical
	}
	// Bound the grid to at most ~256 cells per axis so elongated data
	// cannot produce degenerate, ring-search-hostile geometries.
	if bound := math.Max(spanX, spanY) / 256; cell < bound {
		cell = bound
	}
	g := &GridIndex{cell: cell, minX: minX, minY: minY, nx: 1, ny: 1, labels: append([]string(nil), labels...)}
	if cell > 0 && !math.IsInf(cell, 1) {
		g.nx = int(math.Floor(spanX/cell)) + 1
		g.ny = int(math.Floor(spanY/cell)) + 1
	} else {
		// A span beyond the float64 range, or too fine to divide: one
		// infinite cell holds everything, and a query whose offset from
		// it overflows takes the full scan.
		g.cell = math.Inf(1)
	}
	// Counting sort by cell, stable in training order.
	cells := make([]int, len(points))
	g.start = make([]int32, g.nx*g.ny+1)
	for i, p := range points {
		c := 0
		if g.nx*g.ny > 1 {
			c = int(math.Floor((p[1]-minY)/g.cell))*g.nx + int(math.Floor((p[0]-minX)/g.cell))
		}
		cells[i] = c
		g.start[c+1]++
	}
	for c := 1; c < len(g.start); c++ {
		g.start[c] += g.start[c-1]
	}
	g.xs = make([]float64, len(points))
	g.ys = make([]float64, len(points))
	g.ids = make([]int32, len(points))
	g.pos = make([]int32, len(points))
	next := append([]int32(nil), g.start[:len(g.start)-1]...)
	for i, p := range points {
		j := next[cells[i]]
		next[cells[i]]++
		g.xs[j], g.ys[j], g.ids[j], g.pos[i] = p[0], p[1], int32(i), j
	}
	return g, nil
}

// Len returns the number of indexed points.
func (g *GridIndex) Len() int { return len(g.ids) }

// Neighbors returns the k nearest indexed points to x, closest first,
// identical to the brute-force result (ties broken by insertion order).
func (g *GridIndex) Neighbors(x linalg.Vector, k int) ([]Neighbor, error) {
	return g.NeighborsInto(x, k, nil)
}

// NeighborsInto is Neighbors with a caller-owned result buffer: best's
// backing array is reused (it needs capacity k to avoid growth), so a
// query with a recycled buffer performs no allocation. The returned
// slice aliases best's array. A query with a NaN or infinite
// coordinate, or one too far out for cell arithmetic, is answered by a
// full scan in training order, so it still gets min(k, Len()) neighbours
// and exactly the brute-force ones.
func (g *GridIndex) NeighborsInto(x linalg.Vector, k int, best []Neighbor) ([]Neighbor, error) {
	if len(x) != 2 {
		return nil, fmt.Errorf("knn: grid query must be 2-D, got %d dims", len(x))
	}
	if k <= 0 {
		return nil, fmt.Errorf("knn: k must be positive, got %d", k)
	}
	if k > len(g.ids) {
		k = len(g.ids)
	}
	q := query{best: best[:0], k: k, x: x[0], y: x[1], limit: math.Inf(1)}
	fx := math.Floor((x[0] - g.minX) / g.cell)
	fy := math.Floor((x[1] - g.minY) / g.cell)
	if math.Abs(fx) <= maxCellCoord && math.Abs(fy) <= maxCellCoord {
		g.searchRings(int(fx), int(fy), &q)
	} else {
		for _, j := range g.pos {
			q.scan(g.xs[j:j+1], g.ys[j:j+1], g.ids[j:j+1])
		}
	}
	// Labels are written only into the neighbours returned.
	for i := range q.best {
		q.best[i].Label = g.labels[q.best[i].Index]
	}
	return q.best, nil
}

// searchRings expands square rings around cell (cx, cy) until the k-th
// best distance is guaranteed: any point in a cell at Chebyshev ring
// distance > r is at least r*cell away from the query. Rings nearer
// than the grid are empty and are skipped outright (a query far
// outside the grid would otherwise march millions of empty rings); the
// last ring that can contain data is the Chebyshev distance from the
// query cell to the grid's far corner.
func (g *GridIndex) searchRings(cx, cy int, q *query) {
	lastX, lastY := g.nx-1, g.ny-1
	firstRing := max(0, -cx, cx-lastX, -cy, cy-lastY)
	maxRing := max(absInt(cx), absInt(cx-lastX), absInt(cy), absInt(cy-lastY)) + 1
	seen := 0
	for r := firstRing; r <= maxRing; r++ {
		seen += g.scanRing(cx, cy, r, q)
		if seen == len(g.ids) {
			break // everything scanned; no farther ring can help
		}
		if len(q.best) == q.k && q.best[q.k-1].Distance <= float64(r)*g.cell {
			break
		}
	}
}

func absInt(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// scanRing offers every point from cells at exactly Chebyshev distance
// r from cell (cx, cy) to q, returning how many points it offered. The
// ring's top and bottom edges are clamped to the grid, so each is one
// contiguous run of a grid row and the cost per ring is bounded by the
// grid's perimeter, not the ring radius.
func (g *GridIndex) scanRing(cx, cy, r int, q *query) int {
	loX, hiX := max(cx-r, 0), min(cx+r, g.nx-1)
	if r == 0 {
		return g.scanRow(cy, loX, hiX, q)
	}
	n := g.scanRow(cy-r, loX, hiX, q) + g.scanRow(cy+r, loX, hiX, q)
	for y, hiY := max(cy-r+1, 0), min(cy+r-1, g.ny-1); y <= hiY; y++ {
		n += g.scanRow(y, cx-r, cx-r, q) + g.scanRow(y, cx+r, cx+r, q)
	}
	return n
}

// scanRow offers the points of cells lo..hi of grid row y to q and
// returns how many it offered; cells outside the grid hold none.
func (g *GridIndex) scanRow(y, lo, hi int, q *query) int {
	if y < 0 || y >= g.ny || lo < 0 || hi >= g.nx || lo > hi {
		return 0
	}
	a, b := g.start[y*g.nx+lo], g.start[y*g.nx+hi+1]
	q.scan(g.xs[a:b], g.ys[a:b], g.ids[a:b])
	return int(b - a)
}

// query is one k-nearest-neighbour search in progress: the running
// top-k, sorted by neighborLess, and the squared-distance limit above
// which a point cannot enter it.
type query struct {
	best  []Neighbor
	k     int
	x, y  float64
	limit float64
}

// scan offers each point to the running top-k. A point first faces the
// squared-distance prefilter; only those that pass pay the exact
// math.Hypot that insertTopK ranks by.
func (q *query) scan(xs, ys []float64, ids []int32) {
	ys, ids = ys[:len(xs)], ids[:len(xs)]
	for j, px := range xs {
		dx, dy := px-q.x, ys[j]-q.y
		if dx*dx+dy*dy > q.limit {
			continue
		}
		insertTopK(&q.best, Neighbor{Index: int(ids[j]), Distance: math.Hypot(dx, dy)}, q.k)
		if len(q.best) == q.k {
			q.limit = prefilterLimit(q.best[q.k-1].Distance)
		}
	}
}

// prefilterLimit returns the squared distance above which a point
// cannot enter a full top-k whose k-th distance is kth, or +Inf (no
// prefilter) when kth lies outside (1e-150, 1e150).
//
// Why a point with dx*dx+dy*dy > kth*kth*(1+1e-9) is safe to drop: with
// u = 2^-53, the computed square sum is at most (1+u)^2 times the exact
// S = dx²+dy², whether or not the compiler fuses the multiply-add (plus
// an underflow residue below 1e-320, negligible next to a limit of at
// least 1e-300), and the computed limit is at least kth²(1+1e-9)(1-u)^3,
// since kth² lies in [1e-300, 1e300] where nothing overflows or
// underflows. So S > kth²(1+1e-9-6u), and
// sqrt(S) > kth(1+4.9e-10). math.Hypot computes p·sqrt(1+(q/p)²) to
// within 5u relative error, so it returns more than kth: the point is
// strictly farther than the k-th neighbour, which insertTopK would
// reject too. A square that overflows to +Inf means a coordinate gap
// above 1e154 > kth, again a rejection; a NaN never exceeds the limit,
// so it takes the exact path.
func prefilterLimit(kth float64) float64 {
	if kth > 1e-150 && kth < 1e150 {
		return kth * kth * (1 + 1e-9)
	}
	return math.Inf(1)
}

// Classify returns the majority label of x's k nearest neighbours with
// the same tie rule as Classifier.Classify.
func (g *GridIndex) Classify(x linalg.Vector, k int) (string, error) {
	nbrs, err := g.Neighbors(x, k)
	if err != nil {
		return "", err
	}
	counts := make(map[string]int, len(nbrs))
	best := 0
	for _, n := range nbrs {
		counts[n.Label]++
		if counts[n.Label] > best {
			best = counts[n.Label]
		}
	}
	for _, n := range nbrs {
		if counts[n.Label] == best {
			return n.Label, nil
		}
	}
	return "", fmt.Errorf("knn: vote produced no label") // unreachable
}
