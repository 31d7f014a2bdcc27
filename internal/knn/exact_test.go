package knn

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/linalg"
)

// referenceOrder ranks every point by math.Hypot distance to x with
// neighborLess (distance, then training index), by a stable sort over
// all points: the brute-force answer the grid index must reproduce.
// Its first k entries are the k nearest neighbours.
func referenceOrder(points []linalg.Vector, labels []string, x linalg.Vector) []Neighbor {
	all := make([]Neighbor, len(points))
	for i, p := range points {
		all[i] = Neighbor{Index: i, Label: labels[i], Distance: math.Hypot(p[0]-x[0], p[1]-x[1])}
	}
	sort.SliceStable(all, func(a, b int) bool { return neighborLess(all[a], all[b]) })
	return all
}

// checkExact queries g for every k in 1..n+1 and requires the
// reference's indices, labels and distance bits. A query whose
// distances are NaN must still get min(k, n) neighbours, the same ones
// on a repeated query.
func checkExact(t testing.TB, g *GridIndex, points []linalg.Vector, labels []string, x linalg.Vector, kmax int) {
	t.Helper()
	ref := referenceOrder(points, labels, x)
	var buf []Neighbor
	for k := 1; k <= kmax; k++ {
		got, err := g.NeighborsInto(x, k, buf)
		if err != nil {
			t.Fatalf("query %v k=%d: %v", x, k, err)
		}
		want := ref[:min(k, len(ref))]
		if len(got) != len(want) {
			t.Fatalf("query %v k=%d: %d neighbours, want %d", x, k, len(got), len(want))
		}
		for i := range want {
			if got[i].Index != want[i].Index || got[i].Label != want[i].Label ||
				math.Float64bits(got[i].Distance) != math.Float64bits(want[i].Distance) {
				t.Fatalf("query %v k=%d neighbour %d: got %+v, want %+v", x, k, i, got[i], want[i])
			}
		}
		if math.IsNaN(want[len(want)-1].Distance) {
			again, err := g.Neighbors(x, k)
			if err != nil || len(again) != len(got) {
				t.Fatalf("query %v k=%d: repeat gave %d neighbours (%v)", x, k, len(again), err)
			}
			for i := range again {
				if again[i].Index != got[i].Index {
					t.Fatalf("query %v k=%d: repeat neighbour %d is %d, first query %d", x, k, i, again[i].Index, got[i].Index)
				}
			}
		}
		buf = got
	}
}

// exactPointSets are the point sets the exactness tests run over: the
// shapes that stress the grid's geometry and tie rule.
func exactPointSets() map[string][]linalg.Vector {
	rng := rand.New(rand.NewSource(91))
	sets := map[string][]linalg.Vector{
		"single":        {{2.5, -1}},
		"all-identical": {{5, 5}, {5, 5}, {5, 5}, {5, 5}, {5, 5}},
	}
	var clustered []linalg.Vector
	for _, c := range [][2]float64{{0, 0}, {8, 0}, {0, 8}, {8, 8}} {
		for i := 0; i < 30; i++ {
			clustered = append(clustered, linalg.Vector{c[0] + rng.NormFloat64(), c[1] + rng.NormFloat64()})
		}
	}
	sets["clustered"] = clustered
	var dup []linalg.Vector
	for i := 0; i < 25; i++ {
		p := linalg.Vector{float64(rng.Intn(9)), float64(rng.Intn(9))}
		for j := 0; j < 3; j++ {
			dup = append(dup, p.Clone())
		}
	}
	sets["duplicated"] = dup
	var alongX, alongY []linalg.Vector
	for i := 0; i < 40; i++ {
		v := rng.NormFloat64() * 6
		alongX = append(alongX, linalg.Vector{v, 3})
		alongY = append(alongY, linalg.Vector{-2, v})
	}
	sets["collinear-x"], sets["collinear-y"] = alongX, alongY
	return sets
}

// exactQueries returns queries inside the data, on every training
// point, on every cell edge and corner, far outside, and at huge and
// non-finite coordinates.
func exactQueries(g *GridIndex, points []linalg.Vector, rng *rand.Rand) []linalg.Vector {
	var qs []linalg.Vector
	for _, p := range points {
		qs = append(qs, p.Clone())
	}
	spanX := float64(g.nx) * g.cell
	spanY := float64(g.ny) * g.cell
	if math.IsInf(g.cell, 1) {
		spanX, spanY = 1, 1
	}
	for i := 0; i < 20; i++ {
		qs = append(qs, linalg.Vector{g.minX + rng.Float64()*spanX, g.minY + rng.Float64()*spanY})
	}
	if !math.IsInf(g.cell, 1) {
		for i := 0; i <= g.nx; i++ {
			for j := 0; j <= g.ny; j++ {
				x, y := g.minX+float64(i)*g.cell, g.minY+float64(j)*g.cell
				qs = append(qs, linalg.Vector{x, y}, linalg.Vector{x, g.minY + rng.Float64()*spanY},
					linalg.Vector{g.minX + rng.Float64()*spanX, y})
			}
		}
	}
	for i := 0; i < 10; i++ {
		qs = append(qs, linalg.Vector{g.minX + (rng.Float64()-0.5)*2000*(spanX+1), g.minY + (rng.Float64()-0.5)*2000*(spanY+1)})
	}
	extremes := []float64{1e20, -1e20, 1e300, -1e300, math.Inf(1), math.Inf(-1), math.NaN(), g.minX}
	for _, a := range extremes {
		for _, b := range extremes {
			qs = append(qs, linalg.Vector{a, b})
		}
	}
	return qs
}

// TestGridIndexExactAgainstReference is the kernel's exactness
// property: over every point set, query kind and k from 1 to n+1, the
// grid returns the brute-force neighbours, indices and distance bits
// alike.
func TestGridIndexExactAgainstReference(t *testing.T) {
	for name, points := range exactPointSets() {
		t.Run(name, func(t *testing.T) {
			labels := make([]string, len(points))
			for i := range labels {
				labels[i] = fmt.Sprintf("c%d", i%3)
			}
			g, err := NewGridIndex(points, labels, 0)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(len(points))))
			for _, q := range exactQueries(g, points, rng) {
				checkExact(t, g, points, labels, q, len(points)+1)
			}
		})
	}
}

// TestGridIndexNonFiniteQueries pins the queries that once broke the
// ring search: a cell coordinate that overflows an int, or is
// non-finite, must still return k neighbours (the full scan), and
// ClassifyIDDist must return a class and a distance, not panic.
func TestGridIndexNonFiniteQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c := trainRandom2D(t, rng, 300, []string{"cpu", "io", "net"}, true)
	var s Scratch
	for _, q := range []linalg.Vector{
		{1e20, 1e20}, {-1e20, 3}, {1e300, -1e300}, {math.Inf(1), 0}, {0, math.Inf(-1)},
		{math.NaN(), 0}, {math.NaN(), math.NaN()}, {math.NaN(), math.Inf(1)},
	} {
		nbrs, err := c.index.Neighbors(q, 3)
		if err != nil || len(nbrs) != 3 {
			t.Fatalf("query %v: %d neighbours, err %v", q, len(nbrs), err)
		}
		id, dist, err := c.ClassifyIDDist(q, &s)
		if err != nil {
			t.Fatalf("query %v: %v", q, err)
		}
		if id < 0 || id >= c.NumClasses() || !(dist > 1e19 || math.IsNaN(dist)) {
			t.Fatalf("query %v: class %d at distance %v", q, id, dist)
		}
	}
}

// FuzzGridIndex compares the grid with the brute-force reference over
// fuzzed point sets (int8 pairs times a scale, so ties, duplicates and
// collinear runs are common), queries and k.
func FuzzGridIndex(f *testing.F) {
	f.Add([]byte{0, 0, 1, 1, 2, 2, 3, 3}, 1.0, 0.5, 0.5, uint8(3))
	f.Add([]byte{10, 0, 10, 0, 10, 0}, 0.25, 2.5, 0.0, uint8(2))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, 1e300, 1e20, -1e20, uint8(5))
	f.Add([]byte{0, 5, 0, 6, 0, 7, 0, 9}, 3e-320, 0.0, 1e-319, uint8(1))
	f.Add([]byte{7, 7, 200, 9}, 2.0, math.Inf(1), math.NaN(), uint8(4))
	f.Fuzz(func(t *testing.T, raw []byte, scale, qx, qy float64, kb uint8) {
		if len(raw) > 512 {
			raw = raw[:512]
		}
		n := len(raw) / 2
		if n == 0 {
			return
		}
		if math.IsNaN(scale) || math.IsInf(scale, 0) || scale == 0 {
			scale = 1
		}
		points := make([]linalg.Vector, n)
		labels := make([]string, n)
		for i := range points {
			points[i] = linalg.Vector{float64(int8(raw[2*i])) * scale, float64(int8(raw[2*i+1])) * scale}
			labels[i] = fmt.Sprintf("c%d", raw[2*i]%3)
		}
		g, err := NewGridIndex(points, labels, 0)
		if err != nil {
			t.Fatal(err)
		}
		x := linalg.Vector{qx, qy}
		ref := referenceOrder(points, labels, x)
		k := int(kb)%(n+1) + 1
		got, err := g.Neighbors(x, k)
		if err != nil {
			t.Fatal(err)
		}
		want := ref[:min(k, n)]
		if len(got) != len(want) {
			t.Fatalf("query %v k=%d: %d neighbours, want %d", x, k, len(got), len(want))
		}
		for i := range want {
			if got[i].Index != want[i].Index || math.Float64bits(got[i].Distance) != math.Float64bits(want[i].Distance) {
				t.Fatalf("query %v k=%d neighbour %d: got %+v, want %+v", x, k, i, got[i], want[i])
			}
		}
	})
}
