package cluster

import (
	"context"
	"fmt"

	"repro/internal/parallel"
	"repro/internal/prng"
)

// KMeansResult holds one k-means clustering.
type KMeansResult struct {
	K          int
	Assignment []int   // per-row cluster id in [0, K)
	Centroids  *Matrix // K × dims
	SSD        float64 // sum of squared distances to assigned centroids
	Sizes      []int   // rows per cluster
	Iterations int
}

// KMeans runs Lloyd's algorithm with k-means++ seeding. seed makes runs
// reproducible. budget bounds the working memory (0 disables the check).
func KMeans(m *Matrix, k int, seed uint64, budget int64) (*KMeansResult, error) {
	return KMeansP(m, k, seed, budget, 0)
}

// KMeansP is KMeans with an explicit worker bound (workers <= 0 means
// GOMAXPROCS, 1 means fully serial). The assignment and update steps fan
// out over fixed-size row chunks; per-chunk partial sums are merged in
// chunk order, so the result is bit-identical for every worker count.
func KMeansP(m *Matrix, k int, seed uint64, budget int64, workers int) (*KMeansResult, error) {
	if k < 1 {
		return nil, fmt.Errorf("cluster: k must be >= 1, got %d", k)
	}
	if m.Rows == 0 {
		return nil, fmt.Errorf("cluster: empty matrix")
	}
	if k > m.Rows {
		k = m.Rows
	}
	nc := parallel.NumChunks(m.Rows, parChunk)
	// Input + centroids + assignment + per-row distances + per-chunk
	// update partials.
	need := m.Bytes() + int64(k*m.Cols)*8 + int64(m.Rows)*16 +
		int64(nc)*int64(k)*(int64(m.Cols)*8+8)
	if err := validateBudget(need, budget, "k-means"); err != nil {
		return nil, err
	}
	pool := parallel.New(workers)
	ctx := context.Background()

	rng := prng.New(seed)
	centroids := seedPlusPlus(m, k, rng, pool)
	assign := make([]int, m.Rows)
	d2 := make([]float64, m.Rows)
	sizes := make([]int, k)

	// Per-chunk partials for the update step. Chunk boundaries depend
	// only on the row count, so merging them front to back gives the
	// same floating-point grouping regardless of the worker count.
	partSums := make([][]float64, nc)
	partCounts := make([][]int, nc)
	for ci := range partSums {
		partSums[ci] = make([]float64, k*m.Cols)
		partCounts[ci] = make([]int, k)
	}
	chunkChanged := make([]bool, nc)

	var ssd float64
	iterations := 0
	for iter := 0; iter < 200; iter++ {
		iterations = iter + 1
		// Assignment step (fused with partial-sum accumulation).
		cur := centroids
		_ = pool.Run(ctx, m.Rows, parChunk, func(ci, lo, hi int) error {
			ps := partSums[ci]
			pc := partCounts[ci]
			for i := range ps {
				ps[i] = 0
			}
			for i := range pc {
				pc[i] = 0
			}
			changed := false
			for i := lo; i < hi; i++ {
				row := m.Row(i)
				best, bestD := 0, sqDist(row, cur.Row(0))
				for c := 1; c < k; c++ {
					if d := sqDist(row, cur.Row(c)); d < bestD {
						best, bestD = c, d
					}
				}
				if assign[i] != best {
					assign[i] = best
					changed = true
				}
				d2[i] = bestD
				pc[best]++
				crow := ps[best*m.Cols : (best+1)*m.Cols]
				for j := range crow {
					crow[j] += row[j]
				}
			}
			chunkChanged[ci] = changed
			return nil
		})
		// Reductions in fixed order: row order for the SSD, chunk order
		// for the centroid sums.
		ssd = 0
		for _, d := range d2 {
			ssd += d
		}
		changed := false
		for _, ch := range chunkChanged {
			changed = changed || ch
		}
		if !changed && iter > 0 {
			break
		}
		// Update step: merge partials, then divide.
		next := NewMatrix(k, m.Cols)
		for i := range sizes {
			sizes[i] = 0
		}
		for ci := 0; ci < nc; ci++ {
			pc := partCounts[ci]
			ps := partSums[ci]
			for c := 0; c < k; c++ {
				sizes[c] += pc[c]
				crow := next.Row(c)
				prow := ps[c*m.Cols : (c+1)*m.Cols]
				for j := range crow {
					crow[j] += prow[j]
				}
			}
		}
		for c := 0; c < k; c++ {
			if sizes[c] == 0 {
				// Re-seed an empty cluster at a random point.
				copy(next.Row(c), m.Row(rng.Intn(m.Rows)))
				continue
			}
			crow := next.Row(c)
			for j := range crow {
				crow[j] /= float64(sizes[c])
			}
		}
		centroids = next
	}
	return &KMeansResult{
		K: k, Assignment: assign, Centroids: centroids,
		SSD: ssd, Sizes: sizes, Iterations: iterations,
	}, nil
}

// seedPlusPlus picks k initial centroids with the k-means++ strategy.
// The distance-to-nearest-centroid table is maintained incrementally
// (each new centroid only lowers it), turning the legacy O(n·k²) scan
// into O(n·k); the per-row minima are identical, so the seeding — and the
// PRNG consumption — matches the legacy implementation bit for bit.
func seedPlusPlus(m *Matrix, k int, rng *prng.Source, pool *parallel.Pool) *Matrix {
	centroids := NewMatrix(k, m.Cols)
	copy(centroids.Row(0), m.Row(rng.Intn(m.Rows)))
	d2 := make([]float64, m.Rows)
	ctx := context.Background()
	for c := 1; c < k; c++ {
		newest := centroids.Row(c - 1)
		first := c == 1
		_ = pool.Run(ctx, m.Rows, parChunk, func(ci, lo, hi int) error {
			for i := lo; i < hi; i++ {
				d := sqDist(m.Row(i), newest)
				if first || d < d2[i] {
					d2[i] = d
				}
			}
			return nil
		})
		var total float64
		for _, d := range d2 {
			total += d
		}
		if total == 0 {
			copy(centroids.Row(c), m.Row(rng.Intn(m.Rows)))
			continue
		}
		target := rng.Float64() * total
		var acc float64
		pick := m.Rows - 1
		for i := 0; i < m.Rows; i++ {
			acc += d2[i]
			if acc >= target {
				pick = i
				break
			}
		}
		copy(centroids.Row(c), m.Row(pick))
	}
	return centroids
}

// KMeansSweep runs k-means for k = 1..kMax, each k seeded with seed+k,
// and returns the results in k order (runs[k-1] is the k run; their SSDs
// are the series the elbow method and the paper's Figure 4 consume). The
// runs fan out one task per k on a pool of workers goroutines, largest k
// first so the longest runs start earliest; each writes its own slot and
// is itself KMeansP(m, k, seed+k, budget, workers), so every entry is
// bit-identical to that call at any worker count. budget bounds each run
// (up to workers of them are in flight at once). When several k fail,
// the error of the lowest one is returned — the one a serial k loop
// would have stopped at.
func KMeansSweep(m *Matrix, kMax int, seed uint64, budget int64, workers int) ([]*KMeansResult, error) {
	if kMax < 1 {
		return nil, fmt.Errorf("cluster: kMax must be >= 1, got %d", kMax)
	}
	runs := make([]*KMeansResult, kMax)
	errs := make([]error, kMax)
	_ = parallel.New(workers).Run(context.Background(), kMax, 1, func(i, _, _ int) error {
		k := kMax - i
		runs[k-1], errs[k-1] = KMeansP(m, k, seed+uint64(k), budget, workers)
		return nil
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return runs, nil
}

// SSDs returns a k-means sweep's SSD series.
func SSDs(runs []*KMeansResult) []float64 {
	out := make([]float64, len(runs))
	for i, r := range runs {
		out[i] = r.SSD
	}
	return out
}

// Elbow returns the 1-based index of the elbow in a decreasing series: the
// point with maximum distance from the line joining the first and last
// points. A series shorter than 3 returns its length.
func Elbow(series []float64) int {
	n := len(series)
	if n < 3 {
		return n
	}
	x1, y1 := 1.0, series[0]
	x2, y2 := float64(n), series[n-1]
	dx, dy := x2-x1, y2-y1
	den := dx*dx + dy*dy
	best, bestD := 1, -1.0
	for i := 0; i < n; i++ {
		x, y := float64(i+1), series[i]
		// Perpendicular distance to the chord (scaled; monotone in true
		// distance since den is constant).
		d := dx*(y1-y) - (x1-x)*dy
		dist := d * d / den
		if dist > bestD {
			best, bestD = i+1, dist
		}
	}
	return best
}
