package cluster

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync/atomic"

	"repro/internal/parallel"
)

// Noise is the DBSCAN label for unclustered points.
const Noise = -1

// DBSCANResult holds one DBSCAN clustering.
type DBSCANResult struct {
	MinPts     int
	Eps        float64
	Labels     []int // cluster id per row, Noise for outliers
	Clusters   int
	NoiseCount int
}

// NoiseRatio returns the fraction of unlabeled (noise) points — the metric
// the paper sweeps in Figure 5.
func (r *DBSCANResult) NoiseRatio() float64 {
	if len(r.Labels) == 0 {
		return 0
	}
	return float64(r.NoiseCount) / float64(len(r.Labels))
}

// dbscanBaseBytes is the per-point cost of the always-allocated DBSCAN
// structures: label (8), visited flag (1), cell key (24), cell-list entry
// (4), neighbor-list header (24), rounded up for map overhead.
const dbscanBaseBytes = 64

// DBSCAN clusters the matrix with the classic density algorithm, using a
// spatial grid index for the eps-neighborhood queries (exact — the labels
// match the brute-force scan bit for bit). eps <= 0 selects it
// automatically from the 4-NN distance distribution. budget bounds the
// working memory, including the density-dependent neighbor lists (0
// disables the check).
func DBSCAN(m *Matrix, minPts int, eps float64, budget int64) (*DBSCANResult, error) {
	return DBSCANP(m, minPts, eps, budget, 0)
}

// DBSCANP is DBSCAN with an explicit worker bound: the neighbor queries
// fan out across workers goroutines (workers <= 0 means GOMAXPROCS,
// 1 means fully serial). The result is bit-identical for every worker
// count: neighbor lists are built into disjoint per-point slots and the
// cluster expansion consumes them in a fixed order.
func DBSCANP(m *Matrix, minPts int, eps float64, budget int64, workers int) (*DBSCANResult, error) {
	if minPts < 1 {
		return nil, fmt.Errorf("cluster: minPts must be >= 1, got %d", minPts)
	}
	g, err := newEpsGraph(m, eps, budget, parallel.New(workers))
	if err != nil {
		return nil, err
	}
	return g.label(minPts), nil
}

// epsGraph is the ε-neighbour graph DBSCAN labels: for every point, the
// other points within eps of it, ascending. It does not depend on
// min-samples, so one graph serves a whole min-samples sweep.
type epsGraph struct {
	eps       float64
	neighbors [][]int32
}

// newEpsGraph builds the graph through the grid index. eps <= 0 selects
// it with autoEps. budget bounds the always-allocated structures and the
// neighbor lists as they materialize (0 disables the check).
func newEpsGraph(m *Matrix, eps float64, budget int64, pool *parallel.Pool) (*epsGraph, error) {
	n := m.Rows
	if n == 0 {
		return nil, fmt.Errorf("cluster: empty matrix")
	}
	need := int64(n) * dbscanBaseBytes
	if err := validateBudget(need, budget, "dbscan"); err != nil {
		return nil, err
	}
	if eps <= 0 {
		eps = autoEps(m, pool)
	}

	grid := newGridIndex(m, eps)

	// Neighbor lists grow with density; account for them against the
	// budget as they materialize. entryLimit is in int32 entries.
	entryLimit := int64(math.MaxInt64)
	if budget > 0 {
		entryLimit = (budget - need) / 4
	}
	var entries atomic.Int64
	neighbors := make([][]int32, n)
	err := pool.Run(context.Background(), n, parChunk, func(ci, lo, hi int) error {
		var local int64
		for i := lo; i < hi; i++ {
			neighbors[i] = grid.neighbors(i, nil)
			local += int64(len(neighbors[i]))
		}
		if entries.Add(local) > entryLimit {
			return fmt.Errorf("%w: dbscan neighbor lists exceed %d bytes", ErrMemoryBudget, budget)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &epsGraph{eps: eps, neighbors: neighbors}, nil
}

// label clusters the graph at minPts. It only reads the graph, so
// several labelings may run on one graph at once.
func (g *epsGraph) label(minPts int) *DBSCANResult {
	labels := expand(g.neighbors, minPts)
	noise := 0
	for _, l := range labels {
		if l == Noise {
			noise++
		}
	}
	clusters := 0
	for _, l := range labels {
		if l >= clusters {
			clusters = l + 1
		}
	}
	return &DBSCANResult{
		MinPts: minPts, Eps: g.eps, Labels: labels,
		Clusters: clusters, NoiseCount: noise,
	}
}

// expand runs the sequential cluster-growing pass over precomputed
// neighbor lists. With each list ascending, the visit order — and thus
// the labeling — is identical to the classic textbook algorithm.
func expand(neighbors [][]int32, minPts int) []int {
	n := len(neighbors)
	labels := make([]int, n)
	for i := range labels {
		labels[i] = Noise
	}
	visited := make([]bool, n)
	cluster := 0
	for i := 0; i < n; i++ {
		if visited[i] {
			continue
		}
		visited[i] = true
		if len(neighbors[i])+1 < minPts {
			continue // not a core point (may later be claimed as border)
		}
		// Expand a new cluster from this core point.
		labels[i] = cluster
		queue := append([]int32(nil), neighbors[i]...)
		for qi := 0; qi < len(queue); qi++ {
			p := int(queue[qi])
			if labels[p] == Noise {
				labels[p] = cluster // border or core point joins
			}
			if visited[p] {
				continue
			}
			visited[p] = true
			if len(neighbors[p])+1 >= minPts {
				queue = append(queue, neighbors[p]...)
			}
		}
		cluster++
	}
	return labels
}

// DBSCANBrute is the legacy O(n²) implementation, kept as the reference
// the differential tests and cmd/paperbench compare the grid-indexed path
// against. budget bounds the quadratic distance work as it always did.
func DBSCANBrute(m *Matrix, minPts int, eps float64, budget int64) (*DBSCANResult, error) {
	if minPts < 1 {
		return nil, fmt.Errorf("cluster: minPts must be >= 1, got %d", minPts)
	}
	n := m.Rows
	if n == 0 {
		return nil, fmt.Errorf("cluster: empty matrix")
	}
	need := int64(n) * int64(n) * 8
	if err := validateBudget(need, budget, "dbscan-brute"); err != nil {
		return nil, err
	}
	if eps <= 0 {
		eps = autoEps(m, parallel.New(1))
	}
	eps2 := eps * eps

	neighbors := make([][]int32, n)
	for i := 0; i < n; i++ {
		ri := m.Row(i)
		for j := i + 1; j < n; j++ {
			if sqDist(ri, m.Row(j)) <= eps2 {
				neighbors[i] = append(neighbors[i], int32(j))
				neighbors[j] = append(neighbors[j], int32(i))
			}
		}
	}
	g := &epsGraph{eps: eps, neighbors: neighbors}
	return g.label(minPts), nil
}

// autoEpsMaxSample caps the number of rows whose exact 4-NN distance the
// eps heuristic computes. Above the cap a deterministic stride-subsample
// stands in for the full population; each sampled row is still measured
// against every row, so the per-row statistic stays exact.
const autoEpsMaxSample = 2048

// autoEps picks ε as the 90th percentile of 4-NN distances — a standard
// heuristic that keeps the bulk of a dense phase connected while leaving
// genuinely unusual steps as noise. The per-row scans fan out across the
// pool; results are written to disjoint slots, so the choice is
// deterministic for every worker count.
func autoEps(m *Matrix, pool *parallel.Pool) float64 {
	n := m.Rows
	if n < 2 {
		return 1
	}
	stride := 1
	count := n
	if n > autoEpsMaxSample {
		stride = (n + autoEpsMaxSample - 1) / autoEpsMaxSample
		count = (n + stride - 1) / stride
	}
	const kth = 4
	kdist := make([]float64, count)
	_ = pool.Run(context.Background(), count, parChunk, func(ci, lo, hi int) error {
		for s := lo; s < hi; s++ {
			i := s * stride
			ri := m.Row(i)
			// Running top-4 smallest squared distances (ascending).
			best := [kth]float64{math.Inf(1), math.Inf(1), math.Inf(1), math.Inf(1)}
			for j := 0; j < n; j++ {
				if i == j {
					continue
				}
				d := sqDist(ri, m.Row(j))
				if d >= best[kth-1] {
					continue
				}
				p := kth - 1
				for p > 0 && best[p-1] > d {
					best[p] = best[p-1]
					p--
				}
				best[p] = d
			}
			idx := kth - 1
			if n-1 < kth {
				idx = n - 2
			}
			kdist[s] = best[idx]
		}
		return nil
	})
	sort.Float64s(kdist)
	v := kdist[(len(kdist)*9)/10]
	if v <= 0 || math.IsInf(v, 1) {
		// Degenerate geometry (many identical rows): any positive radius
		// connects duplicates.
		return 1e-9
	}
	return math.Sqrt(v)
}

// sweepMinPts is the first min-samples value of the paper's DBSCAN sweep.
const sweepMinPts = 5

// DBSCANSweep clusters the matrix across the paper's min-samples grid
// (5 to maxPts in steps of step) and returns one result per grid value,
// in grid order (Figure 5's series is their noise ratios). ε is chosen
// once by autoEps and the ε-neighbour graph is built once; only the
// labeling pass runs per value, one task per value on a pool of workers
// goroutines, each writing its own slot. Every entry is bit-identical to
// DBSCANP(m, minPts, 0, budget, w) for any w, and the budget is checked
// exactly as that call checks it.
func DBSCANSweep(m *Matrix, maxPts, step int, budget int64, workers int) ([]*DBSCANResult, error) {
	if step < 1 {
		return nil, fmt.Errorf("cluster: sweep step must be >= 1")
	}
	if maxPts < sweepMinPts {
		return nil, fmt.Errorf("cluster: min-samples sweep %d..%d is empty", sweepMinPts, maxPts)
	}
	pool := parallel.New(workers)
	g, err := newEpsGraph(m, 0, budget, pool)
	if err != nil {
		return nil, err
	}
	out := make([]*DBSCANResult, (maxPts-sweepMinPts)/step+1)
	_ = pool.Run(context.Background(), len(out), 1, func(i, _, _ int) error {
		out[i] = g.label(sweepMinPts + i*step)
		return nil
	})
	return out, nil
}

// NoiseSeries returns a DBSCAN sweep's min-samples grid and noise ratios.
func NoiseSeries(runs []*DBSCANResult) (minPts []int, ratios []float64) {
	minPts = make([]int, len(runs))
	ratios = make([]float64, len(runs))
	for i, r := range runs {
		minPts[i], ratios[i] = r.MinPts, r.NoiseRatio()
	}
	return minPts, ratios
}
