package cluster

// Differential tests for the parallel phase-detection hot path: every
// parallel variant must produce bit-identical output for any worker
// count (the fixed-chunk determinism contract), and the grid-indexed
// DBSCAN must reproduce the brute-force reference exactly.

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/parallel"
	"repro/internal/prng"
	"repro/internal/simclock"
	"repro/internal/trace"
)

// diffSizes are the row counts the differential suite sweeps. 1e4 runs
// only without -short to keep the race-enabled suite quick.
func diffSizes(t *testing.T) []int {
	if testing.Short() {
		return []int{10, 1000}
	}
	return []int{10, 1000, 10000}
}

// workerGrid is the parallelism sweep from the acceptance criteria.
func workerGrid() []int {
	return []int{1, 4, runtime.GOMAXPROCS(0)}
}

// gaussMatrix builds an n×dims matrix of three Gaussian blobs.
func gaussMatrix(n, dims int, seed uint64) *Matrix {
	rng := prng.New(seed)
	m := NewMatrix(n, dims)
	centers := [3]float64{0, 20, -20}
	for i := 0; i < n; i++ {
		c := centers[i%3]
		row := m.Row(i)
		for j := range row {
			row[j] = c + rng.Normal(0, 1)
			c = -c // alternate so blobs separate in every dimension
		}
	}
	return m
}

func matricesEqual(a, b *Matrix) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			return false
		}
	}
	return true
}

func TestKMeansParallelismInvariant(t *testing.T) {
	for _, n := range diffSizes(t) {
		m := gaussMatrix(n, 8, uint64(n))
		var ref *KMeansResult
		for _, w := range workerGrid() {
			t.Run(fmt.Sprintf("n=%d/workers=%d", n, w), func(t *testing.T) {
				r, err := KMeansP(m, 5, 42, 0, w)
				if err != nil {
					t.Fatal(err)
				}
				if ref == nil {
					ref = r
					return
				}
				if r.SSD != ref.SSD {
					t.Fatalf("SSD %v != serial %v", r.SSD, ref.SSD)
				}
				if r.Iterations != ref.Iterations {
					t.Fatalf("iterations %d != serial %d", r.Iterations, ref.Iterations)
				}
				for i := range r.Assignment {
					if r.Assignment[i] != ref.Assignment[i] {
						t.Fatalf("assignment[%d] = %d != serial %d", i, r.Assignment[i], ref.Assignment[i])
					}
				}
				if !matricesEqual(r.Centroids, ref.Centroids) {
					t.Fatal("centroids differ from serial run")
				}
			})
		}
	}
}

func TestDBSCANParallelismInvariant(t *testing.T) {
	for _, n := range diffSizes(t) {
		m := gaussMatrix(n, 8, uint64(n)+100)
		var ref *DBSCANResult
		for _, w := range workerGrid() {
			t.Run(fmt.Sprintf("n=%d/workers=%d", n, w), func(t *testing.T) {
				r, err := DBSCANP(m, 5, 0, 0, w)
				if err != nil {
					t.Fatal(err)
				}
				if ref == nil {
					ref = r
					return
				}
				if r.Eps != ref.Eps {
					t.Fatalf("eps %v != serial %v", r.Eps, ref.Eps)
				}
				if r.Clusters != ref.Clusters || r.NoiseCount != ref.NoiseCount {
					t.Fatalf("clusters/noise %d/%d != serial %d/%d",
						r.Clusters, r.NoiseCount, ref.Clusters, ref.NoiseCount)
				}
				for i := range r.Labels {
					if r.Labels[i] != ref.Labels[i] {
						t.Fatalf("label[%d] = %d != serial %d", i, r.Labels[i], ref.Labels[i])
					}
				}
			})
		}
	}
}

// TestDBSCANGridMatchesBrute: the spatial index is an exact optimization —
// labels must match the legacy O(n²) implementation bit for bit (same
// auto-eps too, at sizes below the sampling cap).
func TestDBSCANGridMatchesBrute(t *testing.T) {
	for _, n := range []int{10, 300, 1000} {
		for _, minPts := range []int{2, 5, 20} {
			m := gaussMatrix(n, 8, uint64(n)*7+uint64(minPts))
			grid, err := DBSCANP(m, minPts, 0, 0, 4)
			if err != nil {
				t.Fatal(err)
			}
			brute, err := DBSCANBrute(m, minPts, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			if grid.Eps != brute.Eps {
				t.Fatalf("n=%d minPts=%d: eps %v != brute %v", n, minPts, grid.Eps, brute.Eps)
			}
			if grid.Clusters != brute.Clusters || grid.NoiseCount != brute.NoiseCount {
				t.Fatalf("n=%d minPts=%d: clusters/noise %d/%d != brute %d/%d",
					n, minPts, grid.Clusters, grid.NoiseCount, brute.Clusters, brute.NoiseCount)
			}
			for i := range grid.Labels {
				if grid.Labels[i] != brute.Labels[i] {
					t.Fatalf("n=%d minPts=%d: label[%d] = %d, brute %d",
						n, minPts, i, grid.Labels[i], brute.Labels[i])
				}
			}
		}
	}
}

// TestGridNeighborsMatchBrute checks the index at the neighbor-list level,
// including tie distances exactly at eps.
func TestGridNeighborsMatchBrute(t *testing.T) {
	m := gaussMatrix(400, 2, 9)
	eps := 1.5
	g := newGridIndex(m, eps)
	eps2 := eps * eps
	for i := 0; i < m.Rows; i++ {
		got := g.neighbors(i, nil)
		var want []int32
		for j := 0; j < m.Rows; j++ {
			if i != j && sqDist(m.Row(i), m.Row(j)) <= eps2 {
				want = append(want, int32(j))
			}
		}
		if len(got) != len(want) {
			t.Fatalf("point %d: %d neighbors, brute %d", i, len(got), len(want))
		}
		for k := range got {
			if got[k] != want[k] {
				t.Fatalf("point %d: neighbors[%d] = %d, brute %d", i, k, got[k], want[k])
			}
		}
	}
}

func TestPCAParallelismInvariant(t *testing.T) {
	for _, n := range diffSizes(t) {
		m := gaussMatrix(n, 12, uint64(n)+200)
		Standardize(m)
		var ref *Matrix
		for _, w := range workerGrid() {
			out := PCAP(m, 3, w)
			if ref == nil {
				ref = out
				continue
			}
			if !matricesEqual(out, ref) {
				t.Fatalf("n=%d workers=%d: PCA output differs from serial", n, w)
			}
		}
	}
	// The analyzer's shape: rank-deficient covariance (rank ≤ 60), k = 100.
	m := analyzerShapeMatrix(61, 110, 400)
	var ref *Matrix
	for _, w := range workerGrid() {
		out := PCAP(m, MaxFeatureOps, w)
		if ref == nil {
			ref = out
			continue
		}
		if !matricesEqual(out, ref) {
			t.Fatalf("61x110 k=%d workers=%d: PCA output differs from serial", MaxFeatureOps, w)
		}
	}
}

func TestStandardizeParallelismInvariant(t *testing.T) {
	for _, n := range diffSizes(t) {
		var ref *Matrix
		for _, w := range workerGrid() {
			m := gaussMatrix(n, 10, uint64(n)+300)
			StandardizeP(m, w)
			if ref == nil {
				ref = m
				continue
			}
			if !matricesEqual(m, ref) {
				t.Fatalf("n=%d workers=%d: standardized matrix differs from serial", n, w)
			}
		}
	}
}

func TestFeaturesParallelismInvariant(t *testing.T) {
	steps := syntheticSteps(500, 40)
	var refM *Matrix
	var refKeys []trace.OpKey
	for _, w := range workerGrid() {
		m, keys := FeaturesP(steps, w)
		if refM == nil {
			refM, refKeys = m, keys
			continue
		}
		if len(keys) != len(refKeys) {
			t.Fatalf("workers=%d: %d keys, serial %d", w, len(keys), len(refKeys))
		}
		for i := range keys {
			if keys[i] != refKeys[i] {
				t.Fatalf("workers=%d: keys[%d] = %v, serial %v", w, i, keys[i], refKeys[i])
			}
		}
		if !matricesEqual(m, refM) {
			t.Fatalf("workers=%d: feature matrix differs from serial", w)
		}
	}
}

// TestSweepsParallelismInvariant covers the composed analyzer paths the
// acceptance criteria exercise end to end.
func TestSweepsParallelismInvariant(t *testing.T) {
	m := gaussMatrix(600, 8, 77)
	Standardize(m)
	var refSSD []float64
	var refRatios []float64
	for _, w := range workerGrid() {
		kruns, err := KMeansSweep(m, 8, 1, 0, w)
		if err != nil {
			t.Fatal(err)
		}
		ssd := SSDs(kruns)
		druns, err := DBSCANSweep(m, 80, 25, 0, w)
		if err != nil {
			t.Fatal(err)
		}
		_, ratios := NoiseSeries(druns)
		if refSSD == nil {
			refSSD, refRatios = ssd, ratios
			continue
		}
		for i := range ssd {
			if ssd[i] != refSSD[i] {
				t.Fatalf("workers=%d: SSD[%d] = %v, serial %v", w, i, ssd[i], refSSD[i])
			}
		}
		for i := range ratios {
			if ratios[i] != refRatios[i] {
				t.Fatalf("workers=%d: noise ratio[%d] = %v, serial %v", w, i, ratios[i], refRatios[i])
			}
		}
	}
}

// TestKMeansSweepMatchesSerialRuns: every sweep member equals the serial
// single-k run with the sweep's per-k seed, at any worker count.
func TestKMeansSweepMatchesSerialRuns(t *testing.T) {
	m := gaussMatrix(600, 8, 81)
	Standardize(m)
	const kMax, seed = 8, 11
	for _, w := range workerGrid() {
		runs, err := KMeansSweep(m, kMax, seed, 0, w)
		if err != nil {
			t.Fatal(err)
		}
		if len(runs) != kMax {
			t.Fatalf("workers=%d: %d runs, want %d", w, len(runs), kMax)
		}
		for k := 1; k <= kMax; k++ {
			want, err := KMeansP(m, k, seed+uint64(k), 0, 1)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(runs[k-1], want) {
				t.Fatalf("workers=%d: sweep run k=%d differs from serial KMeansP", w, k)
			}
		}
	}
}

// TestDBSCANSweepMatchesSerialRuns: every sweep member, labeled on the
// shared ε-graph, equals a serial DBSCANP that picks ε itself.
func TestDBSCANSweepMatchesSerialRuns(t *testing.T) {
	m := gaussMatrix(600, 8, 82)
	Standardize(m)
	for _, w := range workerGrid() {
		runs, err := DBSCANSweep(m, 180, 25, 0, w)
		if err != nil {
			t.Fatal(err)
		}
		if len(runs) != 8 {
			t.Fatalf("workers=%d: %d runs, want 8", w, len(runs))
		}
		for i, r := range runs {
			p := 5 + 25*i
			want, err := DBSCANP(m, p, 0, 0, 1)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(r, want) {
				t.Fatalf("workers=%d: sweep run minPts=%d differs from serial DBSCANP", w, p)
			}
		}
	}
}

// TestSweepsReturnSerialLoopError: when the budget admits only the small
// k, the fanned-out sweep returns exactly the error a serial k = 1..kMax
// loop stops at, not whichever failing k finished first; the DBSCAN
// sweep fails exactly as a single DBSCANP does.
func TestSweepsReturnSerialLoopError(t *testing.T) {
	m := gaussMatrix(600, 8, 83)
	const kMax, seed = 8, 5
	// KMeansP's working-set estimate grows with k; this is its value at
	// k = 4, so larger k fail.
	nc := int64(parallel.NumChunks(m.Rows, parChunk))
	budget := m.Bytes() + 4*int64(m.Cols)*8 + int64(m.Rows)*16 + nc*4*(int64(m.Cols)*8+8)
	var want error
	failedAt := 0
	for k := 1; k <= kMax && want == nil; k++ {
		if _, want = KMeansP(m, k, seed+uint64(k), budget, 1); want != nil {
			failedAt = k
		}
	}
	if want == nil || failedAt == 1 {
		t.Fatalf("budget %d must fail only above k = 1 (failed at k = %d)", budget, failedAt)
	}
	dbBudget := int64(m.Rows) * dbscanBaseBytes
	_, dbWant := DBSCANP(m, 5, 0, dbBudget, 1)
	if dbWant == nil {
		t.Fatalf("dbscan budget %d did not fail", dbBudget)
	}
	for _, w := range workerGrid() {
		if _, err := KMeansSweep(m, kMax, seed, budget, w); err == nil || err.Error() != want.Error() {
			t.Fatalf("workers=%d: k-means sweep error %v, serial loop %v", w, err, want)
		}
		if _, err := DBSCANSweep(m, 180, 25, dbBudget, w); err == nil || err.Error() != dbWant.Error() {
			t.Fatalf("workers=%d: dbscan sweep error %v, serial %v", w, err, dbWant)
		}
	}
}

// syntheticSteps builds aggregated step stats with a rotating op
// vocabulary, for feature-extraction tests.
func syntheticSteps(n, vocab int) []*trace.StepStat {
	rng := prng.New(123)
	steps := make([]*trace.StepStat, n)
	for i := range steps {
		s := trace.NewStepStat(int64(i))
		for j := 0; j < 12; j++ {
			op := (i*7 + j*j) % vocab
			s.Observe(trace.Event{
				Name:   fmt.Sprintf("op%03d", op),
				Device: trace.TPU,
				Start:  0,
				Dur:    1 + simclock.Duration(rng.Intn(500)),
				Step:   int64(i),
			})
		}
		steps[i] = s
	}
	return steps
}
