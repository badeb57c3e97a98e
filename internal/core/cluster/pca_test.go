package cluster

import (
	"math"
	"testing"

	"repro/internal/prng"
)

// analyzerShapeMatrix builds the n×d standardized feature matrix the
// analyzer hands PCA: columns come in correlated pairs (an op's count
// and duration track each other), and with n ≤ d the covariance's rank
// is below the MaxFeatureOps components PCA is asked for.
func analyzerShapeMatrix(n, d int, seed uint64) *Matrix {
	rng := prng.New(seed)
	m := NewMatrix(n, d)
	for i := 0; i < n; i++ {
		phase := float64(i % 3)
		for j := 0; j+1 < d; j += 2 {
			base := phase*float64(j%7) + rng.Normal(0, 1)
			m.Set(i, j, base)
			m.Set(i, j+1, 0.8*base+rng.Normal(0, 0.6))
		}
		if d%2 == 1 {
			m.Set(i, d-1, rng.Normal(0, 1))
		}
	}
	Standardize(m)
	return m
}

func sumSquares(m *Matrix) float64 {
	var s float64
	for _, x := range m.Data {
		s += x * x
	}
	return s
}

// TestPCAPreservesDistancesWhenRankBelowK: at the analyzer's shape the
// covariance's rank (≤ n-1 = 60) is below k = 100, so exact PCA keeps
// every non-null direction and the projection is an isometry of the
// centered rows — total variance and every pairwise distance survive.
func TestPCAPreservesDistancesWhenRankBelowK(t *testing.T) {
	const n, d, k = 61, 110, 100
	m := analyzerShapeMatrix(n, d, 7)
	out := PCAP(m, k, 1)
	in, got := sumSquares(m), sumSquares(out)
	if math.Abs(got-in) > 1e-9*in {
		t.Fatalf("total variance %g, input %g", got, in)
	}
	if out.Rows != n || out.Cols > n-1 {
		t.Fatalf("projection is %dx%d, want %d rows and at most %d cols", out.Rows, out.Cols, n, n-1)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			want := sqDist(m.Row(i), m.Row(j))
			if have := sqDist(out.Row(i), out.Row(j)); math.Abs(have-want) > 1e-9*want {
				t.Fatalf("rows %d,%d: squared distance %g, input %g", i, j, have, want)
			}
		}
	}
	prev := math.Inf(1)
	for c := 0; c < out.Cols; c++ {
		var v float64
		for i := 0; i < n; i++ {
			v += out.At(i, c) * out.At(i, c)
		}
		if v > prev*(1+1e-9) {
			t.Fatalf("column %d variance %g exceeds column %d's %g", c, v, c-1, prev)
		}
		prev = v
	}
}

// TestPCASignConvention: every component is oriented so that its
// largest-magnitude loading is positive. The orientation then belongs to
// the data, not to the solver's path, so reordering the input columns
// (which permutes the covariance and every eigenvector the same way)
// leaves the projection unchanged.
func TestPCASignConvention(t *testing.T) {
	m := analyzerShapeMatrix(40, 12, 3)
	rev := NewMatrix(m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			rev.Set(i, m.Cols-1-j, m.At(i, j))
		}
	}
	a, b := PCAP(m, 4, 1), PCAP(rev, 4, 1)
	for i := range a.Data {
		if math.Abs(a.Data[i]-b.Data[i]) > 1e-9*(1+math.Abs(a.Data[i])) {
			t.Fatalf("entry %d: %g with columns reversed, %g without", i, b.Data[i], a.Data[i])
		}
	}
}
