package cluster

import (
	"math"
	"testing"

	"repro/internal/prng"
)

// checkEigen asserts the decomposition contract: ‖AV − VΛ‖ ≤ 1e-10·‖A‖
// (Frobenius), orthonormal eigenvectors and ascending eigenvalues.
func checkEigen(t *testing.T, name string, a []float64, d int) (vals, vecs []float64) {
	t.Helper()
	vecs = append([]float64(nil), a...)
	vals = symEigen(vecs, d)
	if len(vals) != d {
		t.Fatalf("%s: got %d values", name, len(vals))
	}
	var normA, resid float64
	for _, x := range a {
		normA += x * x
	}
	for c := 0; c < d; c++ {
		v := vecs[c*d : (c+1)*d]
		for i := 0; i < d; i++ {
			var av float64
			for j := 0; j < d; j++ {
				av += a[i*d+j] * v[j]
			}
			r := av - vals[c]*v[i]
			resid += r * r
		}
	}
	if math.Sqrt(resid) > 1e-10*math.Sqrt(normA) {
		t.Fatalf("%s: ‖AV−VΛ‖ = %g, ‖A‖ = %g", name, math.Sqrt(resid), math.Sqrt(normA))
	}
	for p := 0; p < d; p++ {
		for q := 0; q < d; q++ {
			var dot float64
			for j := 0; j < d; j++ {
				dot += vecs[p*d+j] * vecs[q*d+j]
			}
			want := 0.0
			if p == q {
				want = 1
			}
			if math.Abs(dot-want) > 1e-12 {
				t.Fatalf("%s: v%d·v%d = %g, want %g", name, p, q, dot, want)
			}
		}
	}
	for i := 1; i < d; i++ {
		if vals[i] < vals[i-1] {
			t.Fatalf("%s: eigenvalues not ascending at %d: %v", name, i, vals)
		}
	}
	return vals, vecs
}

func randomSymmetric(d int, rng *prng.Source) []float64 {
	a := make([]float64, d*d)
	for i := 0; i < d; i++ {
		for j := i; j < d; j++ {
			a[i*d+j] = rng.Normal(0, 1)
			a[j*d+i] = a[i*d+j]
		}
	}
	return a
}

// randomOrthogonal orthonormalizes a random Gaussian matrix's rows
// (modified Gram-Schmidt).
func randomOrthogonal(d int, rng *prng.Source) []float64 {
	q := make([]float64, d*d)
	for i := range q {
		q[i] = rng.Normal(0, 1)
	}
	for i := 0; i < d; i++ {
		qi := q[i*d : (i+1)*d]
		for p := 0; p < i; p++ {
			qp := q[p*d : (p+1)*d]
			var dot float64
			for j := range qi {
				dot += qi[j] * qp[j]
			}
			for j := range qi {
				qi[j] -= dot * qp[j]
			}
		}
		var n float64
		for _, x := range qi {
			n += x * x
		}
		n = math.Sqrt(n)
		for j := range qi {
			qi[j] /= n
		}
	}
	return q
}

// withSpectrum returns Qᵀ·diag(spec)·Q for a random orthogonal Q.
func withSpectrum(spec []float64, rng *prng.Source) []float64 {
	d := len(spec)
	q := randomOrthogonal(d, rng)
	a := make([]float64, d*d)
	for i := 0; i < d; i++ {
		for j := 0; j < d; j++ {
			var s float64
			for p := 0; p < d; p++ {
				s += q[p*d+i] * spec[p] * q[p*d+j]
			}
			a[i*d+j] = s
		}
	}
	return a
}

func assertValues(t *testing.T, name string, got, want []float64, tol float64) {
	t.Helper()
	for i := range want {
		if math.Abs(got[i]-want[i]) > tol {
			t.Fatalf("%s: eigenvalues %v, want %v", name, got, want)
		}
	}
}

func TestSymEigenRandom(t *testing.T) {
	rng := prng.New(11)
	for _, d := range []int{2, 3, 7, 24, 110} {
		checkEigen(t, "random", randomSymmetric(d, rng), d)
	}
}

func TestSymEigenRepeatedEigenvalues(t *testing.T) {
	rng := prng.New(12)
	spec := []float64{3, -1, 3, 3, 0.5, -1, 3, 0.5}
	vals, _ := checkEigen(t, "repeated", withSpectrum(spec, rng), len(spec))
	assertValues(t, "repeated", vals, []float64{-1, -1, 0.5, 0.5, 3, 3, 3, 3}, 1e-12)
	// The identity is the fully degenerate case: already tridiagonal
	// with every eigenvalue equal.
	id := make([]float64, 5*5)
	for i := 0; i < 5; i++ {
		id[i*5+i] = 1
	}
	vals, _ = checkEigen(t, "identity", id, 5)
	assertValues(t, "identity", vals, []float64{1, 1, 1, 1, 1}, 1e-15)
}

func TestSymEigenZero(t *testing.T) {
	vals, _ := checkEigen(t, "zero", make([]float64, 6*6), 6)
	assertValues(t, "zero", vals, make([]float64, 6), 0)
}

func TestSymEigenDiagonal(t *testing.T) {
	diag := []float64{4, -2, 0, 9, 1}
	d := len(diag)
	a := make([]float64, d*d)
	for i, x := range diag {
		a[i*d+i] = x
	}
	vals, _ := checkEigen(t, "diagonal", a, d)
	assertValues(t, "diagonal", vals, []float64{-2, 0, 1, 4, 9}, 1e-15)
}

func TestSymEigenOneByOne(t *testing.T) {
	vals, vecs := checkEigen(t, "1x1", []float64{-3.5}, 1)
	if vals[0] != -3.5 || math.Abs(vecs[0]) != 1 {
		t.Fatalf("1×1: vals %v vecs %v", vals, vecs)
	}
}

func TestSymEigenRankOne(t *testing.T) {
	u := []float64{1, -2, 0.5, 3, 0, 1.5}
	d := len(u)
	a := make([]float64, d*d)
	var uu float64
	for i := range u {
		uu += u[i] * u[i]
		for j := range u {
			a[i*d+j] = u[i] * u[j]
		}
	}
	vals, vecs := checkEigen(t, "rank-1", a, d)
	want := make([]float64, d)
	want[d-1] = uu
	assertValues(t, "rank-1", vals, want, 1e-12*uu)
	// The top eigenvector is ±u/‖u‖.
	var dot float64
	for j := range u {
		dot += vecs[(d-1)*d+j] * u[j]
	}
	if math.Abs(math.Abs(dot)-math.Sqrt(uu)) > 1e-12*math.Sqrt(uu) {
		t.Fatalf("rank-1: top eigenvector is not parallel to u: |v·u| = %g", math.Abs(dot))
	}
}
