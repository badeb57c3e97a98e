package cluster

import "math"

// symEigen computes every eigenvalue and eigenvector of the symmetric
// d×d matrix a (row-major), in place: it returns the eigenvalues in
// ascending order and overwrites a with the matching unit eigenvectors
// as rows, so a[i*d:(i+1)*d] belongs to vals[i].
//
// The solver is the EISPACK tred2/tql2 pair (as in JAMA): a Householder
// reduction to symmetric tridiagonal form, then the implicit-shift QL
// algorithm on the tridiagonal matrix, accumulating both orthogonal
// transformations. It is exact up to rounding and deterministic, and its
// cost is O(d³) whatever the spectrum.
func symEigen(a []float64, d int) (vals []float64) {
	vals = make([]float64, d)
	off := make([]float64, d)
	tred2(a, vals, off, d)
	tql2(a, vals, off, d)
	return vals
}

// tred2 reduces the symmetric matrix held in v to tridiagonal form by
// Householder similarity transformations. On return diag holds the
// diagonal, off[1:] the subdiagonal (off[0] = 0) and v the orthogonal
// matrix Qᵀ, so Q's columns are v's rows and Qᵀ·A·Q is tridiagonal.
//
// This is JAMA's tred2 run on the transposed storage (every V[r][c]
// there is v[c*d+r] here). A symmetric input is its own transpose, so
// nothing has to be copied, the O(d³) inner loops walk rows instead of
// columns, and the basis comes out as rows — the layout tql2 rotates.
func tred2(v, diag, off []float64, d int) {
	for j := 0; j < d; j++ {
		diag[j] = v[j*d+d-1]
	}
	for i := d - 1; i > 0; i-- {
		// Scale the row to avoid under/overflow.
		var scale, h float64
		for k := 0; k < i; k++ {
			scale += math.Abs(diag[k])
		}
		if scale == 0 {
			off[i] = diag[i-1]
			for j := 0; j < i; j++ {
				diag[j] = v[j*d+i-1]
				v[j*d+i] = 0
				v[i*d+j] = 0
			}
			diag[i] = h
			continue
		}
		// Generate the Householder vector.
		for k := 0; k < i; k++ {
			diag[k] /= scale
			h += diag[k] * diag[k]
		}
		f := diag[i-1]
		g := math.Sqrt(h)
		if f > 0 {
			g = -g
		}
		off[i] = scale * g
		h -= f * g
		diag[i-1] = f - g
		for j := 0; j < i; j++ {
			off[j] = 0
		}
		// Apply the similarity transformation to the remaining columns.
		for j := 0; j < i; j++ {
			f = diag[j]
			v[i*d+j] = f
			g = off[j] + v[j*d+j]*f
			vj, ok, dk := v[j*d+j+1:j*d+i], off[j+1:i], diag[j+1:i]
			for k, x := range vj {
				g += x * dk[k]
				ok[k] += x * f
			}
			off[j] = g
		}
		f = 0
		for j := 0; j < i; j++ {
			off[j] /= h
			f += off[j] * diag[j]
		}
		hh := f / (h + h)
		for j := 0; j < i; j++ {
			off[j] -= hh * diag[j]
		}
		for j := 0; j < i; j++ {
			f, g = diag[j], off[j]
			vj, ok, dk := v[j*d+j:j*d+i], off[j:i], diag[j:i]
			for k := range vj {
				vj[k] -= f*ok[k] + g*dk[k]
			}
			diag[j] = v[j*d+i-1]
			v[j*d+i] = 0
		}
		diag[i] = h
	}
	// Accumulate the transformations.
	for i := 0; i < d-1; i++ {
		v[i*d+d-1] = v[i*d+i]
		v[i*d+i] = 1
		if h := diag[i+1]; h != 0 {
			for k := 0; k <= i; k++ {
				diag[k] = v[(i+1)*d+k] / h
			}
			u, w := v[(i+1)*d:(i+1)*d+i+1], diag[:i+1]
			for j := 0; j <= i; j++ {
				vj := v[j*d : j*d+i+1]
				var g float64
				for k, x := range u {
					g += x * vj[k]
				}
				for k, x := range w {
					vj[k] -= g * x
				}
			}
		}
		for k := 0; k <= i; k++ {
			v[(i+1)*d+k] = 0
		}
	}
	for j := 0; j < d; j++ {
		diag[j] = v[j*d+d-1]
		v[j*d+d-1] = 0
	}
	v[d*d-1] = 1
	off[0] = 0
}

// tql2 diagonalizes the symmetric tridiagonal matrix (diag, off) from
// tred2 with the implicit-shift QL algorithm. vt holds the tred2 basis
// as rows and is rotated along, so on return its rows are the
// eigenvectors of the original matrix; diag holds the eigenvalues,
// sorted ascending together with the rows of vt.
func tql2(vt, diag, off []float64, d int) {
	for i := 1; i < d; i++ {
		off[i-1] = off[i]
	}
	off[d-1] = 0
	var f, tst1 float64
	const eps = 0x1p-52
	for l := 0; l < d; l++ {
		// Find a negligible subdiagonal element. off[d-1] is zero, so
		// the scan stops at the last row at the latest.
		tst1 = math.Max(tst1, math.Abs(diag[l])+math.Abs(off[l]))
		m := l
		for m < d-1 && math.Abs(off[m]) > eps*tst1 {
			m++
		}
		// If m == l, diag[l] is already an eigenvalue; otherwise iterate.
		for m > l {
			// Implicit Wilkinson shift.
			g := diag[l]
			p := (diag[l+1] - g) / (2 * off[l])
			r := math.Hypot(p, 1)
			if p < 0 {
				r = -r
			}
			diag[l] = off[l] / (p + r)
			diag[l+1] = off[l] * (p + r)
			dl1 := diag[l+1]
			h := g - diag[l]
			for i := l + 2; i < d; i++ {
				diag[i] -= h
			}
			f += h
			// Implicit QL sweep from m up to l.
			p = diag[m]
			c, c2, c3 := 1.0, 1.0, 1.0
			el1 := off[l+1]
			var s, s2 float64
			for i := m - 1; i >= l; i-- {
				c3, c2, s2 = c2, c, s
				g = c * off[i]
				h = c * p
				r = math.Hypot(p, off[i])
				off[i+1] = s * r
				s = off[i] / r
				c = p / r
				p = c*diag[i] - s*g
				diag[i+1] = h + s*(c*g+s*diag[i])
				// Accumulate the rotation into basis rows i and i+1.
				vi, vi1 := vt[i*d:(i+1)*d], vt[(i+1)*d:(i+2)*d]
				vi1 = vi1[:len(vi)]
				for k := range vi {
					h = vi1[k]
					vi1[k] = s*vi[k] + c*h
					vi[k] = c*vi[k] - s*h
				}
			}
			p = -s * s2 * c3 * el1 * off[l] / dl1
			off[l] = s * p
			diag[l] = c * p
			if !(math.Abs(off[l]) > eps*tst1) {
				break
			}
		}
		diag[l] += f
		off[l] = 0
	}
	// Selection sort into ascending order, swapping basis rows along.
	for i := 0; i < d-1; i++ {
		k := i
		for j := i + 1; j < d; j++ {
			if diag[j] < diag[k] {
				k = j
			}
		}
		if k != i {
			diag[i], diag[k] = diag[k], diag[i]
			ri, rk := vt[i*d:(i+1)*d], vt[k*d:(k+1)*d]
			for j := range ri {
				ri[j], rk[j] = rk[j], ri[j]
			}
		}
	}
}
