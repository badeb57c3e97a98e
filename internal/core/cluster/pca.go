package cluster

import (
	"context"
	"math"

	"repro/internal/parallel"
)

// PCAP projects the (already standardized) matrix onto its top-k
// principal components — the dimensional reduction step the paper
// applies before k-means. The components are the eigenvectors of the
// covariance matrix from one exact dense symmetric eigensolve
// (symEigen), taken in descending eigenvalue order and cut at the
// numerical rank: at most k are kept, and none whose eigenvalue is
// λ ≤ d·ε·λ_max. When the covariance's rank is below k the projection is
// therefore an isometry of the centered rows. Each component's sign is
// fixed so that its largest-magnitude entry is positive.
//
// If k >= m.Cols the input is returned unchanged (projection would be a
// rotation with no reduction, and the clustering metrics are rotation-
// invariant anyway).
//
// workers bounds the pool (workers <= 0 means GOMAXPROCS, 1 means fully
// serial). The covariance accumulation and the final projection fan out
// over fixed-size row chunks; covariance partials merge in chunk order
// and the eigensolve is serial, so the output is bit-identical for every
// worker count.
func PCAP(m *Matrix, k, workers int) *Matrix {
	if m.Rows == 0 || k >= m.Cols || k <= 0 {
		return m
	}
	pool := parallel.New(workers)
	d := m.Cols
	vecs := covariance(m, pool)
	vals := symEigen(vecs, d)
	cut := float64(d) * 0x1p-52 * vals[d-1] // d·ε·λ_max, ε = 2⁻⁵²
	var components [][]float64
	for c := d - 1; c >= 0 && len(components) < k && vals[c] > cut; c-- {
		comp := vecs[c*d : (c+1)*d]
		big := 0
		for j := range comp {
			if math.Abs(comp[j]) > math.Abs(comp[big]) {
				big = j
			}
		}
		if comp[big] < 0 {
			for j := range comp {
				comp[j] = -comp[j]
			}
		}
		components = append(components, comp)
	}
	out := NewMatrix(m.Rows, len(components))
	_ = pool.Run(context.Background(), m.Rows, parChunk, func(ci, lo, hi int) error {
		for i := lo; i < hi; i++ {
			row, dst := m.Row(i), out.Row(i)
			for c, comp := range components {
				comp = comp[:len(row)] // drops comp[j]'s bounds check
				var dot float64
				for j := range row {
					dot += row[j] * comp[j]
				}
				dst[c] = dot
			}
		}
		return nil
	})
	return out
}

// covariance returns the d×d covariance matrix (rows assumed centered —
// Standardize guarantees it). Row chunks accumulate into per-chunk
// partial matrices merged in chunk order; covChunk is larger than
// parChunk so the d² partials stay small relative to the input.
func covariance(m *Matrix, pool *parallel.Pool) []float64 {
	d := m.Cols
	partials, _ := parallel.Map(pool, context.Background(), m.Rows, covChunk,
		func(ci, lo, hi int) ([]float64, error) {
			part := make([]float64, d*d)
			for r := lo; r < hi; r++ {
				row := m.Row(r)
				for i := 0; i < d; i++ {
					if row[i] == 0 {
						continue
					}
					for j := i; j < d; j++ {
						part[i*d+j] += row[i] * row[j]
					}
				}
			}
			return part, nil
		})
	cov := make([]float64, d*d)
	for _, part := range partials {
		for i := range cov {
			cov[i] += part[i]
		}
	}
	scale := 1 / float64(maxInt(1, m.Rows-1))
	for i := 0; i < d; i++ {
		for j := i; j < d; j++ {
			cov[i*d+j] *= scale
			cov[j*d+i] = cov[i*d+j]
		}
	}
	return cov
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
