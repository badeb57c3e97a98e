package cluster

import (
	"math"
)

// SimPoint selects its cluster count with the Bayesian information
// criterion rather than the elbow heuristic; the paper discusses the
// difference explicitly ("SimPoint uses the Bayesian information criterion
// (BIC) to measure the probability of clustering ... TPUPoint instead
// employs the elbow method"). This file provides the BIC alternative so
// the two selection rules can be compared on the same sweeps.

// BIC scores one k-means clustering of the matrix under the spherical
// Gaussian model used by X-means (Pelleg & Moore, 2000): higher is better.
func BIC(m *Matrix, r *KMeansResult) float64 {
	n := float64(m.Rows)
	d := float64(m.Cols)
	k := float64(r.K)
	if m.Rows <= r.K {
		return math.Inf(-1)
	}
	// Maximum-likelihood variance estimate across all clusters.
	variance := r.SSD / (float64(m.Rows-r.K) * d)
	if variance <= 0 {
		variance = 1e-12
	}
	var logL float64
	for c := 0; c < r.K; c++ {
		nc := float64(r.Sizes[c])
		if nc == 0 {
			continue
		}
		logL += nc*math.Log(nc) -
			nc*math.Log(n) -
			nc*d/2*math.Log(2*math.Pi*variance) -
			(nc-1)*d/2
	}
	params := k * (d + 1) // centroids plus the shared variance per cluster
	return logL - params/2*math.Log(n)
}

// BICs scores each run of a k-means sweep with BIC.
func BICs(m *Matrix, runs []*KMeansResult) []float64 {
	out := make([]float64, len(runs))
	for i, r := range runs {
		out[i] = BIC(m, r)
	}
	return out
}

// BestBIC returns the 1-based k with the highest BIC score.
func BestBIC(scores []float64) int {
	best, bestV := 1, math.Inf(-1)
	for i, v := range scores {
		if v > bestV {
			best, bestV = i+1, v
		}
	}
	return best
}
