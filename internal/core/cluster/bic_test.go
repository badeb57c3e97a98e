package cluster

import (
	"math"
	"testing"
)

func TestBICPrefersTrueK(t *testing.T) {
	m, _ := blobs(600, 21)
	runs, err := KMeansSweep(m, 8, 3, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	scores := BICs(m, runs)
	if len(scores) != 8 {
		t.Fatalf("scores = %d", len(scores))
	}
	k := BestBIC(scores)
	if k < 3 || k > 5 {
		t.Fatalf("BIC chose k=%d for 3 blobs (scores %v)", k, scores)
	}
	// BIC must punish k=1 hard relative to the winner.
	if scores[0] >= scores[k-1] {
		t.Fatalf("k=1 (%.1f) scored no worse than k=%d (%.1f)", scores[0], k, scores[k-1])
	}
}

func TestBICAgreesWithElbowOnBlobs(t *testing.T) {
	m, _ := blobs(450, 23)
	runs, err := KMeansSweep(m, 10, 5, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	ssd, bic := SSDs(runs), BICs(m, runs)
	ke := Elbow(ssd)
	kb := BestBIC(bic)
	if diff := ke - kb; diff > 2 || diff < -2 {
		t.Fatalf("elbow k=%d and BIC k=%d disagree badly", ke, kb)
	}
}

func TestBICDegenerateCases(t *testing.T) {
	m, _ := blobs(5, 1)
	r, err := KMeans(m, 5, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if v := BIC(m, r); !math.IsInf(v, -1) {
		t.Fatalf("BIC with k=n should be -Inf, got %g", v)
	}
	if BestBIC(nil) != 1 {
		t.Fatal("BestBIC(nil) should default to 1")
	}
}

func BenchmarkBICSweep(b *testing.B) {
	m, _ := blobs(400, 9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runs, err := KMeansSweep(m, 10, 1, 0, 0)
		if err != nil {
			b.Fatal(err)
		}
		BICs(m, runs)
	}
}
