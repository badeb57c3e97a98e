package analyzer

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"testing"
)

// goldenSweepDigest pins the clustering sweeps' output: the SHA-256 of
// every report goldenEncode covers, for the runs and settings
// TestClusteringReportsGolden walks. It was recorded before the sweeps
// were fanned out and the ε-graph shared, so a match proves the reports
// are bit-identical to the serial, one-graph-per-call implementation.
const goldenSweepDigest = "3ed636fcb3a4ceb6258afe0c2a85c7a1372a6a97451e50a4a16a78aa79b49069"

// goldenEncode writes the report fields the sweeps decide: the chosen
// k and min-samples, both sweep series (floats as exact bit patterns)
// and every phase's member steps.
func goldenEncode(w io.Writer, r *Report) {
	fmt.Fprintf(w, "k=%d minPts=%d\nssd", r.ChosenK, r.ChosenMinPts)
	for _, v := range r.KMeansSSD {
		fmt.Fprintf(w, " %x", math.Float64bits(v))
	}
	fmt.Fprintf(w, "\ngrid %v\nnoise", r.DBSCANGrid)
	for _, v := range r.DBSCANNoise {
		fmt.Fprintf(w, " %x", math.Float64bits(v))
	}
	fmt.Fprintln(w)
	for _, p := range r.Phases {
		fmt.Fprintf(w, "phase %d %v\n", p.ID, p.StepIDs())
	}
}

func TestClusteringReportsGolden(t *testing.T) {
	runs := []struct {
		name  string
		steps int
	}{{"dcgan-mnist", 120}, {"bert-mrpc", 60}}
	h := sha256.New()
	for _, run := range runs {
		_, steps := runWorkload(t, run.name, run.steps)
		for _, algo := range []Algorithm{KMeansAlgo, DBSCANAlgo} {
			for _, sel := range []KSelection{SelectElbow, SelectBIC} {
				var serial string
				for _, par := range []int{1, 2, 4} {
					rep, err := AnalyzeSteps(run.name, steps, algo, Options{Seed: 1, KSelection: sel, Parallelism: par})
					if err != nil {
						t.Fatalf("%s %s %s parallelism %d: %v", run.name, algo, sel, par, err)
					}
					rh := sha256.New()
					goldenEncode(rh, rep)
					sum := hex.EncodeToString(rh.Sum(nil))
					if par == 1 {
						serial = sum
					} else if sum != serial {
						t.Errorf("%s %s %s: parallelism %d report differs from serial", run.name, algo, sel, par)
					}
				}
				fmt.Fprintf(h, "%s %s %s %s\n", run.name, algo, sel, serial)
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenSweepDigest {
		t.Fatalf("clustering report digest %s, want %s", got, goldenSweepDigest)
	}
}
