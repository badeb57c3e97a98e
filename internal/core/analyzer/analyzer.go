// Package analyzer implements TPUPoint-Analyzer: the post-execution pass
// that turns statistical profile records into program phases.
//
// Three summarization methods are provided, mirroring Section IV:
//
//   - OLS, the online linear scan: consecutive steps whose operator sets
//     satisfy Equation 1's StepSimilarity above a threshold (default 70%)
//     merge into one phase;
//   - k-means over PCA-reduced step feature vectors, k = 1..15 selected by
//     the elbow method on the sum of squared distances;
//   - DBSCAN over the same features, minimum-samples selected by the elbow
//     method on the noise ratio, with the unlabeled (noise) points kept as
//     one extra cluster, as the paper does for its coverage numbers.
//
// The package also produces the derived results the paper reports: phase
// coverage of execution time, the top-N most time-consuming operators of
// the longest phase (Table II), and phase→checkpoint association.
package analyzer

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/core/cluster"
	"repro/internal/obs"
	"repro/internal/simclock"
	"repro/internal/trace"
)

// Algorithm selects a phase-detection method.
type Algorithm string

// The three summarization methods.
const (
	OLSAlgo    Algorithm = "ols"
	KMeansAlgo Algorithm = "kmeans"
	DBSCANAlgo Algorithm = "dbscan"
)

// DefaultThreshold is the OLS similarity threshold the paper found to give
// 3 phases covering ≥95% of execution for most workloads.
const DefaultThreshold = 0.70

// KSelection picks how the k-means cluster count is chosen.
type KSelection string

// K-selection rules: the paper's elbow heuristic (default) and SimPoint's
// Bayesian information criterion, provided for comparison.
const (
	SelectElbow KSelection = "elbow"
	SelectBIC   KSelection = "bic"
)

// Options tune an analysis run.
type Options struct {
	// Threshold is the OLS StepSimilarity threshold (default 0.70).
	Threshold float64
	// KMax bounds the k-means sweep (default 15, as in the paper).
	KMax int
	// KSelection chooses elbow (paper default) or BIC (SimPoint style).
	KSelection KSelection
	// MinPtsMax / MinPtsStep define the DBSCAN sweep (default 180 / 25).
	MinPtsMax  int
	MinPtsStep int
	// Seed feeds k-means initialization.
	Seed uint64
	// MemoryBudget bounds clustering working memory in bytes; exceeded
	// budgets surface cluster.ErrMemoryBudget (0 = unlimited).
	MemoryBudget int64
	// Parallelism bounds the clustering worker pool: 0 uses GOMAXPROCS,
	// 1 forces the serial path. It is spent on row chunks inside each
	// kernel and on the members of each selection sweep: one task per k
	// of the k-means sweep and per min-samples value of the DBSCAN sweep,
	// which shares one ε-neighbour graph. Results are bit-identical for
	// every setting — reductions merge in a fixed chunk order and every
	// sweep member writes its own slot (see internal/parallel).
	Parallelism int
	// Obs, when set, records per-stage wall time (feature extraction,
	// PCA, the clustering sweeps, OLS) as latency histograms.
	Obs *obs.Registry
}

func (o Options) withDefaults() Options {
	if o.Threshold == 0 {
		o.Threshold = DefaultThreshold
	}
	if o.KMax == 0 {
		o.KMax = 15
	}
	if o.MinPtsMax == 0 {
		o.MinPtsMax = 180
	}
	if o.MinPtsStep == 0 {
		o.MinPtsStep = 25
	}
	if o.KSelection == "" {
		o.KSelection = SelectElbow
	}
	return o
}

// Phase is a group of steps with similar behaviour.
type Phase struct {
	ID    int
	Steps []*trace.StepStat

	Start simclock.Time     // earliest member start
	End   simclock.Time     // latest member end
	Total simclock.Duration // summed member spans (incl. pre-step idle)

	// Checkpoint is the closest saved checkpoint, filled by
	// AssociateCheckpoints.
	Checkpoint string
}

// StepIDs returns the member step numbers in ascending order.
func (p *Phase) StepIDs() []int64 {
	ids := make([]int64, len(p.Steps))
	for i, s := range p.Steps {
		ids[i] = s.Step
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// TopOps returns the phase's n most time-consuming operators per device.
func (p *Phase) TopOps(dev trace.Device, n int) []trace.OpTotal {
	return trace.TopOps(p.Steps, dev, n)
}

// StepSimilarity computes Equation 1: the ratio of the intersection of
// the two steps' event sets to the size of the smaller set. The ratio
// is undefined when both steps are empty — there is no evidence either
// way — so that case returns NaN; callers must compare through
// meetsThreshold (OLS does), which treats NaN as "not similar". A step
// with ops compared against an empty step is 0: no shared behaviour.
func StepSimilarity(a, b *trace.StepStat) float64 {
	sa, sb := a.OpSet(), b.OpSet()
	if len(sa) == 0 || len(sb) == 0 {
		if len(sa) == len(sb) {
			return math.NaN()
		}
		return 0
	}
	small, large := sa, sb
	if len(sb) < len(sa) {
		small, large = sb, sa
	}
	inter := 0
	for k := range small {
		if _, ok := large[k]; ok {
			inter++
		}
	}
	return float64(inter) / float64(len(small))
}

// meetsThreshold is the one place a StepSimilarity value is compared
// against the OLS threshold. The comparison is explicit about the edge
// cases: a NaN similarity (two empty steps — Equation 1 undefined) or a
// NaN threshold never merges. Before this rule an empty step always
// merged into a preceding empty step because the undefined ratio was
// reported as 1.
func meetsThreshold(sim, threshold float64) bool {
	if math.IsNaN(sim) || math.IsNaN(threshold) {
		return false
	}
	return sim >= threshold
}

// OLS runs the online linear scan: walk the steps in order and merge each
// step into the current phase when its similarity to the previous step
// meets the threshold, otherwise start a new phase. Undefined
// similarities (both steps empty) and NaN thresholds never merge — see
// meetsThreshold.
func OLS(steps []*trace.StepStat, threshold float64) []*Phase {
	if len(steps) == 0 {
		return nil
	}
	var phases []*Phase
	cur := newPhase(0, steps[0])
	for i := 1; i < len(steps); i++ {
		if meetsThreshold(StepSimilarity(steps[i-1], steps[i]), threshold) {
			cur.addStep(steps[i])
			continue
		}
		phases = append(phases, cur)
		cur = newPhase(len(phases), steps[i])
	}
	phases = append(phases, cur)
	return phases
}

func newPhase(id int, s *trace.StepStat) *Phase {
	p := &Phase{ID: id}
	p.addStep(s)
	return p
}

func (p *Phase) addStep(s *trace.StepStat) {
	if len(p.Steps) == 0 || s.Start < p.Start {
		p.Start = s.Start
	}
	if s.End > p.End {
		p.End = s.End
	}
	p.Total += s.End.Sub(s.Start)
	p.Steps = append(p.Steps, s)
}

// featureMatrix builds the standardized, PCA-reduced step feature matrix
// every clustering algorithm consumes, honoring the parallelism option.
func featureMatrix(steps []*trace.StepStat, opts Options) *cluster.Matrix {
	start := time.Now()
	m, _ := cluster.FeaturesP(steps, opts.Parallelism)
	cluster.StandardizeP(m, opts.Parallelism)
	opts.Obs.Histogram("analyzer.stage.features_us").ObserveSince(start)
	start = time.Now()
	out := cluster.PCAP(m, cluster.MaxFeatureOps, opts.Parallelism)
	opts.Obs.Histogram("analyzer.stage.pca_us").ObserveSince(start)
	return out
}

// phasesFromLabels groups steps by cluster label. Label order follows
// first appearance so phase IDs are stable.
func phasesFromLabels(steps []*trace.StepStat, labels []int) []*Phase {
	byLabel := make(map[int]*Phase)
	var order []int
	for i, s := range steps {
		l := labels[i]
		p, ok := byLabel[l]
		if !ok {
			p = &Phase{ID: len(order)}
			byLabel[l] = p
			order = append(order, l)
		}
		p.addStep(s)
	}
	out := make([]*Phase, 0, len(order))
	for _, l := range order {
		out = append(out, byLabel[l])
	}
	return out
}

// KMeansPhases clusters the steps with PCA + k-means, choosing k by the
// elbow method over 1..KMax. It returns the phases, the SSD series of the
// sweep (Figure 4's data), and the chosen k.
func KMeansPhases(steps []*trace.StepStat, opts Options) ([]*Phase, []float64, int, error) {
	opts = opts.withDefaults()
	if len(steps) == 0 {
		return nil, nil, 0, errors.New("analyzer: no steps")
	}
	m := featureMatrix(steps, opts)
	defer opts.Obs.Histogram("analyzer.stage.kmeans_us").ObserveSince(time.Now())
	runs, err := cluster.KMeansSweep(m, opts.KMax, opts.Seed, opts.MemoryBudget, opts.Parallelism)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("analyzer: k-means sweep: %w", err)
	}
	ssd := cluster.SSDs(runs)
	k := cluster.Elbow(ssd)
	if opts.KSelection == SelectBIC {
		k = cluster.BestBIC(cluster.BICs(m, runs))
	}
	return phasesFromLabels(steps, runs[k-1].Assignment), ssd, k, nil
}

// DBSCANPhases clusters the steps with DBSCAN, choosing min-samples by
// the elbow method over the noise-ratio sweep. Noise points form one
// additional phase (the paper counts unlabeled samples as a cluster when
// measuring coverage). It returns the phases, the sweep's minPts grid and
// noise ratios (Figure 5's data), and the chosen minPts.
func DBSCANPhases(steps []*trace.StepStat, opts Options) ([]*Phase, []int, []float64, int, error) {
	opts = opts.withDefaults()
	if len(steps) == 0 {
		return nil, nil, nil, 0, errors.New("analyzer: no steps")
	}
	m := featureMatrix(steps, opts)
	defer opts.Obs.Histogram("analyzer.stage.dbscan_us").ObserveSince(time.Now())
	runs, err := cluster.DBSCANSweep(m, opts.MinPtsMax, opts.MinPtsStep, opts.MemoryBudget, opts.Parallelism)
	if err != nil {
		return nil, nil, nil, 0, fmt.Errorf("analyzer: dbscan sweep: %w", err)
	}
	grid, ratios := cluster.NoiseSeries(runs)
	// The noise curve rises with min-samples; the elbow of the *rising*
	// curve balances "minimize noise" against "maximize min samples".
	chosen := runs[cluster.Elbow(ratios)-1]
	return phasesFromLabels(steps, chosen.Labels), grid, ratios, chosen.MinPts, nil
}

// SortByTotal orders phases by descending total time.
func SortByTotal(phases []*Phase) []*Phase {
	out := append([]*Phase(nil), phases...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Total != out[j].Total {
			return out[i].Total > out[j].Total
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// Coverage returns the fraction of total step time covered by the top-n
// phases (Figures 7-9).
func Coverage(phases []*Phase, n int) float64 {
	var total, top simclock.Duration
	for _, p := range phases {
		total += p.Total
	}
	if total == 0 {
		return 0
	}
	for i, p := range SortByTotal(phases) {
		if i >= n {
			break
		}
		top += p.Total
	}
	return float64(top) / float64(total)
}

// Checkpoint is a saved model state the analyzer can point a phase at.
type Checkpoint struct {
	Step   int64
	Object string
}

// AssociateCheckpoints fills each phase's Checkpoint with the saved
// checkpoint closest to the phase's steps, enabling restart-at-phase.
func AssociateCheckpoints(phases []*Phase, ckpts []Checkpoint) {
	if len(ckpts) == 0 {
		return
	}
	for _, p := range phases {
		ids := p.StepIDs()
		best := ""
		bestDist := int64(-1)
		for _, ck := range ckpts {
			d := minStepDistance(ids, ck.Step)
			if bestDist < 0 || d < bestDist {
				bestDist = d
				best = ck.Object
			}
		}
		p.Checkpoint = best
	}
}

func minStepDistance(sorted []int64, step int64) int64 {
	best := int64(-1)
	for _, id := range sorted {
		d := id - step
		if d < 0 {
			d = -d
		}
		if best < 0 || d < best {
			best = d
		}
	}
	return best
}
