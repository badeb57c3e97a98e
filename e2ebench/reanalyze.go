package main

import (
	"fmt"
	"reflect"
	"time"

	"repro/internal/core/analyzer"
	"repro/internal/obs"
	"repro/internal/repo"
)

// reanalyzeAlgos is the paper's offline Analyzer: every run is
// summarized by OLS, k-means and DBSCAN.
var reanalyzeAlgos = []analyzer.Algorithm{analyzer.OLSAlgo, analyzer.KMeansAlgo, analyzer.DBSCANAlgo}

// reanalyzeWorkload: one analysis at a time with Parallelism = the core
// count, over every base run archived at set-up. It is the only
// workload in which core/cluster and parallel do the work. The unit
// operation is one pass over the whole set.
var reanalyzeWorkload = workload{
	setup: func(b *bench) error {
		streams := make([]stream, len(b.bases))
		for i, base := range b.bases {
			streams[i] = stream{base: base, n: len(base.Recs)}
		}
		if err := b.archiveSet(streams, "reanalyze"); err != nil {
			return err
		}
		// References run the serial path: reports must be bit-identical
		// at any parallelism.
		for _, r := range b.set {
			r.reports = map[analyzer.Algorithm]*analyzer.Report{}
			for _, algo := range reanalyzeAlgos {
				rep, err := analyzer.Analyze(r.s.base.Workload, r.recs, algo, b.analyzerOptions(1, nil))
				if err != nil {
					return err
				}
				r.reports[algo] = rep
			}
		}
		rd, err := b.col.reader()
		b.rd = []*repo.Repo{rd}
		return err
	},
	load: func(b *bench, o *outcome, deadline time.Time) {
		for first := true; first || time.Now().Before(deadline); first = false {
			t, recs := time.Now(), o.records
			ok := true
			for _, r := range b.set {
				ok = b.reanalyzeRun(o, r) && ok
			}
			if ok {
				d := time.Since(t)
				o.passes = append(o.passes, d)
				o.ops = append(o.ops, d)
				o.slices = append(o.slices, slice{d, 1, o.records - recs})
			}
		}
	},
	audit: func(b *bench, o *outcome) error {
		acked := make([]repo.RunInfo, len(b.set))
		for i, r := range b.set {
			acked[i] = r.info
		}
		return b.auditCommon(acked)
	},
}

func (b *bench) analyzerOptions(par int, reg *obs.Registry) analyzer.Options {
	return analyzer.Options{Seed: b.cfg.Seed, Parallelism: par, Obs: reg}
}

// reanalyzeRun reads one archived run back and analyzes it with every
// algorithm, checking each report against the set-up reference.
func (b *bench) reanalyzeRun(o *outcome, r *archived) bool {
	t := time.Now()
	_, a, err := b.rd[0].Get(r.runID)
	if err != nil {
		o.fail(fmt.Errorf("get %s: %w", r.runID, err))
		return false
	}
	recs, err := a.Records()
	if err != nil {
		o.fail(fmt.Errorf("decode %s: %w", r.runID, err))
		return false
	}
	ok := true
	for _, algo := range reanalyzeAlgos {
		ta := time.Now()
		rep, err := analyzer.Analyze(r.s.base.Workload, recs, algo, b.analyzerOptions(b.cfg.Agents, b.anReg))
		d := time.Since(ta)
		if err == nil && !reflect.DeepEqual(rep, r.reports[algo]) {
			err = fmt.Errorf("%s %s: %w", algo, r.runID, errIncorrect)
		}
		o.mu.Lock()
		o.attempted++
		switch algo {
		case analyzer.KMeansAlgo:
			o.kmeansT = append(o.kmeansT, d)
		case analyzer.DBSCANAlgo:
			o.dbscanT = append(o.dbscanT, d)
		}
		o.mu.Unlock()
		if err != nil {
			o.fail(err)
			ok = false
		}
	}
	o.records += int64(len(recs))
	o.opened += int64(len(recs))
	o.iterated += int64(len(recs))
	o.busy += time.Since(t)
	return ok
}
