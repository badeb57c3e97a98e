package main

import (
	"fmt"
	"reflect"
	"sync"
	"time"

	"repro/internal/archive"
	"repro/internal/core/analyzer"
	"repro/internal/prng"
	"repro/internal/repo"
	"repro/internal/trace"
)

// archived is one run the collector archived at set-up, with the
// references its reads are checked against, computed from the records
// as sent.
type archived struct {
	ingested
	recs    []*trace.ProfileRecord
	summary *archive.Summary
	watch   *analyzer.StreamReport
	reports map[analyzer.Algorithm]*analyzer.Report // reanalyze only
}

// archiveSet streams each stream through the collector from the agents
// in parallel and computes the read references.
func (b *bench) archiveSet(streams []stream, prefix string) error {
	b.set = make([]*archived, len(streams))
	errs := make([]error, len(b.agents))
	var wg sync.WaitGroup
	for a := range b.agents {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			for i := a; i < len(streams); i += len(b.agents) {
				id := fmt.Sprintf("%s-%02d", prefix, i)
				res, err := runSession(b.agents[a], b.col.store, id, streams[i])
				if err != nil {
					errs[a] = err
					return
				}
				b.set[i] = &archived{ingested: ingested{runID: id, s: streams[i], info: res.info}}
			}
		}(a)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	for _, r := range b.set {
		recs, err := r.s.decoded()
		if err != nil {
			return err
		}
		rep, err := analyzer.Analyze(r.s.base.Workload, recs, analyzer.OLSAlgo, analyzer.Options{})
		if err != nil {
			return err
		}
		r.recs, r.summary = recs, archive.SummarizeReport(rep)
		sa := analyzer.NewStream(r.s.base.Workload, analyzer.StreamOptions{})
		if err := sa.FeedBatch(recs); err != nil {
			return err
		}
		r.watch = sa.Finish()
	}
	return nil
}

// diffPair is a diff operation's two runs, indexes into the set, and
// the diff of their reference summaries.
type diffPair struct {
	x, y int
	want *repo.Diff
}

// query operation mix, in percent. Diff holds the median (list and
// show together are 40%), so op_p50_ms does not flip between two
// operation kinds from run to run.
var queryMix = []struct {
	kind   string
	weight int
}{{"list", 15}, {"show", 25}, {"diff", 35}, {"watch", 25}}

// queryWorkload: readers issue a seeded mix of list, show, watch and
// diff against runs the collector archived at set-up. It reads through
// the storage, archive and repo layers that ingest writes through, so a
// write-path change that costs reads shows here.
var queryWorkload = workload{
	setup: func(b *bench) error {
		// Run lengths are spread evenly from half to all of a base run,
		// so the set's size does not vary with the seed.
		streams := make([]stream, querySetRuns)
		for i := range streams {
			base := b.base(i, i/len(baseModels))
			L := len(base.Recs)
			streams[i] = stream{base: base, n: L/2 + (L/2)*i/(querySetRuns-1)}
		}
		if err := b.archiveSet(streams, "query"); err != nil {
			return err
		}
		// Same-workload and cross-workload pairs, alternating.
		rng := prng.New(b.cfg.Seed ^ 0x9e3779b97f4a7c15)
		for len(b.pairs) < 2*querySetRuns {
			i := rng.Intn(querySetRuns)
			j := rng.Intn(querySetRuns/len(baseModels))*len(baseModels) + i%len(baseModels)
			if len(b.pairs)%2 == 1 {
				j = rng.Intn(querySetRuns)
			}
			if i == j {
				continue
			}
			want, err := repo.DiffSummaries(b.set[i].summary, b.set[j].summary)
			if err != nil {
				return err
			}
			b.pairs = append(b.pairs, diffPair{i, j, want})
		}
		for range b.agents {
			rd, err := b.col.reader()
			if err != nil {
				return err
			}
			b.rd = append(b.rd, rd)
		}
		return nil
	},
	load: func(b *bench, o *outcome, deadline time.Time) {
		var wg sync.WaitGroup
		for a := range b.rd {
			wg.Add(1)
			go func(a int) {
				defer wg.Done()
				rng := prng.New(b.cfg.Seed).Fork(uint64(a))
				for time.Now().Before(deadline) {
					b.queryOp(o, a, rng)
				}
			}(a)
		}
		wg.Wait()
	},
	audit: func(b *bench, o *outcome) error {
		acked := make([]repo.RunInfo, len(b.set))
		for i, r := range b.set {
			acked[i] = r.info
		}
		return b.auditCommon(acked)
	},
}

// queryOp issues one seeded operation from reader a and compares its
// result with the set-up reference outside the timed span. The
// references, diffs included, are computed at set-up, so the check is a
// single reflect.DeepEqual: about 1 % of the readers' busy time (2 % of
// a show or diff) on two cores. Keeping every result to check after
// the window would instead hold about 15 MB live per second of window
// and all but stop the garbage collector, a larger distortion.
func (b *bench) queryOp(o *outcome, a int, rng *prng.Source) {
	roll, kind := rng.Intn(100), ""
	for _, m := range queryMix {
		if kind = m.kind; roll < m.weight {
			break
		}
		roll -= m.weight
	}
	rd := b.rd[a]
	r := b.set[rng.Intn(len(b.set))]
	id := r.runID
	var (
		err             error
		records, opened int64
		iterated, fed   int64
		check           func() bool
	)
	t := time.Now()
	switch kind {
	case "list":
		var infos []repo.RunInfo
		infos, err = rd.List(repo.Filter{})
		check = func() bool { return len(infos) == len(b.set) }
	case "show":
		var a *archive.Archive
		_, a, err = rd.Get(r.runID)
		if err == nil {
			sum := a.Summary()
			records, opened = a.RecordCount(), a.RecordCount()
			check = func() bool { return reflect.DeepEqual(sum, r.summary) }
		}
	case "watch":
		var a *archive.Archive
		_, a, err = rd.Get(r.runID)
		if err == nil {
			sa := analyzer.NewStream(r.s.base.Workload, analyzer.StreamOptions{})
			it := a.Iter()
			for it.Next() && err == nil {
				err = sa.Feed(it.Record())
				fed++
			}
			if err == nil {
				err = it.Err()
			}
			rep := sa.Finish()
			records, opened, iterated = a.RecordCount(), a.RecordCount(), a.RecordCount()
			check = func() bool { return reflect.DeepEqual(rep, r.watch) }
		}
	case "diff":
		p := b.pairs[rng.Intn(len(b.pairs))]
		x, y := b.set[p.x], b.set[p.y]
		id = x.runID
		var d *repo.Diff
		d, err = rd.Compare(x.runID, y.runID)
		if err == nil {
			records = x.info.Records + y.info.Records
			opened = records
			check = func() bool {
				d.A, d.B = repo.RunInfo{}, repo.RunInfo{}
				return reflect.DeepEqual(d, p.want)
			}
		}
	}
	lat := time.Since(t)
	if err == nil && !check() {
		err = fmt.Errorf("%s: %w", id, errIncorrect)
	}
	o.mu.Lock()
	o.attempted++
	o.busy += lat
	if err == nil {
		o.ops = append(o.ops, lat)
		o.byKind[kind] = append(o.byKind[kind], lat)
		o.records += records
		o.opened += opened
		o.iterated += iterated
		o.fed += fed
		o.complete(records)
	}
	o.mu.Unlock()
	if err != nil {
		o.fail(fmt.Errorf("%s: %w", kind, err))
	}
}
