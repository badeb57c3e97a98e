package main

import (
	"context"
	"fmt"

	"repro/internal/estimator"
	"repro/internal/parallel"
	"repro/internal/prng"
	"repro/internal/simclock"
	"repro/internal/tpu"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// Collector and input sizes. The step counts keep set-up to about a
// second on two cores: estimator cost grows faster than linearly in
// steps (bert-mrpc costs ~0.1 s at 50 steps and ~1.3 s at 200).
const (
	replicas        = 2     // collector replicas, as -collect-serve -replicas 2
	batchRecords    = 32    // records per PutBatch, every workload
	longRecords     = 10240 // records per ingest-long session
	querySetRuns    = 32    // runs archived for the query workload
	variantsPerBase = 4     // estimator seeds per model
)

// baseModels are the profiled jobs every input is cut from: one
// convolutional and one transformer model, so the query set holds
// same-workload and cross-workload pairs.
var baseModels = []struct {
	name  string
	steps int
}{
	{"dcgan-mnist", 120},
	{"bert-mrpc", 60},
}

// baseRun is one profiled training run: the records a profiler polling
// ProfileService.NextWindow once per step produces.
type baseRun struct {
	Workload string
	Recs     []*trace.ProfileRecord

	span     simclock.Duration // simulated time covered, for re-stamping
	stepSpan int64             // step numbers covered, for re-stamping
}

// generateInputs profiles len(baseModels)*variantsPerBase short runs,
// in parallel on every core. The seed alone fixes every record; nothing
// depends on wall time or on the order the runs finish in.
func generateInputs(seed uint64) ([]*baseRun, error) {
	src := prng.New(seed)
	type job struct {
		w     *workloads.Workload
		steps int
		seed  uint64
	}
	var jobs []job
	for _, m := range baseModels {
		w, err := workloads.Get(m.name)
		if err != nil {
			return nil, err
		}
		for v := 0; v < variantsPerBase; v++ {
			jobs = append(jobs, job{w, m.steps, src.Uint64() | 1})
		}
	}
	return parallel.Map(parallel.New(0), context.Background(), len(jobs), 1,
		func(_, i, _ int) (*baseRun, error) {
			recs, err := profileRun(jobs[i].w, jobs[i].steps, jobs[i].seed)
			if err != nil {
				return nil, err
			}
			return newBaseRun(jobs[i].w.Name, recs), nil
		})
}

// profileRun trains w for steps steps and polls the profile service
// after every step, the deterministic collection path internal/cluster
// uses. The wall-clock profiler loop is avoided on purpose: its polling
// cadence depends on real time and adds or drops windows between runs.
func profileRun(w *workloads.Workload, steps int, seed uint64) ([]*trace.ProfileRecord, error) {
	var (
		svc  *tpu.ProfileService
		recs []*trace.ProfileRecord
	)
	take := func(resp tpu.ProfileResponse) {
		if resp.WindowEnd <= resp.WindowStart {
			return
		}
		recs = append(recs, trace.Reduce(int64(len(recs)), resp.WindowStart,
			resp.Events, resp.IdleFrac, resp.MXUUtil))
	}
	r, err := estimator.New(w, estimator.Options{
		Steps:       steps,
		Seed:        seed,
		DisableEval: true,
		OnTrainStep: func(_ *estimator.Runner, _ int64, _ tpu.StepTiming) {
			take(svc.NextWindow())
		},
	})
	if err != nil {
		return nil, fmt.Errorf("profiling %s: %w", w.Name, err)
	}
	svc = r.ProfileService()
	if err := r.Run(); err != nil {
		return nil, fmt.Errorf("profiling %s: %w", w.Name, err)
	}
	for {
		resp := svc.NextWindow()
		take(resp)
		if resp.EndOfStream || resp.WindowEnd <= resp.WindowStart {
			break
		}
	}
	if len(recs) < batchRecords {
		return nil, fmt.Errorf("profiling %s: %d records, need at least %d", w.Name, len(recs), batchRecords)
	}
	return recs, nil
}

func newBaseRun(workload string, recs []*trace.ProfileRecord) *baseRun {
	lo, hi := recs[0].Steps[0].Step, recs[0].Steps[0].Step
	for _, r := range recs {
		for _, s := range r.Steps {
			lo, hi = min(lo, s.Step), max(hi, s.Step)
		}
	}
	last := recs[len(recs)-1]
	return &baseRun{
		Workload: workload,
		Recs:     recs,
		span:     last.WindowEnd.Sub(recs[0].WindowStart) + simclock.Microsecond,
		stepSpan: hi - lo + 1,
	}
}

// stream is a session's record sequence: records [off, off+n) of the
// base run repeated end to end, each copy shifted in time and step
// number so that a long session stays monotonic, re-sequenced from 0.
type stream struct {
	base *baseRun
	off  int
	n    int
}

// record returns the stream's i-th record. Copies share the base run's
// op maps; callers only read them.
func (s stream) record(i int) *trace.ProfileRecord {
	L := len(s.base.Recs)
	k, j := (s.off+i)/L, (s.off+i)%L
	src := s.base.Recs[j]
	if k == 0 && int64(i) == src.Seq {
		return src
	}
	shift := simclock.Duration(k) * s.base.span
	r := *src
	r.Seq = int64(i)
	r.WindowStart = src.WindowStart.Add(shift)
	r.WindowEnd = src.WindowEnd.Add(shift)
	r.Steps = make([]*trace.StepStat, len(src.Steps))
	for n, st := range src.Steps {
		c := *st
		c.Step += int64(k) * s.base.stepSpan
		c.Start = st.Start.Add(shift)
		c.End = st.End.Add(shift)
		r.Steps[n] = &c
	}
	return &r
}

// appendBatch encodes records [lo, hi) as a uvarint-framed batch, the
// agent-side encode a profiler does before each PutBatch.
func (s stream) appendBatch(dst []byte, lo, hi int) []byte {
	for i := lo; i < hi; i++ {
		dst = trace.AppendFramedRecord(dst, s.record(i))
	}
	return dst
}

// payloads returns every record's wire bytes, the reference the audits
// compare stored records against.
func (s stream) payloads() ([][]byte, error) {
	return trace.SplitFramed(s.appendBatch(nil, 0, s.n))
}

// decoded returns the records as a collector sees them after the wire.
func (s stream) decoded() ([]*trace.ProfileRecord, error) {
	return trace.UnmarshalFramed(s.appendBatch(nil, 0, s.n))
}
