package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core/analyzer"
	"repro/internal/obs"
	"repro/internal/repo"
	"repro/internal/rpc"
	"repro/internal/trace"
)

// config is one benchmark invocation.
type config struct {
	Workload string
	Seed     uint64
	Window   time.Duration // measured time (split in two when traced)
	Trace    bool
	Agents   int    // concurrent agents or readers: the core count
	Setups   int    // set-ups per untraced run; setup_s is their median
	Dir      string // scratch directory for the stores

	// wrap decorates the store under the collector (fault self-test).
	wrap func(repo.Store) repo.Store
}

// workload is one traffic mix. setup runs after the collector starts
// and counts toward setup_s; load runs closed-loop until the deadline;
// audit checks every output the load produced.
type workload struct {
	setup func(b *bench) error
	load  func(b *bench, o *outcome, deadline time.Time)
	audit func(b *bench, o *outcome) error
}

var workloadTable = map[string]workload{
	"ingest-long":  ingestLong,
	"ingest-churn": ingestChurn,
	"query":        queryWorkload,
	"reanalyze":    reanalyzeWorkload,
}

// bench is one set-up: generated inputs, a running collector, agent
// clients, and whatever the workload archived at set-up.
type bench struct {
	cfg   config
	bases []*baseRun
	col   *collector
	dir   string

	ts       *timedStore   // storage-layer timings (traced only)
	anReg    *obs.Registry // analyzer stage timings (traced only)
	agentReg *obs.Registry // the agents' rpc metrics
	agents   []*rpc.ReconnectClient
	slept    atomic.Int64 // ns the agents slept in retry backoff

	set   []*archived // runs archived at set-up
	pairs []diffPair  // query: diff pairs into set
	rd    []*repo.Repo
}

// base returns variant v of model m.
func (b *bench) base(m, v int) *baseRun {
	return b.bases[(m%len(baseModels))*variantsPerBase+v%variantsPerBase]
}

func newBench(cfg config, wl workload, traced bool, n int) (_ *bench, err error) {
	b := &bench{
		cfg:      cfg,
		dir:      filepath.Join(cfg.Dir, fmt.Sprintf("setup-%d", n)),
		agentReg: obs.NewRegistry(0),
	}
	defer func() {
		if err != nil {
			b.close()
		}
	}()
	if b.bases, err = generateInputs(cfg.Seed); err != nil {
		return nil, err
	}
	if err := os.RemoveAll(b.dir); err != nil {
		return nil, err
	}
	wrap := cfg.wrap
	var an analyzer.Options
	if traced {
		b.anReg = obs.NewRegistry(0)
		an.Obs = b.anReg
		wrap = func(s repo.Store) repo.Store {
			if cfg.wrap != nil {
				s = cfg.wrap(s)
			}
			b.ts = newTimedStore(s)
			return b.ts
		}
	}
	if b.col, err = startCollector(b.dir, replicas, wrap, an); err != nil {
		return nil, err
	}
	for a := 0; a < cfg.Agents; a++ {
		c, err := b.col.newAgent(b.agentReg, cfg.Seed+uint64(a), func(d time.Duration) {
			t := time.Now()
			time.Sleep(d)
			b.slept.Add(int64(time.Since(t)))
		})
		if err != nil {
			return nil, err
		}
		b.agents = append(b.agents, c)
	}
	if wl.setup != nil {
		if err := wl.setup(b); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
	}
	return b, nil
}

func (b *bench) close() {
	for _, c := range b.agents {
		c.Close()
	}
	if b.col != nil {
		b.col.close()
	}
	os.RemoveAll(b.dir)
}

// outcome is what one measured window observed.
type outcome struct {
	mu sync.Mutex

	elapsed           time.Duration
	attempted, failed int64
	firstErr          error

	records int64           // records moved by the workload's operations
	ops     []time.Duration // the workload's unit operation, for op_p50_ms
	busy    time.Duration   // agent-observed time inside calls

	// Throughput is the median over slices of the window, so that a
	// burst of interference from outside the process moves one slice,
	// not the result. Workloads either book whole slices (a round, a
	// pass) or book each operation's completion into one-second bins.
	start  time.Time
	slices []slice
	bins   map[int]*slice

	// ingest
	sessions  []ingested
	appends   []time.Duration
	finalizes []time.Duration
	sessLat   []time.Duration

	// reads
	byKind           map[string][]time.Duration // query latencies by operation
	opened, iterated int64                      // records in archives opened / iterated
	fed              int64                      // records fed to stream analyzers
	kmeansT, dbscanT []time.Duration            // reanalyze: per-run clustering calls
	passes           []time.Duration            // reanalyze: whole-set passes

	// Go runtime, across the window
	allocBytes uint64
	heapPeak   uint64
	gcCycles   uint32
	gcPause    time.Duration
}

// slice is one part of the window and the work completed in it.
type slice struct {
	dur     time.Duration
	ops     int
	records int64
}

// complete books one operation that moved records into the one-second
// bin it finished in. The caller holds o.mu.
func (o *outcome) complete(records int64) {
	k := int(time.Since(o.start) / time.Second)
	if o.bins[k] == nil {
		o.bins[k] = &slice{dur: time.Second}
	}
	o.bins[k].ops++
	o.bins[k].records += records
}

// rates returns the median per-slice operation and record rates. Bins
// are used only when the workload booked no whole slices; the last,
// partial bin is dropped, and a window shorter than one bin is one
// slice.
func (o *outcome) rates() (opsPerS, recsPerS float64) {
	sl := o.slices
	if len(sl) == 0 {
		for k := 0; time.Duration(k+1)*time.Second <= o.elapsed; k++ {
			b := slice{dur: time.Second}
			if o.bins[k] != nil {
				b = *o.bins[k]
			}
			sl = append(sl, b)
		}
	}
	if len(sl) == 0 {
		sl = []slice{{o.elapsed, len(o.ops), o.records}}
	}
	var ops, recs []float64
	for _, x := range sl {
		ops = append(ops, float64(x.ops)/x.dur.Seconds())
		recs = append(recs, float64(x.records)/x.dur.Seconds())
	}
	return median(ops), median(recs)
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	return (s[(n-1)/2] + s[n/2]) / 2
}

// ingested is one finalized session and the records it carried.
type ingested struct {
	runID string
	s     stream
	info  repo.RunInfo
}

// fail counts one failed operation, keeping the first error for the log.
func (o *outcome) fail(err error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.failed++
	if o.firstErr == nil {
		o.firstErr = err
	}
}

// measure runs the workload's load for window with a clean heap and
// records allocation, peak heap and GC activity across it.
func (b *bench) measure(wl workload, window time.Duration) *outcome {
	o := &outcome{byKind: map[string][]time.Duration{}, bins: map[int]*slice{}}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	stop := make(chan struct{})
	peak := make(chan uint64)
	go watchHeap(stop, peak)

	o.start = time.Now()
	wl.load(b, o, o.start.Add(window))
	o.elapsed = time.Since(o.start)

	close(stop)
	o.heapPeak = <-peak
	runtime.ReadMemStats(&after)
	o.allocBytes = after.TotalAlloc - before.TotalAlloc
	o.gcCycles = after.NumGC - before.NumGC
	o.gcPause = time.Duration(after.PauseTotalNs - before.PauseTotalNs)
	return o
}

// watchHeap samples the live heap (as of the last GC) every few
// milliseconds until stop closes, then sends the largest sample. The
// live heap, unlike the heap's total object bytes, does not depend on
// how far the collector lags behind, so it repeats from run to run.
func watchHeap(stop <-chan struct{}, peak chan<- uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	var hi uint64
	sample := func() {
		metrics.Read(s)
		if s[0].Value.Kind() == metrics.KindUint64 {
			hi = max(hi, s[0].Value.Uint64())
		}
	}
	t := time.NewTicker(5 * time.Millisecond)
	defer t.Stop()
	for {
		sample()
		select {
		case <-stop:
			sample()
			peak <- hi
			return
		case <-t.C:
		}
	}
}

// auditCommon checks what every workload must leave behind: a fresh
// reader lists every acknowledged run, fsck is clean, and the
// collector archived every record it took in.
func (b *bench) auditCommon(acked []repo.RunInfo) error {
	rd, err := b.col.reader()
	if err != nil {
		return fmt.Errorf("audit: open reader: %w", err)
	}
	infos, err := rd.List(repo.Filter{})
	if err != nil {
		return fmt.Errorf("audit: list: %w", err)
	}
	listed := make(map[string]repo.RunInfo, len(infos))
	for _, in := range infos {
		listed[in.RunID] = in
	}
	for _, a := range acked {
		in, ok := listed[a.RunID]
		if !ok {
			return fmt.Errorf("audit: acked run %q missing from a fresh reader's list", a.RunID)
		}
		if in.Records != a.Records {
			return fmt.Errorf("audit: run %q lists %d records, ack said %d", a.RunID, in.Records, a.Records)
		}
	}
	if len(infos) != len(acked) {
		return fmt.Errorf("audit: reader lists %d runs, %d were acked", len(infos), len(acked))
	}
	rep, err := rd.Fsck(false)
	if err != nil {
		return fmt.Errorf("audit: fsck: %w", err)
	}
	if !rep.Clean() {
		return fmt.Errorf("audit: fsck found %d issues, first: %v", len(rep.Issues), rep.Issues[0])
	}
	in, arch := b.col.counter("fleet.records.in"), b.col.counter("fleet.records.archived")
	if in != arch {
		return fmt.Errorf("audit: fleet.records.in %d != fleet.records.archived %d", in, arch)
	}
	return nil
}

// auditRecords re-marshals every stored record of each session and
// compares it byte for byte with the frames the agent sent.
func (b *bench) auditRecords(sessions []ingested) error {
	rd, err := b.col.reader()
	if err != nil {
		return err
	}
	for _, s := range sessions {
		_, a, err := rd.Get(s.runID)
		if err != nil {
			return fmt.Errorf("audit: get %q: %w", s.runID, err)
		}
		got, err := a.Records()
		if err != nil {
			return fmt.Errorf("audit: decode %q: %w", s.runID, err)
		}
		want, err := s.s.payloads()
		if err != nil {
			return err
		}
		if len(got) != len(want) {
			return fmt.Errorf("audit: run %q holds %d records, agent sent %d", s.runID, len(got), len(want))
		}
		for i, r := range got {
			if string(trace.MarshalRecord(r)) != string(want[i]) {
				return fmt.Errorf("audit: run %q record %d differs from the frame sent", s.runID, i)
			}
		}
	}
	return nil
}

var errIncorrect = errors.New("output differs from the set-up reference")
