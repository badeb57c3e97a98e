package main

import (
	"runtime/metrics"
	"strings"
	"sync"
	"time"

	"repro/internal/archive"
	"repro/internal/core/analyzer"
	"repro/internal/repo"
	"repro/internal/rpc"
	"repro/internal/storage"
	"repro/internal/trace"
)

// Storage operations the timing decorator books.
const (
	opPut = iota
	opPutIf
	opAppend
	opGet
	opDelete
	opList
	nStoreOps
)

var storeOpNames = [nStoreOps]string{"put", "putif", "append", "get", "delete", "list"}

// timedStore is the traced run's storage layer probe: a repo.Store
// decorator that times every call and counts the bytes each write
// moves. DirStore.Append rewrites the whole object, so the length of
// the object Append returns is what it wrote.
type timedStore struct {
	repo.Store

	mu             sync.Mutex
	lat            [nStoreOps][]time.Duration
	appended       int64 // bytes callers asked Append to add
	appendRewrite  int64 // lengths of the objects Append returned
	written        int64 // bytes written by Put, PutIf and Append
	manifestCAS    int64 // PutIf calls on manifest objects
	journalAppends int64 // Append calls on shard journals
}

func newTimedStore(s repo.Store) *timedStore { return &timedStore{Store: s} }

func (t *timedStore) book(op int, start time.Time, fn func()) {
	d := time.Since(start)
	t.mu.Lock()
	t.lat[op] = append(t.lat[op], d)
	if fn != nil {
		fn()
	}
	t.mu.Unlock()
}

func (t *timedStore) Put(name string, data []byte) (*storage.Object, error) {
	start := time.Now()
	obj, err := t.Store.Put(name, data)
	t.book(opPut, start, func() { t.written += int64(len(data)) })
	return obj, err
}

func (t *timedStore) PutIf(name string, data []byte, gen int64) (*storage.Object, error) {
	start := time.Now()
	obj, err := t.Store.PutIf(name, data, gen)
	t.book(opPutIf, start, func() {
		if err == nil {
			t.written += int64(len(data))
		}
		if strings.HasPrefix(name, "runs/manifest") {
			t.manifestCAS++
		}
	})
	return obj, err
}

func (t *timedStore) Append(name string, data []byte) (*storage.Object, error) {
	start := time.Now()
	obj, err := t.Store.Append(name, data)
	t.book(opAppend, start, func() {
		if err == nil {
			t.appended += int64(len(data))
			t.appendRewrite += int64(len(obj.Data))
			t.written += int64(len(obj.Data))
		}
		if strings.HasPrefix(name, "runs/.journal") {
			t.journalAppends++
		}
	})
	return obj, err
}

func (t *timedStore) Get(name string) (*storage.Object, error) {
	start := time.Now()
	obj, err := t.Store.Get(name)
	t.book(opGet, start, nil)
	return obj, err
}

func (t *timedStore) Delete(name string) error {
	start := time.Now()
	err := t.Store.Delete(name)
	t.book(opDelete, start, nil)
	return err
}

func (t *timedStore) List(prefix string) []string {
	start := time.Now()
	names := t.Store.List(prefix)
	t.book(opList, start, nil)
	return names
}

// totals returns the time spent inside store calls, the number of
// calls, and the manifest CAS and journal append counts.
func (t *timedStore) totals() (busy time.Duration, calls, manifestCAS, journalAppends int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, l := range t.lat {
		busy += sum(l)
		calls += int64(len(l))
	}
	return busy, calls, t.manifestCAS, t.journalAppends
}

// replayCap bounds the records replayed per traced run.
const replayCap = 4 * longRecords

// replayCost is what a single-threaded replay of sessions through the
// functions the collector's drain and finalize call cost per layer.
type replayCost struct {
	records, runs   int64
	encode          time.Duration // agent: trace.AppendFramedRecord
	decode          time.Duration // collector: trace.SplitFramed + UnmarshalRecord
	decodeAllocs    uint64
	addRaw          time.Duration // drain: archive.Writer.AddRaw
	feed            time.Duration // drain: StreamAnalyzer.Feed
	finalizeCompute time.Duration // finalize: DecodeRecords, Analyze, SummarizeReport, Finalize
	archiveFinalize time.Duration // finalize: archive.Writer.Finalize alone
	open            time.Duration // read: archive.Open
	iter            time.Duration // read: archive.Iter
}

func (c replayCost) perRecord(d time.Duration) float64 {
	if c.records == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(c.records)
}

// replay re-runs sessions one at a time, batch by batch, through the
// public functions each layer exposes, and times every layer apart.
func replay(sessions []ingested) (replayCost, error) {
	var c replayCost
	allocs := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	for _, s := range sessions {
		if c.records >= replayCap {
			break
		}
		wl := s.s.base.Workload
		t := time.Now()
		var batches [][]byte
		for lo := 0; lo < s.s.n; lo += batchRecords {
			batches = append(batches, s.s.appendBatch(nil, lo, min(lo+batchRecords, s.s.n)))
		}
		c.encode += time.Since(t)

		metrics.Read(allocs)
		a0 := allocs[0].Value.Uint64()
		t = time.Now()
		var frames [][]byte
		var recs []*trace.ProfileRecord
		for _, batch := range batches {
			fr, err := trace.SplitFramed(batch)
			if err != nil {
				return c, err
			}
			for _, f := range fr {
				rec, err := trace.UnmarshalRecord(f)
				if err != nil {
					return c, err
				}
				recs = append(recs, rec)
			}
			frames = append(frames, fr...)
		}
		c.decode += time.Since(t)
		metrics.Read(allocs)
		c.decodeAllocs += allocs[0].Value.Uint64() - a0

		w := archive.NewWriter(archive.Meta{RunID: s.runID, Workload: wl})
		t = time.Now()
		for _, f := range frames {
			if err := w.AddRaw(f); err != nil {
				return c, err
			}
		}
		c.addRaw += time.Since(t)

		sa := analyzer.NewStream(wl, analyzer.StreamOptions{})
		t = time.Now()
		for _, rec := range recs {
			if err := sa.Feed(rec); err != nil {
				return c, err
			}
		}
		sa.Finish()
		c.feed += time.Since(t)

		t = time.Now()
		dec, err := w.DecodeRecords()
		if err != nil {
			return c, err
		}
		rep, err := analyzer.Analyze(wl, dec, analyzer.OLSAlgo, analyzer.Options{})
		if err != nil {
			return c, err
		}
		sum := archive.SummarizeReport(rep)
		tf := time.Now()
		blob := w.Finalize(sum)
		c.archiveFinalize += time.Since(tf)
		c.finalizeCompute += time.Since(t)

		t = time.Now()
		a, err := archive.Open(blob)
		if err != nil {
			return c, err
		}
		c.open += time.Since(t)
		t = time.Now()
		it := a.Iter()
		for it.Next() {
		}
		if err := it.Err(); err != nil {
			return c, err
		}
		c.iter += time.Since(t)

		c.records += int64(s.s.n)
		c.runs++
	}
	return c, nil
}

// pingP50 measures the transport floor: the median round trip of the
// fleet's Ping RPC over a dedicated loopback connection.
func pingP50(addr string, n int) (time.Duration, error) {
	c, err := rpc.Dial(addr)
	if err != nil {
		return 0, err
	}
	defer c.Close()
	lat := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		t := time.Now()
		if _, err := repo.PingEndpoint(c); err != nil {
			return 0, err
		}
		lat = append(lat, time.Since(t))
	}
	return pct(lat, 0.5), nil
}
