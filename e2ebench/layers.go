package main

import (
	"time"
)

// counters is a snapshot of the obs counters and probe totals the
// ledger reads. Taken around the traced window, the difference charges
// the window alone.
type counters map[string]int64

var (
	collectorCounters = []string{
		"fleet.records.in", "fleet.records.archived", "fleet.appends.busy", "fleet.runs.saved",
		"repo.manifest.cas.retries", "repo.ingest.batches", "repo.ingest.batched_runs",
	}
	agentCounters  = []string{"rpc.calls", "rpc.redirects", "rpc.call.retries", "rpc.call.busy"}
	analyzerStages = []string{"features", "pca", "kmeans", "dbscan", "ols"}
)

func (b *bench) snapshot() counters {
	c := counters{}
	for _, n := range collectorCounters {
		c[n] = b.col.counter(n)
	}
	agents := b.agentReg.Snapshot()
	for _, n := range agentCounters {
		c[n] = agents.C(n)
	}
	c["slept_ns"] = b.slept.Load()
	busy, calls, cas, journal := b.ts.totals()
	c["storage_busy_ns"], c["storage_ops"], c["manifest_cas"], c["journal_appends"] = int64(busy), calls, cas, journal
	hists := b.anReg.Snapshot().Histograms
	for _, s := range analyzerStages {
		h := hists["analyzer.stage."+s+"_us"]
		c[s+".sum_us"], c[s+".count"] = h.SumUs, h.Count
	}
	return c
}

// layerMetrics returns the per-layer metrics of a traced run. oa is the
// untraced half of the window, ob the traced half on b; before and after
// bracket ob. The workload-level latencies come from oa, the layer
// costs from ob and a replay of the sessions ob (or the set-up) moved.
// Counters and the storage probe count everything since the collector
// started: for the read workloads that is the set-up's archiving
// through the collector, which is where they exercise the ingest
// layers. The ledger charges the window alone.
func (b *bench) layerMetrics(oa, ob *outcome, before, after counters) (map[string]metric, error) {
	out := map[string]metric{}
	set := func(name, unit string, v float64) { out[name] = metric{v, unit} }
	delta := func(n string) int64 { return after[n] - before[n] }
	total := func(n string) float64 { return float64(after[n]) }
	ratio := func(x, y float64) float64 {
		if y == 0 {
			return 0
		}
		return x / y
	}

	// Workload-level latencies, untraced.
	set("append_p50_ms", "ms", ms(pct(oa.appends, 0.5)))
	set("append_p99_ms", "ms", ms(tail(oa.appends, 0.99)))
	set("finalize_p50_ms", "ms", ms(pct(oa.finalizes, 0.5)))
	set("finalize_p99_ms", "ms", ms(tail(oa.finalizes, 0.99)))
	set("session_p50_ms", "ms", ms(pct(oa.sessLat, 0.5)))
	set("session_p99_ms", "ms", ms(tail(oa.sessLat, 0.99)))
	var queries []time.Duration
	for _, k := range queryMix {
		queries = append(queries, oa.byKind[k.kind]...)
	}
	set("query_per_s", "op/s", float64(len(queries))/oa.elapsed.Seconds())
	set("query_p50_ms", "ms", ms(pct(queries, 0.5)))
	set("query_p99_ms", "ms", ms(tail(queries, 0.99)))
	set("reanalyze_s", "s", pct(oa.passes, 0.5).Seconds())
	set("alloc_mb", "MB", float64(oa.allocBytes)/(1<<20))
	set("failed_frac", "ratio", ratio(float64(oa.failed+ob.failed), float64(oa.attempted+ob.attempted)))

	// Replay: ingest replays the window's sessions, reads replay the
	// runs archived at set-up.
	sessions := ob.sessions
	if len(sessions) == 0 {
		for _, r := range b.set {
			sessions = append(sessions, r.ingested)
		}
	}
	rc, err := replay(sessions)
	if err != nil {
		return nil, err
	}
	set("trace.encode_ns_per_record", "ns", rc.perRecord(rc.encode))
	set("trace.decode_ns_per_record", "ns", rc.perRecord(rc.decode))
	set("trace.decode_allocs_per_record", "count", ratio(float64(rc.decodeAllocs), float64(rc.records)))

	// rpc
	ping, err := pingP50(b.col.addrs[0], 500)
	if err != nil {
		return nil, err
	}
	set("rpc.calls", "count", total("rpc.calls"))
	set("rpc.redirects", "count", total("rpc.redirects"))
	set("rpc.retries", "count", total("rpc.call.retries"))
	set("rpc.busy", "count", total("rpc.call.busy"))
	set("rpc.backoff_ms", "ms", ms(time.Duration(after["slept_ns"])))
	set("rpc.ping_p50_us", "us", us(ping))

	// repo sessions and index
	set("repo.fleet.records_in", "count", total("fleet.records.in"))
	set("repo.fleet.records_archived", "count", total("fleet.records.archived"))
	set("repo.fleet.busy", "count", total("fleet.appends.busy"))
	set("archive.addraw_ns_per_record", "ns", rc.perRecord(rc.addRaw))
	set("repo.finalize_compute_ms_per_run", "ms", ratio(ms(rc.finalizeCompute), float64(rc.runs)))
	// Per-run index costs come from the span in which runs were saved:
	// the window for ingest, the set-up for the read workloads.
	perRun := func(n string) float64 {
		if saved := delta("fleet.runs.saved"); saved > 0 {
			return ratio(float64(delta(n)), float64(saved))
		}
		return ratio(float64(before[n]), float64(before["fleet.runs.saved"]))
	}
	set("repo.manifest_cas_per_run", "count", perRun("manifest_cas"))
	set("repo.manifest_cas_retries", "count", total("repo.manifest.cas.retries"))
	set("repo.journal_appends_per_run", "count", perRun("journal_appends"))
	set("repo.runs_per_commit", "count", ratio(total("repo.ingest.batched_runs"), total("repo.ingest.batches")))
	set("repo.storage_ops_per_run", "count", perRun("storage_ops"))
	ts := b.ts
	ts.mu.Lock()
	defer ts.mu.Unlock()

	// storage
	for op, name := range storeOpNames {
		l := ts.lat[op]
		set("storage."+name+".calls", "count", float64(len(l)))
		set("storage."+name+".busy_ms", "ms", ms(sum(l)))
		set("storage."+name+".p99_us", "us", us(tail(l, 0.99)))
	}
	set("storage.append_rewrite_ratio", "ratio", ratio(float64(ts.appendRewrite), float64(ts.appended)))
	set("storage.bytes_written_per_record", "B", ratio(float64(ts.written), total("fleet.records.in")))

	// archive and analyzer
	set("archive.open_ns_per_record", "ns", rc.perRecord(rc.open))
	set("archive.iter_ns_per_record", "ns", rc.perRecord(rc.iter))
	set("archive.finalize_ns_per_record", "ns", rc.perRecord(rc.archiveFinalize))
	set("analyzer.stream_feed_ns_per_record", "ns", rc.perRecord(rc.feed))
	var stageUs float64
	for _, s := range analyzerStages {
		set("analyzer.stage."+s+"_ms", "ms", ratio(total(s+".sum_us")/1e3, total(s+".count")))
		stageUs += float64(delta(s + ".sum_us"))
	}
	set("cluster.kmeans_ms_per_run", "ms", ms(mean(ob.kmeansT)))
	set("cluster.dbscan_ms_per_run", "ms", ms(mean(ob.dbscanT)))

	// repo reads
	set("repo.list_p50_us", "us", us(pct(ob.byKind["list"], 0.5)))
	set("repo.get_p50_us", "us", us(pct(ob.byKind["show"], 0.5)))
	set("repo.diff_p50_us", "us", us(pct(ob.byKind["diff"], 0.5)))

	// Go runtime
	set("heap_peak_mb", "MB", float64(oa.heapPeak)/(1<<20))
	set("runtime.gc_cycles", "count", float64(ob.gcCycles))
	set("runtime.gc_pause_ms", "ms", ms(ob.gcPause))

	// Ledger: how much of the agents' busy time the layer costs explain.
	// Ingest charges storage time, per-record compute from the replay,
	// finalize compute per run, the transport floor per call and the
	// time agents slept in retry backoff; reads charge storage time,
	// archive open and iteration per record, stream analysis and the
	// analyzer's stage timers. Storage time includes waits for the
	// store's lock, so store contention raises the share.
	layer := time.Duration(delta("storage_busy_ns"))
	if len(ob.sessions) > 0 {
		perRec := rc.perRecord(rc.encode + rc.decode + rc.addRaw + rc.feed)
		layer += time.Duration(perRec * float64(ob.records))
		layer += time.Duration(ratio(float64(rc.finalizeCompute), float64(rc.runs)) * float64(len(ob.sessions)))
		layer += ping*time.Duration(delta("rpc.calls")) + time.Duration(delta("slept_ns"))
	} else {
		layer += time.Duration(rc.perRecord(rc.open)*float64(ob.opened) +
			rc.perRecord(rc.iter)*float64(ob.iterated) +
			rc.perRecord(rc.feed)*float64(ob.fed))
		layer += time.Duration(stageUs * 1e3)
	}
	set("ledger.attributed_frac", "ratio", ratio(float64(layer), float64(ob.busy)))
	rate := func(o *outcome) float64 { return float64(len(o.ops)) / o.elapsed.Seconds() }
	set("ledger.trace_overhead_frac", "ratio", 1-ratio(rate(ob), rate(oa)))
	return out, nil
}
