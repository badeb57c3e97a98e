// Command e2ebench is the repository's end-to-end benchmark. It drives
// the collection pipeline a profile record really takes (agent encode,
// RPC, collector drain, durable session log, finalize, sharded index,
// reads and offline analysis) over loopback TCP in one process, audits
// every output, and prints one JSON result as its last line.
//
//	bash e2ebench/run.sh --workload ingest-long --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 reports the
// per-layer ledger. See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"repro/internal/repo"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		cfg     config
		seconds float64
		traceOn int
	)
	flag.StringVar(&cfg.Workload, "workload", "", "workload: ingest-long, ingest-churn, query or reanalyze")
	flag.Uint64Var(&cfg.Seed, "seed", 1, "input seed")
	flag.Float64Var(&seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&traceOn, "trace", 0, "1 reports the per-layer ledger instead of end-to-end metrics")
	flag.StringVar(&cfg.Dir, "dir", filepath.Join(".bench_build", "e2e"), "scratch directory for the stores")
	flag.Parse()
	cfg.Window = time.Duration(seconds * float64(time.Second))
	cfg.Trace = traceOn == 1
	cfg.Agents = runtime.NumCPU()
	cfg.Setups = 5
	if cfg.Window <= 0 || (traceOn != 0 && traceOn != 1) {
		fmt.Fprintln(os.Stderr, "e2ebench: bad --seconds or --trace")
		os.Exit(2)
	}
	if err := printEnv(os.Stdout, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

// printEnv records the conditions every number was measured under: no
// figure should be read at a core count it was not recorded at.
func printEnv(w io.Writer, cfg config) error {
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return err
	}
	env := map[string]any{
		"workload":   cfg.Workload,
		"seed":       cfg.Seed,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
		"replicas":   replicas,
		"store_fs":   fsType(cfg.Dir),
	}
	b, err := json.Marshal(map[string]any{"env": env})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

// fsType names the filesystem holding dir, from its statfs magic.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xef53: "ext4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs",
		0x58465342: "xfs", 0x9123683e: "btrfs", 0x6969: "nfs", 0x65735546: "fuse",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// run performs one invocation. Untraced, it sets up cfg.Setups times,
// measures the last set-up for the whole window and reports the
// end-to-end metrics. Traced, it measures half the window untraced and
// half traced, each on its own set-up, and reports the ledger.
func run(cfg config) (*result, error) {
	wl, ok := workloadTable[cfg.Workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.Workload)
	}
	if err := os.RemoveAll(cfg.Dir); err != nil {
		return nil, err
	}
	defer os.RemoveAll(cfg.Dir)

	if !cfg.Trace {
		var setups []time.Duration
		var b *bench
		for i := 0; i < cfg.Setups; i++ {
			if b != nil {
				b.close()
			}
			runtime.GC()
			t := time.Now()
			var err error
			if b, err = newBench(cfg, wl, false, i); err != nil {
				return nil, err
			}
			setups = append(setups, time.Since(t))
		}
		defer b.close()
		o := b.measure(wl, cfg.Window)
		res := newResult(o, wl.audit(b, o))
		stored, err := b.storedBytesPerRecord()
		if err != nil {
			return nil, err
		}
		e2eMetrics(res, o, pct(setups, 0.5), stored)
		return res, nil
	}

	a, err := newBench(cfg, wl, false, 0)
	if err != nil {
		return nil, err
	}
	oa := a.measure(wl, cfg.Window/2)
	auditA := wl.audit(a, oa)
	a.close()

	b, err := newBench(cfg, wl, true, 1)
	if err != nil {
		return nil, err
	}
	defer b.close()
	before := b.snapshot()
	ob := b.measure(wl, cfg.Window/2)
	after := b.snapshot()
	// The ledger reads the storage probe before the audit adds its own
	// reads to it.
	layers, err := b.layerMetrics(oa, ob, before, after)
	if err != nil {
		return nil, err
	}
	ra, res := newResult(oa, auditA), newResult(ob, wl.audit(b, ob))
	res.Correct = res.Correct && ra.Correct
	res.Attempted += ra.Attempted
	res.Failed += ra.Failed
	res.Metrics = layers
	return res, nil
}

// newResult turns an outcome and its audit into a result: any failed
// operation or audit failure makes the run incorrect.
func newResult(o *outcome, audit error) *result {
	res := &result{
		Correct:   audit == nil && o.failed == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   map[string]metric{},
	}
	if o.firstErr != nil {
		logErr(o.firstErr)
	}
	if audit != nil {
		logErr(audit)
	}
	if res.Attempted == 0 {
		res.Attempted = 1
		res.Correct = false
	}
	return res
}

func logErr(err error) { fmt.Fprintln(os.Stderr, "e2ebench: FAIL:", err) }

// e2eMetrics fills the end-to-end metrics of an untraced run.
func e2eMetrics(res *result, o *outcome, setup time.Duration, stored float64) {
	opsPerS, recsPerS := o.rates()
	set := func(name, unit string, v float64) { res.Metrics[name] = metric{v, unit} }
	set("setup_s", "s", setup.Seconds())
	set("records_per_s", "rec/s", recsPerS)
	set("ops_per_s", "op/s", opsPerS)
	set("op_p50_ms", "ms", ms(pct(o.ops, 0.5)))
	set("stored_bytes_per_record", "B", stored)
	set("alloc_kb_per_record", "KB", float64(o.allocBytes)/1024/float64(max(o.records, 1)))
}

// storedBytesPerRecord is the store's size on disk over the records its
// runs hold, read by a fresh reader.
func (b *bench) storedBytesPerRecord() (float64, error) {
	rd, err := b.col.reader()
	if err != nil {
		return 0, err
	}
	infos, err := rd.List(repo.Filter{})
	if err != nil {
		return 0, err
	}
	var recs int64
	for _, in := range infos {
		recs += in.Records
	}
	var bytes int64
	err = filepath.Walk(b.dir, func(_ string, fi os.FileInfo, err error) error {
		if err == nil && fi.Mode().IsRegular() {
			bytes += fi.Size()
		}
		return err
	})
	if err != nil || recs == 0 {
		return 0, err
	}
	return float64(bytes) / float64(recs), nil
}

// pct returns the p-quantile of ds, interpolating between ranks.
func pct(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	pos := p * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + time.Duration((pos-float64(i))*float64(s[i+1]-s[i]))
}

// tail returns the p-quantile only when at least ten samples lie beyond
// it, and 0 otherwise.
func tail(ds []time.Duration, p float64) time.Duration {
	if float64(len(ds))*(1-p) < 10 {
		return 0
	}
	return pct(ds, p)
}

func sum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

func mean(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	return sum(ds) / time.Duration(len(ds))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
