package main

import (
	"encoding/json"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/repo"
	"repro/internal/storage"
)

// contract is the part of ../BENCHMARK.json the benchmark must honour.
type contract struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

func shortConfig(t *testing.T, workload string, traced bool) config {
	return config{
		Workload: workload, Seed: 7, Window: 200 * time.Millisecond, Trace: traced,
		Agents: 2, Setups: 1, Dir: t.TempDir(),
	}
}

// A short run of every workload, untraced and traced, passes its audit
// and emits exactly the metrics BENCHMARK.json names, with their units;
// end-to-end metrics are never 0. Workloads left out of BENCHMARK.json
// (see README.md) are held to the same contract.
func TestEveryWorkloadEmitsContractMetrics(t *testing.T) {
	c := readContract(t)
	for _, wl := range c.Workloads {
		if _, ok := workloadTable[wl.Name]; !ok {
			t.Fatalf("BENCHMARK.json names unknown workload %q", wl.Name)
		}
	}
	for name := range workloadTable {
		for _, traced := range []bool{false, true} {
			want := c.EndToEnd
			if traced {
				want = c.PerLayer
			}
			res, err := run(shortConfig(t, name, traced))
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s traced=%v: correct=%v attempted=%d failed=%d",
					name, traced, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json names %d", name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s missing", name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s traced=%v: %s unit %q, want %q", name, traced, m.Name, got.Unit, m.Unit)
				case !traced && !(got.Value > 0):
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, m.Name, got.Value)
				}
			}
		}
	}
}

// dropLogAppend silently loses the second session-log append: it
// reports success without writing, the fault acked ⇒ durable forbids.
type dropLogAppend struct {
	repo.Store
	mu   sync.Mutex
	seen int
}

func (d *dropLogAppend) Append(name string, data []byte) (*storage.Object, error) {
	if strings.HasSuffix(name, "/log") {
		d.mu.Lock()
		d.seen++
		drop := d.seen == 2
		d.mu.Unlock()
		if drop {
			return &storage.Object{Name: name}, nil
		}
	}
	return d.Store.Append(name, data)
}

// The ingest audit must fail when one acknowledged batch never reached
// the durable session log.
func TestIngestAuditCatchesDroppedLogAppend(t *testing.T) {
	for _, wl := range []string{"ingest-churn", "ingest-long"} {
		cfg := shortConfig(t, wl, false)
		cfg.wrap = func(s repo.Store) repo.Store { return &dropLogAppend{Store: s} }
		res, err := run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", wl, err)
		}
		if res.Correct || res.Failed == 0 {
			t.Fatalf("%s: dropped log append went unnoticed: correct=%v failed=%d", wl, res.Correct, res.Failed)
		}
	}
}
