package main

import (
	"errors"
	"fmt"
	"net"
	"time"

	"repro/internal/core/analyzer"
	"repro/internal/obs"
	"repro/internal/repo"
	"repro/internal/rpc"
	"repro/internal/storage"
	"repro/internal/trace"
)

// collector is an in-process replica set built the way
// `tpupoint -collect-serve -replicas N` builds each replica: one shared
// on-disk store, and per replica OpenShardsOwned + NewIngestor +
// NewFleet served over loopback TCP.
type collector struct {
	store  *storage.DirStore
	st     repo.Store // what the repositories write through (maybe wrapped)
	shards int
	addrs  []string
	reps   []*replica
}

type replica struct {
	reg   *obs.Registry
	ing   *repo.Ingestor
	fleet *repo.Fleet
	srv   *rpc.Server
	l     net.Listener
}

// startCollector opens dir as the shared store and starts n replicas.
// wrap, when set, decorates the store every repository writes through;
// an is the finalize-time analyzer configuration.
func startCollector(dir string, n int, wrap func(repo.Store) repo.Store, an analyzer.Options) (_ *collector, err error) {
	store, err := storage.OpenDir(dir)
	if err != nil {
		return nil, err
	}
	c := &collector{store: store, st: store, shards: 4 * n}
	if wrap != nil {
		c.st = wrap(store)
	}
	defer func() {
		if err != nil {
			c.close()
		}
	}()
	ls := make([]net.Listener, n)
	for i := range ls {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		ls[i] = l
		c.reps = append(c.reps, &replica{l: l})
		c.addrs = append(c.addrs, l.Addr().String())
	}
	for id, rp := range c.reps {
		rc := &repo.ReplicaConfig{ID: id, Replicas: n, Peers: c.addrs}
		if err := rc.Validate(); err != nil {
			return nil, err
		}
		r, _, err := repo.OpenShardsOwned(c.st, c.shards, rc.OwnedShards(c.shards))
		if err != nil {
			return nil, fmt.Errorf("opening replica %d: %w", id, err)
		}
		rp.reg = obs.NewRegistry(0)
		r.SetObs(rp.reg)
		rp.ing = repo.NewIngestor(r, repo.IngestorOptions{Replica: rc, Obs: rp.reg})
		rp.fleet = repo.NewFleet(r, repo.FleetOptions{
			Obs: rp.reg, Replica: rc, Ingest: rp.ing, Analyzer: an,
		})
		if _, err := rp.fleet.RecoverSessions(); err != nil {
			return nil, err
		}
		rp.srv = rpc.NewServer()
		rp.fleet.Register(rp.srv)
		go rp.srv.Serve(rp.l)
	}
	return c, nil
}

// close stops every replica and waits for its background work.
func (c *collector) close() {
	for _, rp := range c.reps {
		rp.l.Close()
		if rp.srv != nil {
			rp.srv.Close()
		}
		if rp.fleet != nil {
			rp.fleet.WaitBackground()
		}
		if rp.ing != nil {
			rp.ing.Close()
		}
	}
	c.store.Close()
}

// counter sums one obs counter over the replicas.
func (c *collector) counter(name string) int64 {
	var n int64
	for _, rp := range c.reps {
		n += rp.reg.Snapshot().C(name)
	}
	return n
}

// newAgent returns an agent's endpoint-set client, configured as the
// `tpupoint -collect a,b` path configures it. sleep replaces time.Sleep
// for retry backoff so the ledger can charge the time slept.
func (c *collector) newAgent(reg *obs.Registry, seed uint64, sleep func(time.Duration)) (*rpc.ReconnectClient, error) {
	return rpc.NewReconnectClient(rpc.ReconnectOptions{Endpoints: c.addrs, Obs: reg, Seed: seed, Sleep: sleep})
}

// reader opens a fresh read handle on the repository, as a separate
// `tpupoint runs` process would.
func (c *collector) reader() (*repo.Repo, error) {
	r, _, err := repo.OpenShards(c.st, c.shards)
	return r, err
}

// sessionResult is what one agent session observed.
type sessionResult struct {
	info     repo.RunInfo
	open     time.Duration
	appends  []time.Duration
	finalize time.Duration
}

func (s sessionResult) total() time.Duration {
	t := s.open + s.finalize
	for _, a := range s.appends {
		t += a
	}
	return t
}

var errNotDurable = errors.New("acked records missing from the durable session log")

// runSession streams one session the way the profiler's BatchStore path
// does: OpenResilient, one PutBatch per batchRecords records, Finalize.
// Before finalizing it audits acked ⇒ durable: the session log in the
// store must hold exactly the records the collector acknowledged. The
// audit read is not part of any reported latency.
func runSession(c rpc.Caller, store repo.Store, runID string, s stream) (sessionResult, error) {
	var res sessionResult
	t0 := time.Now()
	rc, err := repo.OpenResilient(c, repo.OpenRequest{RunID: runID, Workload: s.base.Workload})
	res.open = time.Since(t0)
	if err != nil {
		return res, fmt.Errorf("open %s: %w", runID, err)
	}
	var sent []byte
	for lo := 0; lo < s.n; lo += batchRecords {
		hi := min(lo+batchRecords, s.n)
		t := time.Now()
		start := len(sent)
		sent = s.appendBatch(sent, lo, hi)
		_, err := rc.PutBatch(fmt.Sprintf("batch-%06d", lo/batchRecords), sent[start:], hi-lo)
		res.appends = append(res.appends, time.Since(t))
		if err != nil {
			return res, fmt.Errorf("put batch %s@%d: %w", runID, lo, err)
		}
	}
	if err := checkDurable(store, rc.Token(), sent); err != nil {
		return res, fmt.Errorf("session %s: %w", runID, err)
	}
	t := time.Now()
	res.info, err = rc.Finalize()
	res.finalize = time.Since(t)
	if err != nil {
		return res, fmt.Errorf("finalize %s: %w", runID, err)
	}
	return res, nil
}

// checkDurable compares the session's durable log with sent, the
// framed records the agent had acknowledged.
func checkDurable(store repo.Store, token string, sent []byte) error {
	logged, err := repo.SessionRecords(store, token)
	if err != nil {
		return err
	}
	want, err := trace.SplitFramed(sent)
	if err != nil {
		return err
	}
	if len(logged) != len(want) {
		return fmt.Errorf("%w: %d of %d", errNotDurable, len(logged), len(want))
	}
	for i := range want {
		if string(logged[i]) != string(want[i]) {
			return fmt.Errorf("%w: record %d differs", errNotDurable, i)
		}
	}
	return nil
}
