// Profile-repository subcommands and the fleet collection server.
//
// The repository lives in a directory on disk (-archive): the bucket
// layout (runs/manifest.json + runs/<id>/archive) as plain files,
// opened in place as a storage.DirStore. Every mutation lands on disk
// when it commits, so a collector's ack means the run is durable and
// a killed process leaves nothing to flush. Read verbs (list, show,
// diff, fsck, watch) open without journal replay and write nothing,
// so they are safe next to live collectors; mutating verbs replay the
// journal first and need the directory's collectors stopped.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"syscall"
	"time"

	"repro/internal/core/viz"
	"repro/internal/obs"
	"repro/internal/repo"
	"repro/internal/rpc"
	"repro/internal/storage"
)

// openRepoDir opens the profile repository in dir as a DirStore; the
// caller closes the returned store. codecPar sets the archive codec's
// worker pool for repository reads (-codec-parallelism: 0 = GOMAXPROCS,
// 1 = serial; decoded runs are bit-identical either way).
//
// A read-only open (write false) neither replays the intent journal
// nor writes anything: a replay could roll back a live collector's
// open intent. A missing directory is an error rather than an empty
// repository, so a read never creates one. (OpenDir does add its
// .dirstore/ lock directory to a tree that lacks one, such as a
// repository copied in from elsewhere; no object changes.)
//
// A writing open creates dir if needed and replays the journal, so a
// repository left behind by a crashed process is reconciled before the
// verb runs. shards is the -shards request: 0 keeps the repository's
// existing manifest layout, N > 1 migrates a legacy single-manifest
// repository to N shards (an already-sharded repository keeps its
// recorded count).
func openRepoDir(dir string, codecPar, shards int, write bool) (*repo.Repo, *storage.DirStore, error) {
	if !write {
		if _, err := os.Stat(dir); err != nil {
			return nil, nil, fmt.Errorf("opening repository: %w", err)
		}
	}
	store, err := storage.OpenDir(dir)
	if err != nil {
		return nil, nil, err
	}
	r := repo.New(store)
	if write {
		var rec *repo.RecoveryReport
		if r, rec, err = repo.OpenShards(store, shards); err != nil {
			store.Close()
			return nil, nil, fmt.Errorf("recovering repository %s: %w", dir, err)
		}
		printRecovery(rec)
	}
	r.SetCodecParallelism(codecPar)
	return r, store, nil
}

// printRecovery reports a journal replay that found work to do.
func printRecovery(rec *repo.RecoveryReport) {
	if !rec.Clean() {
		fmt.Printf("recovery: replayed %d interrupted mutations (%d completed, %d rolled back, %d orphans reclaimed)\n",
			rec.OpenIntents, rec.Completed, rec.RolledBack, len(rec.OrphansReclaimed))
	}
}

// runsCmd dispatches the `runs list|show|diff|gc|...` verbs.
func runsCmd(args []string, dir string, keep int, csv bool, codecPar, shards int) error {
	if dir == "" {
		return errors.New("runs: -archive <dir> is required")
	}
	verb := "list"
	if len(args) > 0 {
		verb = args[0]
		args = args[1:]
	}
	// A -shards migration rewrites the index, so it is a write too.
	write := shards > 1
	switch verb {
	case "list", "show", "diff":
	case "fsck":
		write = write || slices.Contains(args, "-repair") || slices.Contains(args, "--repair")
	case "gc", "delete", "compact", "salvage":
		write = true
	default:
		return fmt.Errorf("unknown runs verb %q (want list, show, diff, gc, delete, fsck, salvage, compact)", verb)
	}
	r, store, err := openRepoDir(dir, codecPar, shards, write)
	if err != nil {
		return err
	}
	defer store.Close()
	switch verb {
	case "list":
		fs := flag.NewFlagSet("runs list", flag.ContinueOnError)
		tenant := fs.String("tenant", "", "only runs archived under this tenant")
		workload := fs.String("workload", "", "only runs of this workload")
		labelF := fs.String("label", "", "only runs with this label")
		if err := fs.Parse(args); err != nil {
			return err
		}
		runs, err := r.List(repo.Filter{Workload: *workload, Label: *labelF, Tenant: *tenant})
		if err != nil {
			return err
		}
		if len(runs) == 0 {
			if *tenant != "" || *workload != "" || *labelF != "" {
				fmt.Println("no runs match the filter")
			} else {
				fmt.Println("repository is empty")
			}
			return nil
		}
		fmt.Printf("%-24s %-20s %-12s %-12s %-6s %8s %8s %10s\n",
			"RUN", "WORKLOAD", "LABEL", "TENANT", "TPU", "RECORDS", "WINDOWS", "BYTES")
		for _, info := range runs {
			fmt.Printf("%-24s %-20s %-12s %-12s %-6s %8d %8d %10d\n",
				info.RunID, info.Workload, info.Label, info.Tenant, info.TPUVersion,
				info.Records, info.Windows, info.Bytes)
		}
		return nil

	case "show":
		if len(args) != 1 {
			return errors.New("usage: runs show <run-id>")
		}
		info, a, err := r.Get(args[0])
		if err != nil {
			return err
		}
		first, last := a.TimeRange()
		fmt.Printf("run:       %s (seq %d)\n", info.RunID, info.CreatedSeq)
		fmt.Printf("workload:  %s  label=%q  host=%q  tpu=%s\n",
			info.Workload, info.Label, info.HostSpec, info.TPUVersion)
		fmt.Printf("records:   %d (%d windows), %d bytes, sim time [%.1fms, %.1fms]\n",
			a.RecordCount(), a.WindowCount(), a.Size(),
			float64(first)/1000, float64(last)/1000)
		sum := a.Summary()
		if sum == nil {
			fmt.Println("summary:   (none embedded)")
			return nil
		}
		fmt.Printf("summary:   %s phases=%d steps=%d idle=%.1f%% mxu=%.1f%% top-3 cover %.1f%%\n",
			sum.Algorithm, len(sum.Phases), sum.Steps,
			100*sum.IdleFrac, 100*sum.MXUUtil, 100*sum.CoverageTop3)
		for _, p := range sum.Phases {
			fmt.Printf("  phase #%d: %d steps, %s, idle=%.1f%% mxu=%.1f%%\n",
				p.ID, p.Steps, p.Total, 100*p.IdleFrac, 100*p.MXUUtil)
			for _, op := range p.Ops {
				fmt.Printf("    %-6s %-32s x%-6d %10.1fms\n",
					op.Device, op.Name, op.Count, op.Total.Milliseconds())
			}
		}
		return nil

	case "diff":
		if len(args) != 2 {
			return errors.New("usage: runs diff <run-a> <run-b>")
		}
		d, err := r.Compare(args[0], args[1])
		if err != nil {
			return err
		}
		if csv {
			return viz.WriteDiffCSV(os.Stdout, d)
		}
		return viz.WriteDiffTable(os.Stdout, d)

	case "gc":
		victims, err := r.GC(keep)
		if err != nil {
			return err
		}
		for _, id := range victims {
			fmt.Printf("removed %s\n", id)
		}
		fmt.Printf("gc: removed %d runs (keeping %d newest per workload)\n", len(victims), keep)
		return nil

	case "delete":
		if len(args) != 1 {
			return errors.New("usage: runs delete <run-id>")
		}
		if err := r.Delete(args[0]); err != nil {
			return err
		}
		fmt.Printf("removed %s\n", args[0])
		return nil

	case "fsck":
		repair := false
		for _, a := range args {
			switch a {
			case "-repair", "--repair":
				repair = true
			default:
				return fmt.Errorf("usage: runs fsck [-repair] (got %q)", a)
			}
		}
		rep, err := r.Fsck(repair)
		if err != nil {
			return err
		}
		for _, issue := range rep.Issues {
			line := fmt.Sprintf("%-14s %-12s %s", issue.Kind, issue.RunID, issue.Detail)
			if issue.Action != "" {
				line += " -> " + issue.Action
			}
			fmt.Println(line)
		}
		if rep.Clean() {
			fmt.Printf("fsck: %d runs checked, no issues\n", rep.RunsChecked)
		} else {
			fmt.Printf("fsck: %d runs checked, %d issues, %d repaired\n",
				rep.RunsChecked, len(rep.Issues), rep.Repaired)
		}
		if !rep.Clean() && rep.Repaired < len(rep.Issues) {
			return fmt.Errorf("fsck: %d unrepaired issues", len(rep.Issues)-rep.Repaired)
		}
		return nil

	case "compact":
		opts := repo.CompactOptions{}
		switch len(args) {
		case 0:
		case 1:
			opts.Workload = args[0]
		default:
			return errors.New("usage: runs compact [workload]")
		}
		rep, err := r.Compact(opts)
		if err != nil {
			return err
		}
		runsPacked, bytesPacked := 0, int64(0)
		for _, p := range rep.Packs {
			fmt.Printf("packed %-20s %d runs, %d bytes -> %s\n",
				p.Workload, len(p.Runs), p.Bytes, p.Object)
			runsPacked += len(p.Runs)
			bytesPacked += p.Bytes
		}
		fmt.Printf("compact: %d packs from %d runs (%d bytes)\n",
			len(rep.Packs), runsPacked, bytesPacked)
		return nil

	case "salvage":
		if len(args) != 1 {
			return errors.New("usage: runs salvage <run-id>")
		}
		info, srep, err := r.Salvage(args[0])
		if err != nil {
			return err
		}
		mode := "footer index"
		if !srep.FooterIntact {
			mode = "sequential scan (footer lost)"
		}
		fmt.Printf("salvage %s: %d/%d segments via %s, %d records, %d bytes dropped\n",
			args[0], srep.SegmentsKept, srep.SegmentsTotal, mode,
			srep.RecordsKept, srep.BytesDropped)
		printRunInfo(os.Stdout, info, dir)
	}
	return nil
}

// collectConfig bundles the collection server's flag surface: one
// process = one replica of a Replicas-strong fleet (1 by default).
type collectConfig struct {
	Addr, Dir string

	MaxSessions, MaxConns, CodecPar, Shards, CompactEvery int

	// ReplicaID/Replicas/Peers place this process in the fleet: it owns
	// the manifest shards s with s % Replicas == ReplicaID and answers
	// misplaced sessions with a redirect to Peers[owner].
	ReplicaID, Replicas int
	Peers               []string

	Reg    *obs.Registry
	Health *obs.Health
	Fleet  *obs.FleetView
}

// collectServe runs the fleet collection server: profilers stream
// records in over RPC (tpupoint -collect <addr>), every finalized
// session becomes an indexed archive in the -archive directory.
// Interrupted sessions are durable: their state is parked in the
// repository and clients reattach with fleet.Resume after a restart.
//
// Every collector is one replica of a fleet sharing the -archive
// directory as a DirStore — a standalone collector is a fleet of one.
// Every mutation lands on disk when it commits, because peer replicas
// and a restarted self read the same files, and saves flow through a
// group-commit Ingestor that amortizes journal+manifest writes across
// concurrent finalizes.
func collectServe(cfg collectConfig) error {
	if cfg.Dir == "" {
		return errors.New("-collect-serve needs -archive <dir> for the repository")
	}
	reg, health := cfg.Reg, cfg.Health
	health.SetFailing("repository", "opening")
	health.SetFailing("collector", "starting")

	rc := &repo.ReplicaConfig{ID: cfg.ReplicaID, Replicas: cfg.Replicas, Peers: cfg.Peers}
	if err := rc.Validate(); err != nil {
		return err
	}
	store, err := storage.OpenDir(cfg.Dir)
	if err != nil {
		return err
	}
	defer store.Close()
	shards, err := collectorShards(store, cfg.Shards, cfg.Replicas)
	if err != nil {
		return err
	}
	owned := rc.OwnedShards(shards)
	r, rec, err := repo.OpenShardsOwned(store, shards, owned)
	if err != nil {
		return fmt.Errorf("recovering repository %s: %w", cfg.Dir, err)
	}
	printRecovery(rec)
	r.SetCodecParallelism(cfg.CodecPar)
	r.SetObs(reg)
	ingest := repo.NewIngestor(r, repo.IngestorOptions{Replica: rc, Obs: reg})
	defer ingest.Close()
	fleetID := fmt.Sprintf("replica-%d", rc.ID)
	reg.SetLabel("replica", fmt.Sprint(rc.ID))
	cfg.Fleet.Set(fleetID, obs.ReplicaUp)

	maxSessions := cfg.MaxSessions
	if maxSessions == 0 {
		maxSessions = repo.DefaultMaxSessions
	}
	fleet := repo.NewFleet(r, repo.FleetOptions{
		MaxSessions: maxSessions, CompactEvery: cfg.CompactEvery,
		Obs: reg, Replica: rc, Ingest: ingest,
	})
	parked, err := fleet.RecoverSessions()
	if err != nil {
		return err
	}
	for _, token := range parked {
		fmt.Printf("parked session %s awaits fleet.Resume\n", token)
	}
	health.SetReady("repository")
	srv := rpc.NewServer()
	if cfg.MaxConns > 0 {
		srv.SetConnLimit(cfg.MaxConns)
	}
	fleet.Register(srv)
	l, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return err
	}
	defer l.Close()
	fmt.Printf("fleet collection server on %s (replica %d of %d, shards %v, max %d sessions), repository %s\n",
		l.Addr(), rc.ID, rc.Replicas, owned, maxSessions, cfg.Dir)
	go srv.Serve(l)
	health.SetReady("collector")

	// Probe peer replicas so /fleetz answers for the whole set.
	stopProbe := make(chan struct{})
	if len(rc.Peers) > 0 {
		go probePeers(rc, cfg.Fleet, stopProbe)
	}

	// Serve until interrupted. Nothing needs flushing: every acked
	// record and run is already in the directory.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	close(stopProbe)
	health.SetFailing("collector", "shutting down")
	cfg.Fleet.Set(fleetID, obs.ReplicaDown)
	srv.Close()
	if n := fleet.ActiveSessions(); n > 0 {
		fmt.Printf("%d sessions still open; their accepted records are parked durably (clients resume by token)\n", n)
	}
	// Let an in-flight background compaction settle before exiting.
	fleet.WaitBackground()
	return nil
}

// collectorShards returns the manifest shard count a collector replica
// opens store with. An existing repository keeps its layout (sharded,
// or legacy single-manifest), so ownership and the journal replay it
// scopes cover every shard that really exists. A fresh directory gets
// requested (-shards), or a few shards per replica so reconfiguration
// has room to rebalance.
func collectorShards(store repo.Store, requested, replicas int) (int, error) {
	shards := requested
	if shards == 0 {
		shards = 4 * replicas
	}
	if n, err := repo.New(store).Shards(); err != nil {
		return 0, err
	} else if n > 1 || store.Exists(repo.ManifestObject) || store.Exists(repo.JournalObject) {
		shards = n
	}
	if shards < replicas {
		return 0, fmt.Errorf("%d manifest shards < -replicas %d leaves replicas owning nothing", shards, replicas)
	}
	return shards, nil
}

// probePeers pings every peer replica on a short cadence and feeds the
// fleet readiness view: "up" on a healthy ping, "down" on a refused
// dial or failed call. Probing is best-effort observability — placement
// and redirects never consult it.
func probePeers(rc *repo.ReplicaConfig, view *obs.FleetView, stop <-chan struct{}) {
	probe := func() {
		for id, addr := range rc.Peers {
			if id == rc.ID {
				continue
			}
			state := obs.ReplicaDown
			if c, err := rpc.Dial(addr); err == nil {
				if _, perr := repo.PingEndpoint(c); perr == nil {
					state = obs.ReplicaUp
				}
				c.Close()
			}
			view.Set(fmt.Sprintf("replica-%d", id), state)
		}
	}
	probe()
	t := time.NewTicker(2 * time.Second)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			probe()
		}
	}
}

// printRunInfo summarizes a freshly archived run. dir is the local
// repository directory, or "" when the archive lives on a remote
// collection server.
func printRunInfo(w io.Writer, info repo.RunInfo, dir string) {
	dest := "collection server " + info.Object
	if dir != "" {
		dest = filepath.Join(dir, filepath.FromSlash(info.Object))
	}
	fmt.Fprintf(w, "archived:    run %q (seq %d): %d records, %d bytes -> %s\n",
		info.RunID, info.CreatedSeq, info.Records, info.Bytes, dest)
}
