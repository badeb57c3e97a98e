package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/faultnet"
	"repro/internal/repo"
	"repro/internal/rpc"
	"repro/internal/simclock"
	"repro/internal/storage"
	"repro/internal/trace"
)

// treeDigest maps every file under dir (including the store's
// .dirstore bookkeeping) to a hash of its bytes.
func treeDigest(t *testing.T, dir string) map[string][32]byte {
	t.Helper()
	sums := make(map[string][32]byte)
	err := filepath.WalkDir(dir, func(path string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		sums[filepath.ToSlash(rel)] = sha256.Sum256(data)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return sums
}

func diffDigests(before, after map[string][32]byte) []string {
	var changed []string
	for name, sum := range before {
		if got, ok := after[name]; !ok {
			changed = append(changed, "removed "+name)
		} else if got != sum {
			changed = append(changed, "rewrote "+name)
		}
	}
	for name := range after {
		if _, ok := before[name]; !ok {
			changed = append(changed, "created "+name)
		}
	}
	sort.Strings(changed)
	return changed
}

// readVerbs are the CLI invocations that must never write: they run
// next to live collectors. fsck sees a live collector's in-flight save
// as an unreferenced blob and reports it without touching it.
var readVerbs = []struct {
	name    string
	run     func(dir string) error
	wantErr string
}{
	{"runs list", func(dir string) error { return runsCmd([]string{"list"}, dir, 0, false, 1, 0) }, ""},
	{"runs show", func(dir string) error { return runsCmd([]string{"show", "run-a"}, dir, 0, false, 1, 0) }, ""},
	{"runs diff", func(dir string) error { return runsCmd([]string{"diff", "run-a", "run-b"}, dir, 0, false, 1, 0) }, ""},
	{"runs fsck", func(dir string) error { return runsCmd([]string{"fsck"}, dir, 0, false, 1, 0) }, "1 unrepaired issues"},
	{"watch", func(dir string) error { return watchCmd([]string{"-quiet", "run-a"}, dir, 1) }, ""},
}

// TestReadVerbsWriteNothing: list, show, diff, fsck and watch leave
// every byte of a repository directory as they found it — including a
// save still in flight, which a journal replay would roll back — and
// run against a missing directory they create nothing.
func TestReadVerbsWriteNothing(t *testing.T) {
	dir := t.TempDir()
	saveRuns(t, dir, "run-a", "run-b")
	store, err := storage.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	crash := faultnet.NewCrashStore(store)
	r, _, err := repo.Open(crash)
	if err != nil {
		t.Fatal(err)
	}
	// The save's intent and blob land; its index update does not.
	crash.CrashAfterWrites(crash.Writes()+2, false)
	if _, err := r.Save(syntheticRun(t, "run-c", 700)); err == nil {
		t.Fatal("save survived the cut")
	}
	store.Close()

	before := treeDigest(t, dir)
	for _, name := range []string{".dirstore/lock", "runs/run-c/archive"} {
		if _, ok := before[name]; !ok {
			t.Fatalf("repository lacks %s: %v", name, before)
		}
	}
	for _, v := range readVerbs {
		out, err := captureOutput(t, func() error { return v.run(dir) })
		if v.wantErr == "" && err != nil || v.wantErr != "" && (err == nil || !strings.Contains(err.Error(), v.wantErr)) {
			t.Fatalf("%s: err = %v, want %q\noutput:\n%s", v.name, err, v.wantErr, out)
		}
		if strings.TrimSpace(out) == "" {
			t.Fatalf("%s printed nothing", v.name)
		}
		if changed := diffDigests(before, treeDigest(t, dir)); len(changed) > 0 {
			t.Fatalf("%s wrote to the repository: %v", v.name, changed)
		}
	}

	missing := filepath.Join(t.TempDir(), "no-such-repo")
	for _, v := range readVerbs {
		if err := v.run(missing); err == nil {
			t.Fatalf("%s on a missing directory succeeded", v.name)
		}
		if _, err := os.Stat(missing); !os.IsNotExist(err) {
			t.Fatalf("%s created %s (stat err %v)", v.name, missing, err)
		}
	}
}

// TestWatchSessionFeedsLogInOrder: watch -session reads an open fleet
// session's durable log out of the DirStore and feeds exactly the
// acked records, in order.
func TestWatchSessionFeedsLogInOrder(t *testing.T) {
	dir := t.TempDir()
	store, err := storage.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	r, _, err := repo.Open(store)
	if err != nil {
		t.Fatal(err)
	}
	fleet := repo.NewFleet(r, repo.FleetOptions{})
	srv := rpc.NewServer()
	fleet.Register(srv)
	defer srv.Close()
	c := rpc.Pipe(srv)
	defer c.Close()
	fc, err := repo.OpenSession(c, repo.OpenRequest{RunID: "live", Workload: "synthetic"})
	if err != nil {
		t.Fatal(err)
	}
	var want [][]byte
	for i, rec := range syntheticRecords(30) {
		if i%2 == 0 {
			err = fc.Append(rec)
		} else {
			err = fc.AppendBatch([]*trace.ProfileRecord{rec})
		}
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, trace.MarshalRecord(rec))
	}

	// A second handle on the directory, as a separate watch process
	// would open it.
	watcher, err := storage.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer watcher.Close()
	var got [][]byte
	feed := func(rec *trace.ProfileRecord) error {
		got = append(got, trace.MarshalRecord(rec))
		return nil
	}
	if err := watchSession(feed, watcher, fc.Token(), false, time.Millisecond, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("watch fed %d records, session acked %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d differs from the acked one", i)
		}
	}
	if err := watchSession(feed, watcher, "no-such-token", false, time.Millisecond, time.Millisecond); err == nil {
		t.Fatal("unknown session token accepted")
	}
	if _, err := fc.Finalize(); err != nil {
		t.Fatal(err)
	}
}

// syntheticRecords returns n consecutive one-op steps with distinct
// timestamps, so an out-of-order feed is visible in the bytes.
func syntheticRecords(n int) []*trace.ProfileRecord {
	recs := make([]*trace.ProfileRecord, 0, n)
	for i := 0; i < n; i++ {
		ts := simclock.Time(1000 * i)
		recs = append(recs, trace.Reduce(int64(i), ts, []trace.Event{
			{Name: fmt.Sprintf("Op%d", i%3), Device: trace.TPU, Start: ts, Dur: 400, Step: int64(i)},
		}, 0.1, 0.5))
	}
	return recs
}
