package main

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/archive"
	"repro/internal/core/analyzer"
	"repro/internal/repo"
	"repro/internal/simclock"
	"repro/internal/storage"
	"repro/internal/trace"
)

// syntheticRun builds a finalized archive of 24 one-op steps with an
// embedded analyzer summary, so `runs diff` can compare it.
func syntheticRun(t *testing.T, runID string, opDur int64) []byte {
	t.Helper()
	w := archive.NewWriter(archive.Meta{RunID: runID, Workload: "synthetic", CreatedSeq: 1})
	if err := w.SetSegmentTarget(256); err != nil {
		t.Fatal(err)
	}
	var records []*trace.ProfileRecord
	var ts simclock.Time
	for i := 0; i < 24; i++ {
		rec := trace.Reduce(int64(i), ts, []trace.Event{
			{Name: "MatMul", Device: trace.TPU, Start: ts, Dur: simclock.Duration(opDur), Step: int64(i)},
		}, 0.2, 0.4)
		records = append(records, rec)
		w.Add(rec)
		ts += 1000
	}
	rep, err := analyzer.Analyze("synthetic", records, analyzer.OLSAlgo, analyzer.Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	return w.Finalize(archive.SummarizeReport(rep))
}

// saveRuns saves one synthetic run per ID into the on-disk repository
// at dir through the CLI's opener and returns their blobs.
func saveRuns(t *testing.T, dir string, runIDs ...string) [][]byte {
	t.Helper()
	r, store, err := openRepoDir(dir, 1, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	var blobs [][]byte
	for i, id := range runIDs {
		blob := syntheticRun(t, id, int64(500+100*i))
		if _, err := r.Save(blob); err != nil {
			t.Fatal(err)
		}
		blobs = append(blobs, blob)
	}
	return blobs
}

// writeRepoWithRun builds an on-disk repository containing one saved
// run and returns its directory plus the raw blob bytes.
func writeRepoWithRun(t *testing.T, runID string) (string, []byte) {
	t.Helper()
	dir := t.TempDir()
	return dir, saveRuns(t, dir, runID)[0]
}

// openTestRepo opens dir read-only and closes the store with the test.
func openTestRepo(t *testing.T, dir string) *repo.Repo {
	t.Helper()
	r, store, err := openRepoDir(dir, 1, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	return r
}

func blobPath(dir, runID string) string {
	return filepath.Join(dir, "runs", runID, "archive")
}

// TestRunsSalvageRoundTrip drives the CLI path end to end: damage the
// on-disk blob, `runs salvage` it, and prove the repaired repository
// reads back cleanly.
func TestRunsSalvageRoundTrip(t *testing.T) {
	dir, blob := writeRepoWithRun(t, "run-a")
	// Tear the tail off the stored blob: footer and final segment gone.
	if err := os.WriteFile(blobPath(dir, "run-a"), blob[:len(blob)*2/3], 0o644); err != nil {
		t.Fatal(err)
	}

	if err := runsCmd([]string{"salvage", "run-a"}, dir, 0, false, 1, 0); err != nil {
		t.Fatalf("runs salvage: %v", err)
	}

	// Reopen from disk: the run must verify and carry records.
	r := openTestRepo(t, dir)
	info, a, err := r.Get("run-a")
	if err != nil {
		t.Fatalf("salvaged run unreadable from disk: %v", err)
	}
	if info.Records == 0 || info.Records != a.RecordCount() {
		t.Fatalf("info = %+v, archive records = %d", info, a.RecordCount())
	}
	rep, err := r.Fsck(false)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("post-salvage fsck: %+v", rep)
	}
}

// TestRunsFsckRepair: a phantom manifest entry (blob deleted on disk)
// is detected and repaired through the CLI verb.
func TestRunsFsckRepair(t *testing.T) {
	dir, _ := writeRepoWithRun(t, "run-a")
	if err := os.Remove(blobPath(dir, "run-a")); err != nil {
		t.Fatal(err)
	}

	// Check-only finds the issue and exits non-zero.
	if err := runsCmd([]string{"fsck"}, dir, 0, false, 1, 0); err == nil {
		t.Fatal("fsck should report unrepaired issues")
	}
	if err := runsCmd([]string{"fsck", "-repair"}, dir, 0, false, 1, 0); err != nil {
		t.Fatalf("fsck -repair: %v", err)
	}
	if err := runsCmd([]string{"fsck"}, dir, 0, false, 1, 0); err != nil {
		t.Fatalf("repository not clean after repair: %v", err)
	}

	r := openTestRepo(t, dir)
	if _, err := r.Info("run-a"); err == nil {
		t.Fatal("phantom entry survived on-disk repair")
	}
}

// TestFsckRepairPersistsQuarantine: fsck -repair's quarantine move
// must land in the repository directory.
func TestFsckRepairPersistsQuarantine(t *testing.T) {
	dir, _ := writeRepoWithRun(t, "run-a")
	if err := os.WriteFile(blobPath(dir, "run-a"), []byte("XXXXnothing"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runsCmd([]string{"fsck", "-repair"}, dir, 0, false, 1, 0); err != nil {
		t.Fatalf("fsck -repair: %v", err)
	}
	q := filepath.Join(dir, "quarantine", "runs", "run-a", "archive")
	if _, err := os.Stat(q); err != nil {
		t.Fatalf("quarantined blob not persisted: %v", err)
	}
	if _, err := os.Stat(blobPath(dir, "run-a")); !os.IsNotExist(err) {
		t.Fatal("corrupt blob left in runs/ after quarantine")
	}
}

// TestCollectorShardsKeepsExistingLayout: a collector adopts the
// directory's layout, so its owned shards (and the journals it
// replays) are the shards that exist, not the ones -shards asked for.
func TestCollectorShardsKeepsExistingLayout(t *testing.T) {
	svc := storage.NewService()
	bucket := func(name string) *storage.Bucket {
		b, err := svc.CreateBucket(name)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	fresh := bucket("fresh")
	legacy := bucket("legacy")
	if _, err := repo.New(legacy).Save(syntheticRun(t, "run-a", 500)); err != nil {
		t.Fatal(err)
	}
	sharded := bucket("sharded")
	r, _, err := repo.OpenShards(sharded, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Save(syntheticRun(t, "run-a", 500)); err != nil {
		t.Fatal(err)
	}
	journalOnly := bucket("journal-only")
	if _, err := journalOnly.Put(repo.JournalObject, nil); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name                string
		store               repo.Store
		requested, replicas int
		want                int // 0: an error
	}{
		{"fresh default", fresh, 0, 1, 4},
		{"fresh default, 3 replicas", fresh, 0, 3, 12},
		{"fresh -shards", fresh, 6, 2, 6},
		{"fresh -shards below replicas", fresh, 2, 3, 0},
		{"legacy", legacy, 0, 1, 1},
		{"legacy ignores -shards", legacy, 8, 1, 1},
		{"legacy cannot host 2 replicas", legacy, 0, 2, 0},
		{"sharded", sharded, 0, 1, 8},
		{"sharded ignores -shards", sharded, 4, 2, 8},
		{"interrupted first save", journalOnly, 0, 1, 1},
	} {
		got, err := collectorShards(tc.store, tc.requested, tc.replicas)
		if tc.want == 0 {
			if err == nil {
				t.Errorf("%s: got %d shards, want an error", tc.name, got)
			}
			continue
		}
		if err != nil || got != tc.want {
			t.Errorf("%s: got %d, %v; want %d", tc.name, got, err, tc.want)
		}
	}
}
