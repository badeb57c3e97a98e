// DirStore: a file-backed store so MULTIPLE processes can share one
// repository. It is the only way the tpupoint CLI reaches a profile
// repository directory: every collector (a standalone one is a
// 1-replica fleet), every `runs` verb, `watch` and `cluster` open the
// -archive directory in place, so a write is on disk when it returns
// and read verbs can run next to live collectors. The in-memory Bucket
// cannot cross a process boundary; its ExportDir/ImportDir snapshots
// carry exported profile records, not repositories.
//
// Layout keeps raw object bytes at their slash-mapped paths — the same
// format ExportDir writes, so a tree exported or copied from a bucket
// opens as a DirStore unchanged. Bookkeeping goes under one hidden
// subtree:
//
//	<root>/<object path>              — raw object bytes
//	<root>/.dirstore/lock             — cross-process mutex (flock)
//	<root>/.dirstore/gen/<object>     — decimal generation counter
//
// Every operation holds the coarse store-wide flock: correctness over
// concurrency inside the store, because cross-replica parallelism in
// this system comes from sharding ABOVE the store (each replica owns
// disjoint manifest shards), not from intra-store lock splitting.
//
// Crash consistency: the generation sidecar is renamed into place
// BEFORE the data file. A crash between the two leaves a bumped
// generation over old bytes — observationally "the write never
// happened, the generation burned", which CAS writers already handle —
// never new bytes readable under an old generation (that would let a
// competing PutIf silently overwrite a committed write). Data and
// sidecar writes are both temp-file + rename, so readers never see a
// torn file. No fsync: the repository's intent journal, not the store,
// owns power-cut durability (a SIGKILL'd process loses nothing that
// reached the page cache, which is the failure the fleet smoke
// injects).
package storage

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

const dirStoreMeta = ".dirstore"

// DirStore is a Store over a directory tree, safe for concurrent use
// by multiple goroutines AND multiple processes on one machine.
type DirStore struct {
	root string

	// mu serializes goroutines within this process; the flock on lockf
	// serializes processes. Both are held for every operation.
	mu    sync.Mutex
	lockf *os.File
}

// OpenDir opens (creating if needed) a directory-backed store at root.
func OpenDir(root string) (*DirStore, error) {
	if err := os.MkdirAll(filepath.Join(root, dirStoreMeta, "gen"), 0o755); err != nil {
		return nil, fmt.Errorf("storage: dirstore init: %w", err)
	}
	lockf, err := os.OpenFile(filepath.Join(root, dirStoreMeta, "lock"), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: dirstore lock: %w", err)
	}
	return &DirStore{root: root, lockf: lockf}, nil
}

// Close releases the lock file handle.
func (d *DirStore) Close() error { return d.lockf.Close() }

// Root returns the store's directory.
func (d *DirStore) Root() string { return d.root }

func dirStoreValidName(name string) error {
	if name == "" {
		return errors.New("storage: empty object name")
	}
	if strings.HasPrefix(name, dirStoreMeta) {
		return fmt.Errorf("storage: reserved object name %q", name)
	}
	if !filepath.IsLocal(filepath.FromSlash(name)) {
		return fmt.Errorf("storage: object name %q escapes the store", name)
	}
	return nil
}

func (d *DirStore) dataPath(name string) string {
	return filepath.Join(d.root, filepath.FromSlash(name))
}

func (d *DirStore) genPath(name string) string {
	return filepath.Join(d.root, dirStoreMeta, "gen", filepath.FromSlash(name))
}

// lock takes the cross-process store lock (plus the in-process mutex,
// since flock is per file-description, not per goroutine).
func (d *DirStore) lock() error {
	d.mu.Lock()
	if err := flockExclusive(d.lockf); err != nil {
		d.mu.Unlock()
		return fmt.Errorf("storage: dirstore lock: %w", err)
	}
	return nil
}

func (d *DirStore) unlock() {
	_ = flockRelease(d.lockf)
	d.mu.Unlock()
}

// readGen returns the object's generation: the sidecar if present, 1
// for a data file without one (an adopted ExportDir/rsync'd tree), 0
// for no object at all.
func (d *DirStore) readGen(name string) int64 {
	b, err := os.ReadFile(d.genPath(name))
	if err == nil {
		if g, perr := strconv.ParseInt(strings.TrimSpace(string(b)), 10, 64); perr == nil && g > 0 {
			return g
		}
	}
	if _, serr := os.Stat(d.dataPath(name)); serr == nil {
		return 1
	}
	return 0
}

func writeFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// putLocked writes gen-then-data; caller holds the lock.
func (d *DirStore) putLocked(name string, data []byte, gen int64) (*Object, error) {
	if err := writeFileAtomic(d.genPath(name), []byte(strconv.FormatInt(gen, 10))); err != nil {
		return nil, err
	}
	if err := writeFileAtomic(d.dataPath(name), data); err != nil {
		return nil, err
	}
	return &Object{Name: name, Data: append([]byte(nil), data...), Generation: gen}, nil
}

// Put stores data under name unconditionally.
func (d *DirStore) Put(name string, data []byte) (*Object, error) {
	if err := dirStoreValidName(name); err != nil {
		return nil, err
	}
	if err := d.lock(); err != nil {
		return nil, err
	}
	defer d.unlock()
	return d.putLocked(name, data, d.readGen(name)+1)
}

// PutIf stores data only if the object's current generation equals
// gen (0 = the object must not exist) — the compare-and-swap every
// manifest update rides on.
func (d *DirStore) PutIf(name string, data []byte, gen int64) (*Object, error) {
	if err := dirStoreValidName(name); err != nil {
		return nil, err
	}
	if err := d.lock(); err != nil {
		return nil, err
	}
	defer d.unlock()
	cur := d.readGen(name)
	if cur != gen {
		return nil, fmt.Errorf("%w: %s at generation %d, want %d", ErrGenerationMismatch, name, cur, gen)
	}
	return d.putLocked(name, data, cur+1)
}

// Get reads an object and its generation.
func (d *DirStore) Get(name string) (*Object, error) {
	if err := dirStoreValidName(name); err != nil {
		return nil, err
	}
	if err := d.lock(); err != nil {
		return nil, err
	}
	defer d.unlock()
	data, err := os.ReadFile(d.dataPath(name))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	if err != nil {
		return nil, err
	}
	return &Object{Name: name, Data: data, Generation: d.readGen(name)}, nil
}

// Append appends data to name, creating it if absent.
func (d *DirStore) Append(name string, data []byte) (*Object, error) {
	if err := dirStoreValidName(name); err != nil {
		return nil, err
	}
	if err := d.lock(); err != nil {
		return nil, err
	}
	defer d.unlock()
	old, err := os.ReadFile(d.dataPath(name))
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, err
	}
	return d.putLocked(name, append(old, data...), d.readGen(name)+1)
}

// Delete removes an object and its generation sidecar.
func (d *DirStore) Delete(name string) error {
	if err := dirStoreValidName(name); err != nil {
		return err
	}
	if err := d.lock(); err != nil {
		return err
	}
	defer d.unlock()
	err := os.Remove(d.dataPath(name))
	if errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	if err != nil {
		return err
	}
	_ = os.Remove(d.genPath(name))
	return nil
}

// Exists reports whether name holds an object.
func (d *DirStore) Exists(name string) bool {
	if dirStoreValidName(name) != nil {
		return false
	}
	if err := d.lock(); err != nil {
		return false
	}
	defer d.unlock()
	_, err := os.Stat(d.dataPath(name))
	return err == nil
}

// List returns the sorted object names with the given prefix.
func (d *DirStore) List(prefix string) []string {
	if err := d.lock(); err != nil {
		return nil
	}
	defer d.unlock()
	var names []string
	_ = filepath.WalkDir(d.root, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return nil // a racing delete is not a listing error
		}
		if e.IsDir() {
			if filepath.Base(path) == dirStoreMeta {
				return filepath.SkipDir
			}
			return nil
		}
		rel, rerr := filepath.Rel(d.root, path)
		if rerr != nil {
			return nil
		}
		name := filepath.ToSlash(rel)
		if strings.HasPrefix(filepath.Base(path), ".tmp-") {
			return nil // a writer's in-flight temp file
		}
		if strings.HasPrefix(name, prefix) {
			names = append(names, name)
		}
		return nil
	})
	sort.Strings(names)
	return names
}
