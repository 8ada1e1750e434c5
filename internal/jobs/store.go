package jobs

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
)

// Store is the persistence backend for checkpoint blobs: a flat
// namespace of named byte blobs with atomic replacement. The job
// manager's checkpoint triple and the plan library's persistent tier
// both run on it, so a future blob/KV backend (object store, embedded
// KV) plugs into every durable path at once by implementing these four
// methods.
//
// Contract:
//   - Put replaces the blob atomically: a reader never observes a
//     half-written blob under the final name (torn data may exist only
//     under transient names a List caller must ignore).
//   - Get returns an error satisfying errors.Is(err, fs.ErrNotExist)
//     for a missing name.
//   - List returns the names of every stored blob, in no particular
//     order.
//   - Delete of a missing name is not an error.
type Store interface {
	Get(name string) ([]byte, error)
	Put(name string, blob []byte) error
	List() ([]string, error)
	Delete(name string) error
}

// ErrCASConflict reports that CompareAndSwap observed a value other
// than the expected one. The caller's read was stale: re-read and
// retry, or back off — another writer won.
var ErrCASConflict = errors.New("jobs: cas conflict")

// CASStore is a Store with an atomic compare-and-swap primitive, the
// single coordination point the distributed shard protocol needs:
// lease claims, lease renewals, and terminal job transitions all race
// through CompareAndSwap, and everything else is plain Put by whoever
// holds the lease.
//
// Semantics of CompareAndSwap(name, old, new):
//   - old == nil asserts the blob does not exist (atomic create);
//   - new == nil deletes the blob (atomic delete-if-unchanged);
//   - otherwise the blob's current bytes must equal old exactly, and
//     are replaced by new in one atomic step.
//
// A mismatch returns ErrCASConflict. Implementations must make the
// read-compare-write sequence atomic against every other writer of the
// same store — across processes for multi-node backends (FSStore does
// this with an advisory file lock).
type CASStore interface {
	Store
	CompareAndSwap(name string, old, new []byte) error
}

// FSStore is the filesystem Store: one file per blob inside a
// directory, with Put writing a temp file and renaming it into place —
// the same crash-safety dance the checkpoint code has always done.
// It also implements CASStore, so several processes sharing one
// directory (local disk or NFS with working flock) can coordinate
// shard leases through it.
type FSStore struct {
	dir string
}

// tmpSuffix marks in-flight Put files; List hides them so a crash
// mid-write never surfaces a torn blob under a listable name.
const tmpSuffix = ".tmp"

// NewFSStore creates the directory if needed and returns a store over
// it.
func NewFSStore(dir string) (*FSStore, error) {
	if dir == "" {
		return nil, fmt.Errorf("jobs: empty store directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("jobs: store dir: %w", err)
	}
	return &FSStore{dir: dir}, nil
}

// Dir returns the backing directory.
func (s *FSStore) Dir() string { return s.dir }

// path maps a blob name to its file, rejecting names that would escape
// the directory.
func (s *FSStore) path(name string) (string, error) {
	if name == "" || name != filepath.Base(name) || name == "." || name == ".." {
		return "", fmt.Errorf("jobs: invalid blob name %q", name)
	}
	return filepath.Join(s.dir, name), nil
}

// Get reads one blob; a missing name satisfies errors.Is(err,
// fs.ErrNotExist).
func (s *FSStore) Get(name string) ([]byte, error) {
	p, err := s.path(name)
	if err != nil {
		return nil, err
	}
	return os.ReadFile(p)
}

// Put atomically replaces the blob via temp-file + rename. The temp
// name is unique per call: with a shared fixed name, two processes
// Putting the same blob concurrently would interleave writes into one
// temp file and rename a torn mixture into place. The file is synced
// before the rename so a crash right after Put returns cannot surface
// a zero-length or partial blob under the final name.
func (s *FSStore) Put(name string, blob []byte) error {
	p, err := s.path(name)
	if err != nil {
		return err
	}
	f, err := os.CreateTemp(s.dir, name+".*"+tmpSuffix)
	if err != nil {
		return err
	}
	tmp := f.Name()
	if _, err := f.Write(blob); err == nil {
		err = f.Sync()
	} else {
		f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, p)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// casLock is the one lock file every CompareAndSwap in a directory
// takes. It carries the temp suffix so List never surfaces it.
const casLock = ".cas.lock" + tmpSuffix

// CompareAndSwap implements the CASStore contract with an advisory
// flock around read-compare-replace. All records of the directory share
// one lock file, which is left in place forever: unlinking a lock file
// while another process still holds its flock would let a third process
// lock a fresh inode and break mutual exclusion. One file per directory
// keeps that argument without leaving a file behind for every record.
func (s *FSStore) CompareAndSwap(name string, old, new []byte) error {
	p, err := s.path(name)
	if err != nil {
		return err
	}
	lock, err := os.OpenFile(filepath.Join(s.dir, casLock), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	defer lock.Close()
	if err := syscall.Flock(int(lock.Fd()), syscall.LOCK_EX); err != nil {
		return fmt.Errorf("jobs: cas lock %s: %w", name, err)
	}
	defer syscall.Flock(int(lock.Fd()), syscall.LOCK_UN)

	cur, err := os.ReadFile(p)
	switch {
	case errors.Is(err, fs.ErrNotExist):
		if old != nil {
			return fmt.Errorf("%w: %s does not exist", ErrCASConflict, name)
		}
	case err != nil:
		return err
	default:
		if old == nil || !bytes.Equal(cur, old) {
			return fmt.Errorf("%w: %s changed", ErrCASConflict, name)
		}
	}
	if new == nil {
		if err := os.Remove(p); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return err
		}
		return nil
	}
	return s.Put(name, new)
}

// AsCAS adapts any Store to CASStore. A native implementation (FSStore)
// is returned as-is; otherwise the store is wrapped with a process-local
// mutex, which is correct only while every writer shares the one
// returned wrapper — fine for tests and single-process managers, not
// for multi-node deployments, which need a backend with real
// cross-process CAS.
func AsCAS(s Store) CASStore {
	if cs, ok := s.(CASStore); ok {
		return cs
	}
	return &lockedCAS{Store: s}
}

type lockedCAS struct {
	Store
	mu sync.Mutex
}

func (s *lockedCAS) CompareAndSwap(name string, old, new []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	cur, err := s.Get(name)
	switch {
	case errors.Is(err, fs.ErrNotExist):
		if old != nil {
			return fmt.Errorf("%w: %s does not exist", ErrCASConflict, name)
		}
	case err != nil:
		return err
	default:
		if old == nil || !bytes.Equal(cur, old) {
			return fmt.Errorf("%w: %s changed", ErrCASConflict, name)
		}
	}
	if new == nil {
		return s.Delete(name)
	}
	return s.Put(name, new)
}

// memStore is the Store of a manager configured with neither Dir nor
// Store: jobs run the same blob protocol in memory and vanish with the
// process.
type memStore struct {
	mu    sync.Mutex
	blobs map[string][]byte
}

func (s *memStore) Get(name string) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.blobs[name]
	if !ok {
		return nil, fmt.Errorf("jobs: %s: %w", name, fs.ErrNotExist)
	}
	return b, nil
}

func (s *memStore) Put(name string, blob []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.blobs[name] = bytes.Clone(blob)
	return nil
}

func (s *memStore) List() ([]string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.blobs))
	for name := range s.blobs {
		names = append(names, name)
	}
	return names, nil
}

func (s *memStore) Delete(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.blobs, name)
	return nil
}

// List returns every stored blob name (temp files from in-flight or
// crashed Puts excluded).
func (s *FSStore) List() ([]string, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if e.IsDir() || strings.HasSuffix(e.Name(), tmpSuffix) {
			continue
		}
		names = append(names, e.Name())
	}
	return names, nil
}

// Delete removes a blob; deleting a missing name is a no-op.
func (s *FSStore) Delete(name string) error {
	p, err := s.path(name)
	if err != nil {
		return err
	}
	if err := os.Remove(p); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	return nil
}
