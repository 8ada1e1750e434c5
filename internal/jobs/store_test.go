package jobs

import (
	"bytes"
	"encoding/json"
	"errors"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"
)

// TestFSStoreRoundTrip pins the Store contract on the filesystem
// implementation: Put/Get round-trips, atomic replace, fs.ErrNotExist
// on misses, List hiding temp files, and idempotent Delete.
func TestFSStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := NewFSStore(dir)
	if err != nil {
		t.Fatalf("NewFSStore: %v", err)
	}

	if _, err := s.Get("missing.json"); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("Get missing: err = %v, want fs.ErrNotExist", err)
	}
	if err := s.Put("a.json", []byte("one")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := s.Put("a.json", []byte("two")); err != nil {
		t.Fatalf("Put replace: %v", err)
	}
	got, err := s.Get("a.json")
	if err != nil || string(got) != "two" {
		t.Errorf("Get = %q, %v; want \"two\"", got, err)
	}

	// A crashed Put leaves a temp file; List must not surface it.
	if err := os.WriteFile(filepath.Join(dir, "b.json.tmp"), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("c.json", []byte("three")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	names, err := s.List()
	if err != nil {
		t.Fatalf("List: %v", err)
	}
	sort.Strings(names)
	if len(names) != 2 || names[0] != "a.json" || names[1] != "c.json" {
		t.Errorf("List = %v, want [a.json c.json]", names)
	}

	if err := s.Delete("a.json"); err != nil {
		t.Errorf("Delete: %v", err)
	}
	if err := s.Delete("a.json"); err != nil {
		t.Errorf("Delete missing: %v, want nil", err)
	}
	if _, err := s.Get("a.json"); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("Get deleted: err = %v, want fs.ErrNotExist", err)
	}

	// Names that would escape the directory are rejected.
	for _, bad := range []string{"", ".", "..", "x/y.json", "../z.json"} {
		if err := s.Put(bad, []byte("no")); err == nil {
			t.Errorf("Put(%q) accepted", bad)
		}
	}
}

// TestManagerCustomStore runs a job manager on an explicit Store and
// checks the checkpoint triple lands under the expected blob names —
// the layout the plan library's persistent tier shares.
func TestManagerCustomStore(t *testing.T) {
	s, err := NewFSStore(t.TempDir())
	if err != nil {
		t.Fatalf("NewFSStore: %v", err)
	}
	m, err := New(Config{Workers: 1, Store: s})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	v, err := m.Submit(testSpec(t, 100, 1, 3))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitFor(t, 30*time.Second, func() bool {
		got, _ := m.Get(v.ID)
		return got.State == StateDone
	}, "job to finish")
	shutdown(t, m)

	for _, name := range []string{jobBlob(v.ID), scenarioBlob(v.ID), planBlob(v.ID)} {
		if _, err := s.Get(name); err != nil {
			t.Errorf("blob %s missing after run: %v", name, err)
		}
	}

	// A fresh manager on the same store resumes the finished job.
	m2, err := New(Config{Workers: 1, Store: s})
	if err != nil {
		t.Fatalf("New on same store: %v", err)
	}
	defer shutdown(t, m2)
	got, err := m2.Get(v.ID)
	if err != nil || got.State != StateDone {
		t.Errorf("resumed job = %+v, %v; want done", got, err)
	}
}

// TestFSStoreLockFilesBounded: CompareAndSwap's lock files do not pile
// up per record. Jobs over an FSStore take leases and end with terminal
// CASes on several records each; after one job runs to done (and a
// DELETE is refused) and another is cancelled by DELETE mid-run, the
// directory holds at most the one shared lock file.
func TestFSStoreLockFilesBounded(t *testing.T) {
	dir := t.TempDir()
	m, err := New(Config{Workers: 1, Dir: dir})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()
	submit := func(spec Spec) string {
		body, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("marshal spec: %v", err)
		}
		resp, err := http.Post(srv.URL+"/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("POST /jobs: %v", err)
		}
		defer resp.Body.Close()
		var v View
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatalf("decode submit: %v", err)
		}
		return v.ID
	}
	del := func(id string) int {
		req, err := http.NewRequest(http.MethodDelete, srv.URL+"/jobs/"+id, nil)
		if err != nil {
			t.Fatalf("build DELETE: %v", err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("DELETE: %v", err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	waitState := func(id string, cond func(View) bool, msg string) {
		waitFor(t, 30*time.Second, func() bool {
			v, err := m.Get(id)
			return err == nil && cond(v)
		}, msg)
	}

	done := submit(testSpec(t, 50, 2, 5))
	waitState(done, func(v View) bool { return v.State == StateDone }, "short job to finish")
	if code := del(done); code != http.StatusConflict {
		t.Errorf("DELETE done job = %d, want 409", code)
	}
	long := submit(testSpec(t, 2000, 100000, 6))
	waitState(long, func(v View) bool { return v.State == StateRunning && v.Progress.Iteration >= 1 },
		"long job to report progress")
	if code := del(long); code != http.StatusOK {
		t.Errorf("DELETE running job = %d, want 200", code)
	}
	waitState(long, func(v View) bool { return v.State == StateCancelled }, "cancelled job to settle")
	shutdown(t, m)

	locks, err := filepath.Glob(filepath.Join(dir, "*.lock.tmp"))
	if err != nil {
		t.Fatal(err)
	}
	if len(locks) > 1 {
		t.Errorf("%d lock files left after two jobs, want at most 1: %v", len(locks), locks)
	}
}
