package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/coverage"
)

// testSpec builds a small valid job spec; maxIters and restarts size the
// amount of work.
func testSpec(t *testing.T, maxIters, restarts int, seed uint64) Spec {
	t.Helper()
	scn, err := coverage.LineScenario("jobs-test", 3, []float64{0.3, 0.3, 0.4})
	if err != nil {
		t.Fatalf("LineScenario: %v", err)
	}
	return Spec{
		Scenario:   scn,
		Objectives: coverage.Objectives{Alpha: 1, Beta: 1e-3},
		Options:    coverage.Options{MaxIters: maxIters, Seed: seed},
		Restarts:   restarts,
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, timeout time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", msg)
}

func shutdown(t *testing.T, m *Manager) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := m.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

func TestSubmitValidation(t *testing.T) {
	m, err := New(Config{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer shutdown(t, m)

	spec := testSpec(t, 100, 1, 1)
	spec.Restarts = -1
	if _, err := m.Submit(spec); !errors.Is(err, ErrSpec) {
		t.Errorf("negative restarts err = %v, want ErrSpec", err)
	}
	bad := testSpec(t, 100, 1, 1)
	bad.Objectives = coverage.Objectives{} // all weights zero
	if _, err := m.Submit(bad); !errors.Is(err, ErrSpec) {
		t.Errorf("zero objectives err = %v, want ErrSpec", err)
	}
	if _, err := m.Get("job-000099"); !errors.Is(err, ErrNotFound) {
		t.Errorf("unknown job err = %v, want ErrNotFound", err)
	}
}

func TestRunToDoneMatchesOptimizeBest(t *testing.T) {
	m, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer shutdown(t, m)

	spec := testSpec(t, 800, 3, 42)
	v, err := m.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitFor(t, 30*time.Second, func() bool {
		got, err := m.Get(v.ID)
		return err == nil && got.State == StateDone
	}, "job to finish")

	got, err := m.Get(v.ID)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if got.Progress.RestartsDone != 3 || got.Started == nil || got.Finished == nil {
		t.Errorf("done view = %+v", got)
	}
	plan, err := m.Plan(v.ID)
	if err != nil {
		t.Fatalf("Plan: %v", err)
	}
	want, err := coverage.OptimizeBest(spec.Scenario, spec.Objectives, spec.Options, spec.Restarts)
	if err != nil {
		t.Fatalf("OptimizeBest: %v", err)
	}
	if plan.Cost != want.Cost {
		t.Errorf("cost = %v, want %v (OptimizeBest)", plan.Cost, want.Cost)
	}
	for i := range want.TransitionMatrix {
		for k := range want.TransitionMatrix[i] {
			if plan.TransitionMatrix[i][k] != want.TransitionMatrix[i][k] {
				t.Fatalf("matrix[%d][%d] = %v, want %v", i, k,
					plan.TransitionMatrix[i][k], want.TransitionMatrix[i][k])
			}
		}
	}
}

func TestQueueBoundsAndShutdownRejection(t *testing.T) {
	m, err := New(Config{Workers: 1, QueueDepth: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}

	// Keep the single worker busy for the duration of the test.
	long, err := m.Submit(testSpec(t, 2000, 100000, 1))
	if err != nil {
		t.Fatalf("Submit long: %v", err)
	}
	waitFor(t, 10*time.Second, func() bool {
		got, _ := m.Get(long.ID)
		return got.State == StateRunning
	}, "long job to start")

	queued, err := m.Submit(testSpec(t, 100, 1, 2))
	if err != nil {
		t.Fatalf("Submit queued: %v", err)
	}
	if _, err := m.Submit(testSpec(t, 100, 1, 3)); !errors.Is(err, ErrQueueFull) {
		t.Errorf("overflow err = %v, want ErrQueueFull", err)
	}

	// Cancelling the queued job is immediate and terminal.
	if err := m.Cancel(queued.ID); err != nil {
		t.Fatalf("Cancel queued: %v", err)
	}
	got, _ := m.Get(queued.ID)
	if got.State != StateCancelled {
		t.Errorf("queued-cancel state = %s", got.State)
	}
	if _, err := m.Plan(queued.ID); !errors.Is(err, ErrNoPlan) {
		t.Errorf("plan of never-run job err = %v, want ErrNoPlan", err)
	}
	if err := m.Cancel(queued.ID); !errors.Is(err, ErrTerminal) {
		t.Errorf("double cancel err = %v, want ErrTerminal", err)
	}

	st := m.Stat()
	if st.Workers != 1 || st.QueueDepth != 1 {
		t.Errorf("stats = %+v", st)
	}

	shutdown(t, m)
	if _, err := m.Submit(testSpec(t, 100, 1, 4)); !errors.Is(err, ErrShuttingDown) {
		t.Errorf("post-shutdown submit err = %v, want ErrShuttingDown", err)
	}
	// The interrupted long job parks as paused, not cancelled.
	got, _ = m.Get(long.ID)
	if got.State != StatePaused {
		t.Errorf("interrupted job state = %s, want paused", got.State)
	}
}

// TestHTTPEndToEnd drives the full API surface over a real listener:
// submit, list, poll to completion, fetch the plan envelope, cancel a
// running job, and exercise every error mapping.
func TestHTTPEndToEnd(t *testing.T) {
	m, err := New(Config{Workers: 2})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer shutdown(t, m)
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()

	getJSON := func(path string, into any) int {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if into != nil {
			if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
				t.Fatalf("GET %s decode: %v", path, err)
			}
		}
		return resp.StatusCode
	}

	if code := getJSON("/healthz", nil); code != http.StatusOK {
		t.Fatalf("healthz = %d", code)
	}

	// Submit a quick job.
	body, err := json.Marshal(testSpec(t, 500, 2, 11))
	if err != nil {
		t.Fatalf("marshal spec: %v", err)
	}
	resp, err := http.Post(srv.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /jobs: %v", err)
	}
	var created View
	if err := json.NewDecoder(resp.Body).Decode(&created); err != nil {
		t.Fatalf("decode submit response: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || created.ID == "" || created.State != StateQueued {
		t.Fatalf("submit response %d %+v", resp.StatusCode, created)
	}
	if loc := resp.Header.Get("Location"); loc != "/jobs/"+created.ID {
		t.Errorf("Location = %q", loc)
	}

	// Poll until done, then fetch the plan envelope.
	waitFor(t, 30*time.Second, func() bool {
		var v View
		return getJSON("/jobs/"+created.ID, &v) == http.StatusOK && v.State == StateDone
	}, "HTTP job to finish")

	planResp, err := http.Get(srv.URL + "/jobs/" + created.ID + "/plan")
	if err != nil {
		t.Fatalf("GET plan: %v", err)
	}
	plan, err := coverage.ReadPlan(planResp.Body)
	planResp.Body.Close()
	if err != nil {
		t.Fatalf("plan endpoint did not serve a valid envelope: %v", err)
	}
	if len(plan.TransitionMatrix) != 3 {
		t.Errorf("plan rows = %d", len(plan.TransitionMatrix))
	}

	var listing struct {
		Jobs []View `json:"jobs"`
	}
	if code := getJSON("/jobs", &listing); code != http.StatusOK || len(listing.Jobs) != 1 {
		t.Errorf("list = %d with %d jobs", code, len(listing.Jobs))
	}

	// Submit a long job and cancel it mid-run via DELETE.
	body, err = json.Marshal(testSpec(t, 2000, 100000, 12))
	if err != nil {
		t.Fatalf("marshal long spec: %v", err)
	}
	resp, err = http.Post(srv.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST long job: %v", err)
	}
	var longJob View
	if err := json.NewDecoder(resp.Body).Decode(&longJob); err != nil {
		t.Fatalf("decode long submit: %v", err)
	}
	resp.Body.Close()
	waitFor(t, 10*time.Second, func() bool {
		var v View
		getJSON("/jobs/"+longJob.ID, &v)
		return v.State == StateRunning && v.Progress.Iteration >= 1
	}, "long job to report progress")

	req, err := http.NewRequest(http.MethodDelete, srv.URL+"/jobs/"+longJob.ID, nil)
	if err != nil {
		t.Fatalf("build DELETE: %v", err)
	}
	delResp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE: %v", err)
	}
	delResp.Body.Close()
	if delResp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE = %d", delResp.StatusCode)
	}
	start := time.Now()
	waitFor(t, 5*time.Second, func() bool {
		var v View
		getJSON("/jobs/"+longJob.ID, &v)
		return v.State == StateCancelled
	}, "cancelled job to settle")
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Errorf("cancel took %v, want prompt", elapsed)
	}
	// The cancelled job had completed iterations, so its best-so-far plan
	// is served.
	planResp, err = http.Get(srv.URL + "/jobs/" + longJob.ID + "/plan")
	if err != nil {
		t.Fatalf("GET cancelled plan: %v", err)
	}
	_, err = coverage.ReadPlan(planResp.Body)
	planResp.Body.Close()
	if err != nil {
		t.Errorf("cancelled job plan invalid: %v", err)
	}

	// Error mappings.
	if code := getJSON("/jobs/job-000099", nil); code != http.StatusNotFound {
		t.Errorf("unknown job = %d, want 404", code)
	}
	resp, err = http.Post(srv.URL+"/jobs", "application/json", bytes.NewReader([]byte("{not json")))
	if err != nil {
		t.Fatalf("POST garbage: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("garbage submit = %d, want 400", resp.StatusCode)
	}
	req, err = http.NewRequest(http.MethodDelete, srv.URL+"/jobs/"+created.ID, nil)
	if err != nil {
		t.Fatalf("build second DELETE: %v", err)
	}
	delResp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE done job: %v", err)
	}
	delResp.Body.Close()
	if delResp.StatusCode != http.StatusConflict {
		t.Errorf("DELETE done job = %d, want 409", delResp.StatusCode)
	}
}

// TestResumeAfterShutdown is the kill/restart scenario: a multi-restart
// job is interrupted by a graceful shutdown, a fresh Manager on the same
// checkpoint directory re-queues it, and the finished job reproduces an
// uninterrupted coverage.OptimizeBest bit-for-bit.
func TestResumeAfterShutdown(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec(t, 900, 24, 77)

	m1, err := New(Config{Workers: 1, Dir: dir})
	if err != nil {
		t.Fatalf("New m1: %v", err)
	}
	v, err := m1.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	// Let at least one restart complete so the resume path has both a
	// checkpointed plan and a nonzero starting restart.
	waitFor(t, 30*time.Second, func() bool {
		got, _ := m1.Get(v.ID)
		return got.Progress.RestartsDone >= 1 || got.State == StateDone
	}, "first restart to checkpoint")
	shutdown(t, m1)

	interrupted, err := m1.Get(v.ID)
	if err != nil {
		t.Fatalf("Get after shutdown: %v", err)
	}
	if interrupted.State != StatePaused && interrupted.State != StateDone {
		t.Fatalf("post-shutdown state = %s", interrupted.State)
	}
	// The running time of the completed restarts is on record, so the
	// resumed job's wall clock keeps counting it.
	tab, err := m1.loadShardTable(v.ID)
	if err != nil {
		t.Fatalf("shard table: %v", err)
	}
	s0 := m1.loadShardState(tab, 0)
	if s0.Done == 0 || s0.Sec <= 0 {
		t.Fatalf("shard 0 after shutdown: done %d in %v s, want completed restarts and their time", s0.Done, s0.Sec)
	}

	m2, err := New(Config{Workers: 1, Dir: dir})
	if err != nil {
		t.Fatalf("New m2: %v", err)
	}
	defer shutdown(t, m2)
	waitFor(t, 60*time.Second, func() bool {
		got, err := m2.Get(v.ID)
		return err == nil && got.State == StateDone
	}, "resumed job to finish")

	plan, err := m2.Plan(v.ID)
	if err != nil {
		t.Fatalf("Plan after resume: %v", err)
	}
	want, err := coverage.OptimizeBest(spec.Scenario, spec.Objectives, spec.Options, spec.Restarts)
	if err != nil {
		t.Fatalf("OptimizeBest: %v", err)
	}
	if plan.Cost != want.Cost {
		t.Fatalf("resumed cost = %v, want %v", plan.Cost, want.Cost)
	}
	for i := range want.TransitionMatrix {
		for k := range want.TransitionMatrix[i] {
			if plan.TransitionMatrix[i][k] != want.TransitionMatrix[i][k] {
				t.Fatalf("resumed matrix[%d][%d] = %v, want %v", i, k,
					plan.TransitionMatrix[i][k], want.TransitionMatrix[i][k])
			}
		}
	}
	got, _ := m2.Get(v.ID)
	if got.Progress.RestartsDone != spec.Restarts {
		t.Errorf("restartsDone = %d, want %d", got.Progress.RestartsDone, spec.Restarts)
	}
	if got.WallClockSec < s0.Sec {
		t.Errorf("wallClockSec = %v, want at least the %v s run before the pause", got.WallClockSec, s0.Sec)
	}
}

// TestResumeAfterHardKill: a checkpoint left in state "running" (the
// process died without a graceful shutdown) is re-queued and re-run.
func TestResumeAfterHardKill(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec(t, 400, 2, 5)

	m1, err := New(Config{Workers: 1, Dir: dir})
	if err != nil {
		t.Fatalf("New m1: %v", err)
	}
	v, err := m1.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitFor(t, 30*time.Second, func() bool {
		got, _ := m1.Get(v.ID)
		return got.State == StateDone
	}, "job to finish")
	shutdown(t, m1)

	// Forge the crash: metadata says running with no completed restarts,
	// and the plan checkpoint is gone.
	metaPath := filepath.Join(dir, jobBlob(v.ID))
	blob, err := os.ReadFile(metaPath)
	if err != nil {
		t.Fatalf("read checkpoint: %v", err)
	}
	var env jobEnvelope
	if err := json.Unmarshal(blob, &env); err != nil {
		t.Fatalf("unmarshal checkpoint: %v", err)
	}
	env.Job.State = StateRunning
	env.Job.RestartsDone = 0
	env.Job.Error = ""
	blob, err = json.MarshalIndent(env, "", "  ")
	if err != nil {
		t.Fatalf("marshal checkpoint: %v", err)
	}
	if err := os.WriteFile(metaPath, blob, 0o644); err != nil {
		t.Fatalf("write checkpoint: %v", err)
	}
	if err := os.Remove(filepath.Join(dir, planBlob(v.ID))); err != nil {
		t.Fatalf("remove plan checkpoint: %v", err)
	}

	m2, err := New(Config{Workers: 1, Dir: dir})
	if err != nil {
		t.Fatalf("New m2: %v", err)
	}
	defer shutdown(t, m2)
	waitFor(t, 30*time.Second, func() bool {
		got, err := m2.Get(v.ID)
		return err == nil && got.State == StateDone
	}, "re-run job to finish")

	plan, err := m2.Plan(v.ID)
	if err != nil {
		t.Fatalf("Plan: %v", err)
	}
	want, err := coverage.OptimizeBest(spec.Scenario, spec.Objectives, spec.Options, spec.Restarts)
	if err != nil {
		t.Fatalf("OptimizeBest: %v", err)
	}
	if plan.Cost != want.Cost {
		t.Errorf("re-run cost = %v, want %v", plan.Cost, want.Cost)
	}
}

// TestLoadCheckpointsSkipsTorn: a torn or corrupt checkpoint (a crash
// mid-write, disk trouble) must not poison startup — the manager skips
// and logs the bad file and loads every healthy job around it.
func TestLoadCheckpointsSkipsTorn(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec(t, 200, 1, 11)

	m1, err := New(Config{Workers: 1, Dir: dir})
	if err != nil {
		t.Fatalf("New m1: %v", err)
	}
	v, err := m1.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitFor(t, 30*time.Second, func() bool {
		got, _ := m1.Get(v.ID)
		return got.State == StateDone
	}, "job to finish")
	shutdown(t, m1)

	// Forge a torn metadata file — the front half of a valid envelope, as
	// a crash mid-write without the temp+rename dance would leave — plus a
	// wrong-kind file, a la manual edits.
	blob, err := os.ReadFile(filepath.Join(dir, jobBlob(v.ID)))
	if err != nil {
		t.Fatalf("read checkpoint: %v", err)
	}
	if err := os.WriteFile(dir+"/job-000098.job.json", blob[:len(blob)/2], 0o644); err != nil {
		t.Fatalf("write torn: %v", err)
	}
	if err := os.WriteFile(dir+"/job-000099.job.json", []byte(`{"version":1,"kind":"plan"}`), 0o644); err != nil {
		t.Fatalf("write wrong-kind: %v", err)
	}

	var logBuf bytes.Buffer
	m2, err := New(Config{Workers: 1, Dir: dir,
		Logger: slog.New(slog.NewTextHandler(&logBuf, nil))})
	if err != nil {
		t.Fatalf("New with torn checkpoints: %v", err)
	}
	defer shutdown(t, m2)

	got, err := m2.Get(v.ID)
	if err != nil {
		t.Fatalf("healthy job lost: %v", err)
	}
	if got.State != StateDone {
		t.Errorf("healthy job state = %s, want %s", got.State, StateDone)
	}
	if _, err := m2.Plan(v.ID); err != nil {
		t.Errorf("healthy job plan lost: %v", err)
	}
	for _, bad := range []string{"job-000098", "job-000099"} {
		if _, err := m2.Get(bad); !errors.Is(err, ErrNotFound) {
			t.Errorf("Get(%s) err = %v, want ErrNotFound", bad, err)
		}
	}
	if jobs := m2.List(); len(jobs) != 1 {
		t.Errorf("List returned %d jobs, want 1", len(jobs))
	}
	if n := strings.Count(logBuf.String(), "skipping unreadable checkpoint"); n != 2 {
		t.Errorf("skip log emitted %d times, want 2\nlogs:\n%s", n, logBuf.String())
	}
	// The bad files stay on disk for inspection.
	for _, bad := range []string{"job-000098", "job-000099"} {
		if _, err := os.Stat(dir + "/" + bad + ".job.json"); err != nil {
			t.Errorf("bad checkpoint %s removed: %v", bad, err)
		}
	}
}

// TestShutdownLeaksNoGoroutines: after Shutdown returns, every worker
// and helper goroutine is gone.
func TestShutdownLeaksNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()

	m, err := New(Config{Workers: 3, QueueDepth: 4})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	v, err := m.Submit(testSpec(t, 300, 1, 9))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitFor(t, 30*time.Second, func() bool {
		got, _ := m.Get(v.ID)
		return got.State == StateDone
	}, "job to finish")
	shutdown(t, m)

	after := runtime.NumGoroutine()
	for i := 0; i < 100 && after > before; i++ {
		time.Sleep(10 * time.Millisecond)
		after = runtime.NumGoroutine()
	}
	if after > before {
		t.Errorf("goroutines: %d before, %d after shutdown", before, after)
	}
}

// TestMaxJobWorkersClamp checks the per-job parallelism cap: requests of
// 0 (meaning "all cores") and requests above the cap both land on the
// cap, explicit smaller requests survive, and negative requests are
// rejected outright.
func TestMaxJobWorkersClamp(t *testing.T) {
	m, err := New(Config{Workers: 1, MaxJobWorkers: 2})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer shutdown(t, m)

	cases := []struct {
		requested, want int
	}{
		{0, 2},
		{8, 2},
		{1, 1},
		{2, 2},
	}
	for _, tc := range cases {
		spec := testSpec(t, 10, 1, 1)
		spec.Options.Workers = tc.requested
		v, err := m.Submit(spec)
		if err != nil {
			t.Fatalf("Submit(workers=%d): %v", tc.requested, err)
		}
		m.mu.Lock()
		got := m.jobs[v.ID].spec.Options.Workers
		m.mu.Unlock()
		if got != tc.want {
			t.Errorf("workers %d clamped to %d, want %d", tc.requested, got, tc.want)
		}
	}

	bad := testSpec(t, 10, 1, 1)
	bad.Options.Workers = -3
	if _, err := m.Submit(bad); !errors.Is(err, ErrSpec) {
		t.Errorf("negative workers err = %v, want ErrSpec", err)
	}
}

// TestThroughputMetricsPersist runs a multi-restart job to completion and
// checks that wall-clock and iterations/sec appear in the view and
// survive a checkpoint round-trip, outside a cluster and in one.
func TestThroughputMetricsPersist(t *testing.T) {
	for _, shard := range []ShardConfig{{}, {Enabled: true, Node: "n1"}} {
		dir := t.TempDir()
		m, err := New(Config{Workers: 1, Dir: dir, Shard: shard})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		v, err := m.Submit(testSpec(t, 200, 2, 7))
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		waitFor(t, 30*time.Second, func() bool {
			got, err := m.Get(v.ID)
			return err == nil && got.State == StateDone
		}, "job to finish")
		got, err := m.Get(v.ID)
		if err != nil {
			t.Fatalf("Get: %v", err)
		}
		if got.WallClockSec <= 0 || got.ItersPerSec <= 0 || got.Started == nil {
			t.Fatalf("cluster %v: done view metrics: wallClockSec=%v itersPerSec=%v started=%v, want both > 0 and a start",
				shard.Enabled, got.WallClockSec, got.ItersPerSec, got.Started)
		}
		shutdown(t, m)

		m2, err := New(Config{Workers: 1, Dir: dir, Shard: shard})
		if err != nil {
			t.Fatalf("New(resume): %v", err)
		}
		reloaded, err := m2.Get(v.ID)
		shutdown(t, m2)
		if err != nil {
			t.Fatalf("Get(resume): %v", err)
		}
		if reloaded.WallClockSec != got.WallClockSec || reloaded.ItersPerSec != got.ItersPerSec ||
			reloaded.Started == nil || !reloaded.Started.Equal(*got.Started) {
			t.Errorf("cluster %v: metrics changed across checkpoint: %v/%v/%v, want %v/%v/%v", shard.Enabled,
				reloaded.WallClockSec, reloaded.ItersPerSec, reloaded.Started,
				got.WallClockSec, got.ItersPerSec, got.Started)
		}
	}
}

// slowMetaStore delays every job-metadata Put, widening the window in
// which a worker could finish a job whose checkpoint is not written yet.
type slowMetaStore struct{ Store }

func (s slowMetaStore) Put(name string, blob []byte) error {
	if strings.HasSuffix(name, ".job.json") {
		time.Sleep(30 * time.Millisecond)
	}
	return s.Store.Put(name, blob)
}

// TestSubmitDurableBeforeRun: a job reaches the worker queue only once
// its checkpoint is written, so the terminal CAS always finds the
// metadata blob and a short job cannot stick in running.
func TestSubmitDurableBeforeRun(t *testing.T) {
	for _, shard := range []ShardConfig{{}, {Enabled: true, Node: "n1"}} {
		fs, err := NewFSStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		store := slowMetaStore{fs}
		m, err := New(Config{Workers: 1, Store: store, Shard: shard})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		v, err := m.Submit(testSpec(t, 5, 1, 3))
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		waitFor(t, 10*time.Second, func() bool {
			got, err := m.Get(v.ID)
			return err == nil && got.State == StateDone
		}, fmt.Sprintf("cluster %v: 5-iteration job to finish", shard.Enabled))
		shutdown(t, m)

		m2, err := New(Config{Workers: 1, Store: store, Shard: shard})
		if err != nil {
			t.Fatalf("New(reload): %v", err)
		}
		got, err := m2.Get(v.ID)
		shutdown(t, m2)
		if err != nil || got.State != StateDone {
			t.Errorf("cluster %v: reloaded job = %+v, %v; want done", shard.Enabled, got, err)
		}
	}
}

// TestResumeOldFormatCheckpoint: a paused checkpoint written before
// every job ran on shards — metadata, scenario and best-so-far plan, no
// shard blobs — resumes from its completed restarts: it runs only the
// remaining ones, keeps the recorded running time, and ends on exactly
// OptimizeBest's plan.
func TestResumeOldFormatCheckpoint(t *testing.T) {
	const k = 2
	dir := t.TempDir()
	spec := testSpec(t, 300, 6, 123)
	store, err := NewFSStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	partial, err := coverage.OptimizeBest(spec.Scenario, spec.Objectives, spec.Options, k)
	if err != nil {
		t.Fatalf("OptimizeBest(%d): %v", k, err)
	}
	const id = "job-000001"
	var scn, plan bytes.Buffer
	if err := coverage.WriteScenario(&scn, spec.Scenario); err != nil {
		t.Fatal(err)
	}
	if err := coverage.WritePlan(&plan, partial); err != nil {
		t.Fatal(err)
	}
	meta, err := json.MarshalIndent(jobEnvelope{Version: checkpointVersion, Kind: "job", Job: &jobMeta{
		ID: id, State: StatePaused, Objectives: spec.Objectives, Options: spec.Options,
		Restarts: spec.Restarts, RestartsDone: k, ItersDone: 600, RanSec: 1.5,
		Created: time.Now(), Started: time.Now(),
	}}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	for name, blob := range map[string][]byte{
		scenarioBlob(id): scn.Bytes(), planBlob(id): plan.Bytes(), jobBlob(id): meta,
	} {
		if err := store.Put(name, blob); err != nil {
			t.Fatal(err)
		}
	}

	var mu sync.Mutex
	var ran []int
	m, err := New(Config{Workers: 1, Dir: dir,
		testAfterShardRestart: func(_ string, _, restart int) {
			mu.Lock()
			ran = append(ran, restart)
			mu.Unlock()
		}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer shutdown(t, m)
	waitFor(t, 60*time.Second, func() bool {
		got, err := m.Get(id)
		return err == nil && got.State == StateDone
	}, "old-format job to finish")

	mu.Lock()
	if want := []int{2, 3, 4, 5}; fmt.Sprint(ran) != fmt.Sprint(want) {
		t.Errorf("restarts run after resume = %v, want %v", ran, want)
	}
	mu.Unlock()
	got, err := m.Plan(id)
	if err != nil {
		t.Fatalf("Plan: %v", err)
	}
	want, err := coverage.OptimizeBest(spec.Scenario, spec.Objectives, spec.Options, spec.Restarts)
	if err != nil {
		t.Fatal(err)
	}
	assertPlansEqual(t, got, want, "resumed old-format job")
	v, err := m.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if v.Progress.RestartsDone != spec.Restarts || v.WallClockSec < 1.5 {
		t.Errorf("view = %+v, want all %d restarts and the recorded 1.5 s counted", v, spec.Restarts)
	}
}

// TestListOrderAndStatusFilter pins two API contracts: GET /jobs returns
// jobs in submission order regardless of completion order, and ?status=
// filters by lifecycle state (rejecting unknown states).
func TestListOrderAndStatusFilter(t *testing.T) {
	m, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer shutdown(t, m)
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()

	var ids []string
	for i := 0; i < 3; i++ {
		v, err := m.Submit(testSpec(t, 200, 1, uint64(i+1)))
		if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		ids = append(ids, v.ID)
	}
	waitFor(t, 30*time.Second, func() bool {
		for _, id := range ids {
			v, err := m.Get(id)
			if err != nil || !v.State.Terminal() {
				return false
			}
		}
		return true
	}, "all jobs terminal")

	fetch := func(url string, wantStatus int) []View {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatalf("GET %s: %v", url, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != wantStatus {
			t.Fatalf("GET %s = %d, want %d", url, resp.StatusCode, wantStatus)
		}
		if wantStatus != http.StatusOK {
			return nil
		}
		var body struct {
			Jobs []View `json:"jobs"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
		return body.Jobs
	}

	listed := fetch(srv.URL+"/jobs", http.StatusOK)
	if len(listed) != len(ids) {
		t.Fatalf("listed %d jobs, want %d", len(listed), len(ids))
	}
	for i, v := range listed {
		if v.ID != ids[i] {
			t.Errorf("list[%d] = %s, want %s (submission order)", i, v.ID, ids[i])
		}
	}

	done := fetch(srv.URL+"/jobs?status=done", http.StatusOK)
	if len(done) != len(ids) {
		t.Errorf("status=done returned %d jobs, want %d", len(done), len(ids))
	}
	for i := 1; i < len(done); i++ {
		if done[i-1].ID >= done[i].ID {
			t.Errorf("filtered list out of order: %s before %s", done[i-1].ID, done[i].ID)
		}
	}
	if queued := fetch(srv.URL+"/jobs?status=queued", http.StatusOK); len(queued) != 0 {
		t.Errorf("status=queued returned %d jobs, want 0", len(queued))
	}
	fetch(srv.URL+"/jobs?status=bogus", http.StatusBadRequest)
}
