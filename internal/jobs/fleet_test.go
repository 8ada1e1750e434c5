package jobs

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/coverage"
	"repro/internal/obs"
)

// fleetSpec builds a small valid K-sensor job spec.
func fleetSpec(t *testing.T, sensors, maxIters, restarts int, seed uint64) Spec {
	t.Helper()
	s := testSpec(t, maxIters, restarts, seed)
	s.Sensors = sensors
	return s
}

// assertFleetPlansEqual extends assertPlansEqual with bit-for-bit
// comparison of every sensor's transition matrix.
func assertFleetPlansEqual(t *testing.T, got, want *coverage.Plan, label string) {
	t.Helper()
	assertPlansEqual(t, got, want, label)
	if got.Fleet == nil || want.Fleet == nil {
		t.Fatalf("%s: fleet blocks got=%v want=%v", label, got.Fleet, want.Fleet)
	}
	if got.Fleet.Sensors != want.Fleet.Sensors {
		t.Fatalf("%s: sensors %d, want %d", label, got.Fleet.Sensors, want.Fleet.Sensors)
	}
	for s := range want.Fleet.TransitionMatrices {
		gm, wm := got.Fleet.TransitionMatrices[s], want.Fleet.TransitionMatrices[s]
		for i := range wm {
			for j := range wm[i] {
				if gm[i][j] != wm[i][j] {
					t.Fatalf("%s: sensor %d P[%d][%d] = %.17g, want %.17g",
						label, s, i, j, gm[i][j], wm[i][j])
				}
			}
		}
	}
}

func TestFleetSubmitValidation(t *testing.T) {
	m, err := New(Config{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer shutdown(t, m)

	neg := testSpec(t, 100, 1, 1)
	neg.Sensors = -2
	if _, err := m.Submit(neg); !errors.Is(err, ErrSpec) {
		t.Errorf("negative sensors err = %v, want ErrSpec", err)
	}

	// Responsibility on a single-sensor job is a spec error: the field
	// only means something for fleets.
	single := testSpec(t, 100, 1, 1)
	single.Responsibility = [][]float64{{1, 1, 1}}
	if _, err := m.Submit(single); !errors.Is(err, ErrSpec) {
		t.Errorf("responsibility on single-sensor job err = %v, want ErrSpec", err)
	}

	// Malformed responsibility on a fleet job (wrong row count).
	bad := fleetSpec(t, 2, 100, 1, 1)
	bad.Responsibility = [][]float64{{1, 1, 1}}
	if _, err := m.Submit(bad); !errors.Is(err, ErrSpec) {
		t.Errorf("short responsibility err = %v, want ErrSpec", err)
	}
	bad.Responsibility = [][]float64{{1, 1, 1}, {1, -1, 1}}
	if _, err := m.Submit(bad); !errors.Is(err, ErrSpec) {
		t.Errorf("negative responsibility err = %v, want ErrSpec", err)
	}

	// Option errors surface at run time (as for single-sensor jobs): an
	// unknown solver fails the job cleanly.
	badSolver := fleetSpec(t, 2, 100, 1, 1)
	badSolver.Options.Solver = "bogus"
	v, err := m.Submit(badSolver)
	if err != nil {
		t.Fatalf("Submit badSolver: %v", err)
	}
	waitFor(t, 30*time.Second, func() bool {
		got, _ := m.Get(v.ID)
		return got.State == StateFailed
	}, "fleet job with unknown solver to fail")
	got, _ := m.Get(v.ID)
	if got.Error == "" {
		t.Errorf("failed fleet job carries no error message")
	}
}

// TestFleetJobMatchesOptimizeFleetBest: a fleet job run through the
// manager produces exactly the plan a direct OptimizeFleetBest call
// would, and the fleet metrics tick.
func TestFleetJobMatchesOptimizeFleetBest(t *testing.T) {
	reg := obs.NewRegistry()
	m, err := New(Config{Workers: 1, Metrics: reg})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer shutdown(t, m)

	spec := fleetSpec(t, 2, 150, 3, 42)
	v, err := m.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitFor(t, 60*time.Second, func() bool {
		got, _ := m.Get(v.ID)
		return got.State == StateDone
	}, "fleet job to finish")

	plan, err := m.Plan(v.ID)
	if err != nil {
		t.Fatalf("Plan: %v", err)
	}
	want, err := coverage.OptimizeFleetBest(spec.Scenario, spec.Objectives,
		spec.Options, spec.Sensors, spec.Responsibility, spec.Restarts)
	if err != nil {
		t.Fatalf("OptimizeFleetBest: %v", err)
	}
	assertFleetPlansEqual(t, plan, want, "fleet job")

	if got := m.met.fleetJobs.Value(); got != 1 {
		t.Errorf("fleet_jobs_total = %v, want 1", got)
	}
}

// TestFleetJobResume: interrupting a fleet job mid-run and resuming it
// from the checkpoint directory lands on the bit-identical final plan,
// with Sensors and Responsibility surviving the metadata round-trip.
func TestFleetJobResume(t *testing.T) {
	dir := t.TempDir()
	spec := fleetSpec(t, 2, 300, 8, 99)
	spec.Responsibility = [][]float64{{1, 0.5, 1}, {0.5, 1, 1}}

	m1, err := New(Config{Workers: 1, Dir: dir})
	if err != nil {
		t.Fatalf("New m1: %v", err)
	}
	v, err := m1.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitFor(t, 60*time.Second, func() bool {
		got, _ := m1.Get(v.ID)
		return got.Progress.RestartsDone >= 1 || got.State == StateDone
	}, "first fleet restart to checkpoint")
	shutdown(t, m1)

	m2, err := New(Config{Workers: 1, Dir: dir})
	if err != nil {
		t.Fatalf("New m2: %v", err)
	}
	defer shutdown(t, m2)
	waitFor(t, 120*time.Second, func() bool {
		got, err := m2.Get(v.ID)
		return err == nil && got.State == StateDone
	}, "resumed fleet job to finish")

	plan, err := m2.Plan(v.ID)
	if err != nil {
		t.Fatalf("Plan after resume: %v", err)
	}
	want, err := coverage.OptimizeFleetBest(spec.Scenario, spec.Objectives,
		spec.Options, spec.Sensors, spec.Responsibility, spec.Restarts)
	if err != nil {
		t.Fatalf("OptimizeFleetBest: %v", err)
	}
	assertFleetPlansEqual(t, plan, want, "resumed fleet job")
}

// TestFleetJobSharded: a fleet job under the shard protocol merges to
// the same plan as a direct call, with every restart completed exactly
// once across the cluster.
func TestFleetJobSharded(t *testing.T) {
	dir := t.TempDir()
	spec := fleetSpec(t, 2, 60, 4, 313)

	var mu sync.Mutex
	completed := make(map[int]int) // restart -> completion count
	mgrs := make([]*Manager, 0, 2)
	for i := 0; i < 2; i++ {
		m := shardManager(t, dir, fmt.Sprintf("fn%d", i), Config{
			Metrics: obs.NewRegistry(),
			testAfterShardRestart: func(jobID string, shard, restart int) {
				mu.Lock()
				completed[restart]++
				mu.Unlock()
			},
		})
		defer shutdown(t, m)
		mgrs = append(mgrs, m)
	}

	v, err := mgrs[0].Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitFor(t, 120*time.Second, func() bool {
		got, err := mgrs[0].Get(v.ID)
		return err == nil && got.State == StateDone
	}, "sharded fleet job to finish")

	want, err := coverage.OptimizeFleetBest(spec.Scenario, spec.Objectives,
		spec.Options, spec.Sensors, spec.Responsibility, spec.Restarts)
	if err != nil {
		t.Fatalf("OptimizeFleetBest: %v", err)
	}
	for i, m := range mgrs {
		waitFor(t, 10*time.Second, func() bool {
			got, err := m.Get(v.ID)
			return err == nil && got.State == StateDone
		}, fmt.Sprintf("node %d to observe completion", i))
		plan, err := m.Plan(v.ID)
		if err != nil {
			t.Fatalf("node %d Plan: %v", i, err)
		}
		assertFleetPlansEqual(t, plan, want, fmt.Sprintf("node %d", i))
	}

	mu.Lock()
	defer mu.Unlock()
	for r := 0; r < spec.Restarts; r++ {
		if completed[r] != 1 {
			t.Errorf("restart %d completed %d times, want exactly 1", r, completed[r])
		}
	}
}
