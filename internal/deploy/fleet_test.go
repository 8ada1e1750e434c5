package deploy_test

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/coverage"
	"repro/internal/deploy"
	"repro/internal/jobs"
	"repro/internal/rng"
)

// fleetPlan builds a jointly optimized 2-sensor plan for the shared
// line scenario.
func fleetPlan(t *testing.T, scn coverage.Scenario, obj coverage.Objectives) *coverage.Plan {
	t.Helper()
	plan, err := coverage.OptimizeFleet(scn, obj, coverage.Options{MaxIters: 300, Seed: 11}, 2, nil)
	if err != nil {
		t.Fatalf("OptimizeFleet: %v", err)
	}
	return plan
}

func TestFleetCreateValidation(t *testing.T) {
	scn, obj := lineScenario(t)
	plan := fleetPlan(t, scn, obj)
	rt := newRuntime(t, deploy.Config{})

	short := *plan
	shortFleet := *plan.Fleet
	shortFleet.TransitionMatrices = shortFleet.TransitionMatrices[:1]
	short.Fleet = &shortFleet
	if _, err := rt.Create(deploy.Spec{Scenario: scn, Objectives: obj, Plan: &short}); !errors.Is(err, deploy.ErrSpec) {
		t.Errorf("short matrix stack: got %v, want ErrSpec", err)
	}

	tiny := *plan
	tinyFleet := *plan.Fleet
	tinyFleet.Sensors = 1
	tiny.Fleet = &tinyFleet
	if _, err := rt.Create(deploy.Spec{Scenario: scn, Objectives: obj, Plan: &tiny}); !errors.Is(err, deploy.ErrSpec) {
		t.Errorf("1-sensor fleet: got %v, want ErrSpec", err)
	}

	// A malformed responsibility split used to be accepted here and then
	// panic inside the first drift check, under the runtime lock.
	for name, resp := range map[string][][]float64{
		"short rows":    {{0.5}, {0.5}},
		"negative":      {{-0.5, 0.5, 0.5}, {1.5, 0.5, 0.5}},
		"non-finite":    {{math.NaN(), 0.5, 0.5}, {0.5, 0.5, 0.5}},
		"unclaimed PoI": {{1, 0, 1}, {0, 0, 0}},
	} {
		bad := *plan
		badFleet := *plan.Fleet
		badFleet.Responsibility = resp
		bad.Fleet = &badFleet
		_, err := rt.Create(deploy.Spec{
			Scenario: scn, Objectives: obj, Plan: &bad,
			Drift: deploy.DriftConfig{Window: 64, CheckEvery: 16, MinSamples: 32},
		})
		if !errors.Is(err, deploy.ErrSpec) {
			t.Errorf("%s responsibility: got %v, want ErrSpec", name, err)
		}
	}

	// Observations are a single-sensor protocol.
	v, err := rt.Create(deploy.Spec{Scenario: scn, Objectives: obj, Plan: plan, Seed: 5})
	if err != nil {
		t.Fatalf("Create fleet: %v", err)
	}
	if _, err := rt.Observe(v.ID, []int{0, 1}); !errors.Is(err, deploy.ErrSpec) {
		t.Errorf("fleet Observe: got %v, want ErrSpec", err)
	}
}

// TestFleetAdvanceMatchesStandaloneExecutors pins the fleet execution
// contract: K executors with seeds split from the master (in sensor
// order) and ring-staggered starts, advanced in lockstep, with union
// coverage statistics.
func TestFleetAdvanceMatchesStandaloneExecutors(t *testing.T) {
	scn, obj := lineScenario(t)
	plan := fleetPlan(t, scn, obj)
	rt := newRuntime(t, deploy.Config{})

	const seed, start = 42, 1
	v, err := rt.Create(deploy.Spec{Scenario: scn, Objectives: obj, Plan: plan, Start: start, Seed: seed})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if v.Sensors != 2 || len(v.Positions) != 2 {
		t.Fatalf("fresh fleet view: sensors %d positions %v", v.Sensors, v.Positions)
	}
	if v.Positions[0] != start || v.Positions[1] != (start+1)%3 {
		t.Fatalf("staggered starts = %v, want [%d %d]", v.Positions, start, (start+1)%3)
	}

	// Reproduce the runtime's executors: seeds are sequential splits of
	// the master seed, sensor s starts at (start+s) mod M.
	master := rng.New(seed)
	finals := make([]int, 2)
	for s := 0; s < 2; s++ {
		p := *plan
		p.TransitionMatrix = plan.Fleet.TransitionMatrices[s]
		exec, err := coverage.NewExecutor(&p, (start+s)%3, master.Split().Uint64())
		if err != nil {
			t.Fatalf("NewExecutor sensor %d: %v", s, err)
		}
		walk := exec.Walk(500)
		finals[s] = walk[len(walk)-1]
	}

	v, err = rt.Advance(v.ID, 500)
	if err != nil {
		t.Fatalf("Advance: %v", err)
	}
	if v.Step != 501 {
		t.Fatalf("step = %d, want 501", v.Step)
	}
	if v.Positions[0] != finals[0] || v.Positions[1] != finals[1] {
		t.Fatalf("positions = %v, want %v (fleet must replay per-sensor streams)", v.Positions, finals)
	}
	if v.Current != finals[0] {
		t.Errorf("Current = %d, want sensor 0's position %d", v.Current, finals[0])
	}
	// Union coverage: per-step fractions, so the sum over PoIs is at most
	// the fleet size and each entry at most 1.
	var total float64
	for i, c := range v.Coverage {
		if c < 0 || c > 1 {
			t.Errorf("coverage[%d] = %v outside [0, 1]", i, c)
		}
		total += c
	}
	if total > 2+1e-12 || total < 1 {
		t.Errorf("union coverage sums to %v, want within [1, 2]", total)
	}
}

// TestFleetClosedLoopReoptimization drives a fleet deployment until a
// drift check fires (a tight threshold turns sampling noise into the
// trigger), and checks the submitted job is a joint fleet job
// warm-started from all K window estimates, whose result hot-swaps
// every executor.
func TestFleetClosedLoopReoptimization(t *testing.T) {
	scn, obj := lineScenario(t)
	plan := fleetPlan(t, scn, obj)

	jobsDir := t.TempDir()
	mgr, err := jobs.New(jobs.Config{Workers: 1, Dir: jobsDir})
	if err != nil {
		t.Fatalf("jobs.New: %v", err)
	}
	defer mgr.Shutdown(context.Background())

	rt := newRuntime(t, deploy.Config{Jobs: mgr})
	v, err := rt.Create(deploy.Spec{
		Scenario:   scn,
		Objectives: obj,
		Plan:       plan,
		Seed:       3,
		Drift: deploy.DriftConfig{Window: 256, CheckEvery: 64, MinSamples: 128,
			Threshold: 0.001, Cooldown: 1 << 30},
		Reopt: deploy.ReoptConfig{Options: coverage.Options{MaxIters: 200, Seed: 21}},
	})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}

	for i := 0; i < 50 && v.DriftTriggers == 0; i++ {
		v, err = rt.Advance(v.ID, 64)
		if err != nil {
			t.Fatalf("Advance: %v", err)
		}
	}
	if v.DriftTriggers == 0 {
		t.Fatalf("fleet drift never triggered; last report: %+v", v.Drift)
	}
	jobID := v.ReoptJob
	if jobID == "" {
		t.Fatal("trigger did not record a re-optimization job")
	}

	// The checkpointed job spec must be a fleet job warm-started from the
	// per-sensor window estimates.
	blob, err := os.ReadFile(filepath.Join(jobsDir, jobID+".job.json"))
	if err != nil {
		t.Fatalf("read job checkpoint: %v", err)
	}
	var env struct {
		Job struct {
			Sensors int              `json:"sensors"`
			Options coverage.Options `json:"options"`
		} `json:"job"`
	}
	if err := json.Unmarshal(blob, &env); err != nil {
		t.Fatalf("decode job checkpoint: %v", err)
	}
	if env.Job.Sensors != 2 {
		t.Fatalf("re-optimization sensors = %d, want 2", env.Job.Sensors)
	}
	if len(env.Job.Options.InitialMatrices) != 2 {
		t.Fatalf("joint re-optimization not warm-started: %d initial matrices",
			len(env.Job.Options.InitialMatrices))
	}

	waitForJob(t, mgr, jobID)
	v, err = rt.Advance(v.ID, 1)
	if err != nil {
		t.Fatalf("Advance: %v", err)
	}
	if len(v.Swaps) != 1 || v.Swaps[0].JobID != jobID {
		t.Fatalf("swaps = %+v, want exactly one from %s", v.Swaps, jobID)
	}
	if v.ReoptJob != "" {
		t.Errorf("reopt job still pending after swap: %s", v.ReoptJob)
	}
	if v.LastError != "" {
		t.Errorf("swap left error: %s", v.LastError)
	}
}

// fleetLib is a fake plan library: it records publishes and serves one
// canned fleet plan as an exact hit for lookups of its fleet size.
type fleetLib struct {
	mu        sync.Mutex
	exact     *coverage.Plan
	published int
}

func (f *fleetLib) PublishPlan(_ coverage.Scenario, _ coverage.Objectives, _ *coverage.Plan, _ string) {
	f.mu.Lock()
	f.published++
	f.mu.Unlock()
}

func (f *fleetLib) WarmStart(_ coverage.Scenario, _ coverage.Objectives, sensors int, _ [][]float64) (*coverage.Plan, float64, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.exact == nil || f.exact.Fleet == nil || f.exact.Fleet.Sensors != sensors {
		return nil, 0, false
	}
	return f.exact, 0, true
}

// TestFleetDriftResolvesFromLibrary: a drifting fleet deployment whose
// library holds a cheaper exact joint plan swaps it in directly, with
// no job submitted.
func TestFleetDriftResolvesFromLibrary(t *testing.T) {
	scn, obj := lineScenario(t)
	plan := fleetPlan(t, scn, obj)

	better, err := coverage.OptimizeFleet(scn, obj, coverage.Options{MaxIters: 2500, Seed: 19}, 2, nil)
	if err != nil {
		t.Fatalf("OptimizeFleet better: %v", err)
	}
	if better.Cost >= plan.Cost {
		t.Skipf("longer run did not improve cost (%v >= %v)", better.Cost, plan.Cost)
	}

	lib := &fleetLib{exact: better}
	rt := newRuntime(t, deploy.Config{Plans: lib})
	v, err := rt.Create(deploy.Spec{
		Scenario:   scn,
		Objectives: obj,
		Plan:       plan,
		Seed:       9,
		Drift: deploy.DriftConfig{Window: 256, CheckEvery: 64, MinSamples: 128,
			Threshold: 0.001, Cooldown: 1 << 30},
	})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	for i := 0; i < 50 && len(v.Swaps) == 0; i++ {
		v, err = rt.Advance(v.ID, 64)
		if err != nil {
			t.Fatalf("Advance: %v", err)
		}
	}
	if len(v.Swaps) != 1 {
		t.Fatalf("library-backed fleet drift produced %d swaps, want 1", len(v.Swaps))
	}
	if v.Swaps[0].JobID != "" {
		t.Errorf("library swap carries job ID %q", v.Swaps[0].JobID)
	}
	if v.Swaps[0].NewCost != better.Cost {
		t.Errorf("swapped cost %v, want library plan's %v", v.Swaps[0].NewCost, better.Cost)
	}
	if v.PlanCost != better.Cost {
		t.Errorf("deployed cost %v after swap, want %v", v.PlanCost, better.Cost)
	}
}

// TestFleetCheckpointResume: a fleet deployment resumed mid-run must be
// bit-for-bit indistinguishable from an uninterrupted control — every
// sensor's random stream, the per-sensor windows, union statistics, and
// the incident process all survive the round trip.
func TestFleetCheckpointResume(t *testing.T) {
	scn, obj := lineScenario(t)
	plan := fleetPlan(t, scn, obj)
	spec := deploy.Spec{
		Scenario:      scn,
		Objectives:    obj,
		Plan:          plan,
		Seed:          8,
		Drift:         deploy.DriftConfig{Window: 256, CheckEvery: 64, Threshold: -1},
		IncidentRates: []float64{0.02},
	}

	control := newRuntime(t, deploy.Config{})
	cv, err := control.Create(spec)
	if err != nil {
		t.Fatalf("Create control: %v", err)
	}
	cv, err = control.Advance(cv.ID, 1000)
	if err != nil {
		t.Fatalf("Advance control: %v", err)
	}

	dir := t.TempDir()
	rt1, err := deploy.New(deploy.Config{Dir: dir})
	if err != nil {
		t.Fatalf("deploy.New: %v", err)
	}
	rv, err := rt1.Create(spec)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if _, err := rt1.Advance(rv.ID, 500); err != nil {
		t.Fatalf("Advance: %v", err)
	}
	rt1.Shutdown()

	rt2 := newRuntime(t, deploy.Config{Dir: dir})
	mid, err := rt2.Get(rv.ID)
	if err != nil {
		t.Fatalf("Get after restart: %v", err)
	}
	if mid.State != deploy.StateActive || mid.Step != 501 || mid.Sensors != 2 {
		t.Fatalf("resumed fleet: state %s step %d sensors %d, want active / 501 / 2",
			mid.State, mid.Step, mid.Sensors)
	}
	rv, err = rt2.Advance(rv.ID, 500)
	if err != nil {
		t.Fatalf("Advance after restart: %v", err)
	}

	if got, want := canonView(t, rv), canonView(t, cv); got != want {
		t.Errorf("resumed fleet run diverged from uninterrupted control:\nresumed: %s\ncontrol: %s", got, want)
	}
}
