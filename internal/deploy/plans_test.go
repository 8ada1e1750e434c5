package deploy_test

import (
	"context"
	"testing"

	"repro/coverage"
	"repro/internal/deploy"
	"repro/internal/jobs"
	"repro/internal/plans"
)

// newLibrary builds an empty in-memory plan library.
func newLibrary(t *testing.T) *plans.Library {
	t.Helper()
	lib, err := plans.New(plans.Config{})
	if err != nil {
		t.Fatalf("plans.New: %v", err)
	}
	return lib
}

// weakPlan is a barely-optimized plan for the shared scenario: valid,
// honest about its (high) cost — the deployment the library should be
// able to rescue without a job.
func weakPlan(t *testing.T, scn coverage.Scenario, obj coverage.Objectives) *coverage.Plan {
	t.Helper()
	plan, err := coverage.Optimize(scn, obj, coverage.Options{MaxIters: 2, Seed: 11})
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	return plan
}

// TestDriftSwapsFromPlanLibrary: when the library already holds the
// drifting deployment's exact problem at a lower cost, the trigger
// swaps the cached plan in directly — no re-optimization job is ever
// submitted.
func TestDriftSwapsFromPlanLibrary(t *testing.T) {
	scn, obj := lineScenario(t)
	good := optimizedPlan(t, scn, obj)
	weak := weakPlan(t, scn, obj)
	if weak.Cost <= good.Cost {
		t.Fatalf("test premise broken: weak cost %v <= optimized %v", weak.Cost, good.Cost)
	}

	lib := newLibrary(t)
	if _, err := lib.Publish(scn, obj, good, plans.Provenance{Source: "manual"}); err != nil {
		t.Fatalf("Publish: %v", err)
	}

	mgr, err := jobs.New(jobs.Config{Workers: 1})
	if err != nil {
		t.Fatalf("jobs.New: %v", err)
	}
	defer mgr.Shutdown(context.Background())

	rt := newRuntime(t, deploy.Config{Jobs: mgr, Plans: lib})
	v, err := rt.Create(deploy.Spec{
		Scenario:   scn,
		Objectives: obj,
		Plan:       weak,
		Seed:       3,
		Drift:      deploy.DriftConfig{Window: 256, CheckEvery: 64, MinSamples: 128, Threshold: 0.2},
	})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}

	src, err := coverage.NewExecutor(biasedPlan(), 0, 77)
	if err != nil {
		t.Fatalf("NewExecutor: %v", err)
	}
	for i := 0; i < 50 && v.DriftTriggers == 0; i++ {
		v, err = rt.Observe(v.ID, src.Walk(64))
		if err != nil {
			t.Fatalf("Observe: %v", err)
		}
	}
	if v.DriftTriggers == 0 {
		t.Fatalf("drift never triggered; last report: %+v", v.Drift)
	}
	if len(v.Swaps) != 1 {
		t.Fatalf("got %d swaps, want 1 (library hit swaps inline)", len(v.Swaps))
	}
	if v.Swaps[0].JobID != "" {
		t.Errorf("library swap recorded job %q, want none", v.Swaps[0].JobID)
	}
	if v.Swaps[0].NewCost != good.Cost {
		t.Errorf("swapped-in cost %v, want cached %v", v.Swaps[0].NewCost, good.Cost)
	}
	if v.PlanCost != good.Cost {
		t.Errorf("deployed cost %v, want %v", v.PlanCost, good.Cost)
	}
	if v.ReoptJob != "" {
		t.Errorf("a re-optimization job %s is pending despite the cache hit", v.ReoptJob)
	}
	if jobsList := mgr.List(); len(jobsList) != 0 {
		t.Errorf("%d jobs submitted despite the cache hit", len(jobsList))
	}
}

// TestReoptSwapPublishesToLibrary: the closed re-optimization loop
// feeds its result back — after the hot-swap, the library serves the
// deployment's problem with "deploy" provenance carrying the job ID.
func TestReoptSwapPublishesToLibrary(t *testing.T) {
	scn, obj := lineScenario(t)
	plan := optimizedPlan(t, scn, obj)
	lib := newLibrary(t)

	mgr, err := jobs.New(jobs.Config{Workers: 1})
	if err != nil {
		t.Fatalf("jobs.New: %v", err)
	}
	defer mgr.Shutdown(context.Background())

	rt := newRuntime(t, deploy.Config{Jobs: mgr, Plans: lib})
	v, err := rt.Create(deploy.Spec{
		Scenario:   scn,
		Objectives: obj,
		Plan:       plan,
		Seed:       3,
		Drift:      deploy.DriftConfig{Window: 256, CheckEvery: 64, MinSamples: 128, Threshold: 0.2},
		Reopt:      deploy.ReoptConfig{Options: coverage.Options{MaxIters: 800, Seed: 21}},
	})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}

	src, err := coverage.NewExecutor(biasedPlan(), 0, 77)
	if err != nil {
		t.Fatalf("NewExecutor: %v", err)
	}
	for i := 0; i < 50 && v.DriftTriggers == 0; i++ {
		v, err = rt.Observe(v.ID, src.Walk(64))
		if err != nil {
			t.Fatalf("Observe: %v", err)
		}
	}
	if v.ReoptJob == "" {
		t.Fatalf("drift did not submit a job (empty library must not short-circuit): %+v", v.Drift)
	}
	jobID := v.ReoptJob
	waitForJob(t, mgr, jobID)

	v, err = rt.Advance(v.ID, 1)
	if err != nil {
		t.Fatalf("Advance: %v", err)
	}
	if len(v.Swaps) != 1 || v.Swaps[0].JobID != jobID {
		t.Fatalf("swaps = %+v, want one swap from job %s", v.Swaps, jobID)
	}

	// The swapped plan is now cached for everyone.
	swapped, dist, ok := lib.WarmStart(scn, obj, 1, nil)
	if !ok || dist != 0 {
		t.Fatalf("library has no exact entry after swap (ok %v, dist %v)", ok, dist)
	}
	if swapped.Cost != v.PlanCost {
		t.Errorf("cached cost %v != deployed cost %v", swapped.Cost, v.PlanCost)
	}
	fp, err := coverage.ScenarioFingerprint(scn, obj)
	if err != nil {
		t.Fatal(err)
	}
	e, err := lib.Get(string(fp))
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if e.Provenance.Source != "deploy" || e.Provenance.JobID != jobID {
		t.Errorf("provenance = %+v, want deploy/%s", e.Provenance, jobID)
	}
}
