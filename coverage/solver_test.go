package coverage_test

import (
	"bytes"
	"context"
	"testing"
	"time"

	"repro/coverage"
	"repro/internal/jobs"
	"repro/internal/plans"
)

// TestOptimizeSolverKnob: there is one linear-algebra backend, the dense
// LU. Options.Solver "" and "sparse" select it like "dense" does, so each
// entry point persists byte-identical plans under all three; any other
// name is an error; and a job whose spec asks for "sparse" is recorded
// in the plan library as solved by "dense".
func TestOptimizeSolverKnob(t *testing.T) {
	scn, err := coverage.PaperTopology(2)
	if err != nil {
		t.Fatal(err)
	}
	obj := coverage.Objectives{Alpha: 1, Beta: 1}
	for _, entry := range []struct {
		name string
		run  func(coverage.Options) (*coverage.Plan, error)
	}{
		{"Optimize", func(o coverage.Options) (*coverage.Plan, error) {
			return coverage.Optimize(scn, obj, o)
		}},
		{"OptimizeFleet/K2", func(o coverage.Options) (*coverage.Plan, error) {
			return coverage.OptimizeFleet(scn, obj, o, 2, nil)
		}},
		{"OptimizeBest/W2", func(o coverage.Options) (*coverage.Plan, error) {
			o.Workers = 2
			return coverage.OptimizeBest(scn, obj, o, 3)
		}},
	} {
		t.Run(entry.name, func(t *testing.T) {
			var want []byte
			for _, solver := range []string{"dense", "", "sparse"} {
				plan, err := entry.run(coverage.Options{MaxIters: 60, Seed: 5, Solver: solver})
				if err != nil {
					t.Fatalf("solver %q: %v", solver, err)
				}
				var buf bytes.Buffer
				if err := coverage.WritePlan(&buf, plan); err != nil {
					t.Fatalf("solver %q: WritePlan: %v", solver, err)
				}
				if want == nil {
					want = buf.Bytes()
				} else if !bytes.Equal(buf.Bytes(), want) {
					t.Errorf("solver %q: plan differs from the dense plan", solver)
				}
			}
			if _, err := entry.run(coverage.Options{MaxIters: 5, Solver: "cholesky"}); err == nil {
				t.Error("unknown solver accepted")
			}
		})
	}

	t.Run("job-provenance", func(t *testing.T) {
		lib, err := plans.New(plans.Config{})
		if err != nil {
			t.Fatal(err)
		}
		svc, err := plans.NewService(plans.ServiceConfig{Library: lib})
		if err != nil {
			t.Fatal(err)
		}
		mgr, err := jobs.New(jobs.Config{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := mgr.Shutdown(ctx); err != nil {
				t.Errorf("Shutdown: %v", err)
			}
		}()
		mgr.SetDoneListener(svc.OnJobDone)
		opts := coverage.Options{MaxIters: 60, Seed: 5, Solver: "sparse"}
		if _, err := mgr.Submit(jobs.Spec{Scenario: scn, Objectives: obj, Options: opts, Restarts: 1}); err != nil {
			t.Fatal(err)
		}
		fp, err := coverage.ScenarioFingerprint(scn, obj)
		if err != nil {
			t.Fatal(err)
		}
		var e *plans.Entry
		for deadline := time.Now().Add(60 * time.Second); e == nil; {
			if time.Now().After(deadline) {
				t.Fatal("the job's plan never reached the library")
			}
			time.Sleep(10 * time.Millisecond)
			e, _ = lib.Lookup(fp)
		}
		if e.Provenance.Solver != "dense" {
			t.Errorf("provenance solver %q, want \"dense\"", e.Provenance.Solver)
		}
		opts.Solver = "dense"
		want, err := coverage.OptimizeBest(scn, obj, opts, 1)
		if err != nil {
			t.Fatal(err)
		}
		var got, wantBuf bytes.Buffer
		if err := coverage.WritePlan(&got, e.Plan); err != nil {
			t.Fatal(err)
		}
		if err := coverage.WritePlan(&wantBuf, want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), wantBuf.Bytes()) {
			t.Error("the library's plan differs from the dense OptimizeBest plan")
		}
	})
}
