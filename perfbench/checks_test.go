package main

import (
	"encoding/json"
	"math"
	"testing"

	"repro/coverage"
)

// testProblem is a small line problem with a valid plan: its floored
// Metropolis baseline, evaluated.
func testProblem(t *testing.T) (*problem, *coverage.Plan) {
	t.Helper()
	scn, err := coverage.LineScenario("checks", 4, []float64{0.1, 0.2, 0.3, 0.4})
	if err != nil {
		t.Fatal(err)
	}
	p := &problem{name: "checks", scn: scn, obj: coverage.Objectives{Alpha: 1, Beta: 1e-3}, restarts: 1}
	if err := p.withBaseline(); err != nil {
		t.Fatal(err)
	}
	plan, err := coverage.EvaluateMatrix(p.scn, p.obj, p.baseline)
	if err != nil {
		t.Fatal(err)
	}
	return p, plan
}

// corrupt returns a deep copy of plan with mutate applied.
func corrupt(plan *coverage.Plan, mutate func(*coverage.Plan)) *coverage.Plan {
	c := *plan
	c.TransitionMatrix = make([][]float64, len(plan.TransitionMatrix))
	for i, row := range plan.TransitionMatrix {
		c.TransitionMatrix[i] = append([]float64(nil), row...)
	}
	mutate(&c)
	return &c
}

// counted runs one check through the same accounting the workloads use
// and reports whether it was counted as a failed operation.
func counted(t *testing.T, err error) bool {
	t.Helper()
	r := &run{}
	r.op("self-test", err)
	if r.attempted != 1 {
		t.Fatalf("attempted = %d, want 1", r.attempted)
	}
	return r.failed == 1
}

func TestCheckPlanCountsCorruptPlans(t *testing.T) {
	p, plan := testProblem(t)
	if counted(t, checkPlan(p, plan)) {
		t.Fatalf("valid plan counted as failed: %v", checkPlan(p, plan))
	}
	for name, mutate := range map[string]func(*coverage.Plan){
		"row not stochastic": func(c *coverage.Plan) { c.TransitionMatrix[1][2] += 0.1 },
		"negative entry": func(c *coverage.Plan) {
			c.TransitionMatrix[0][0] -= 0.2
			c.TransitionMatrix[0][1] += 0.2
		},
		"cost not finite":      func(c *coverage.Plan) { c.Cost = math.NaN() },
		"cost of another plan": func(c *coverage.Plan) { c.Cost *= 1.01 },
		"matrix of another M":  func(c *coverage.Plan) { c.TransitionMatrix = c.TransitionMatrix[:3] },
		"matrix swapped rows": func(c *coverage.Plan) {
			c.TransitionMatrix[0], c.TransitionMatrix[3] = c.TransitionMatrix[3], c.TransitionMatrix[0]
		},
		"missing transition row": func(c *coverage.Plan) { c.TransitionMatrix[2] = nil },
	} {
		if !counted(t, checkPlan(p, corrupt(plan, mutate))) {
			t.Errorf("%s: corrupted plan not counted as failed", name)
		}
	}

	fleet := *p
	fleet.sensors = 2
	if !counted(t, checkPlan(&fleet, plan)) {
		t.Error("fleet plan without K matrices not counted as failed")
	}
}

func TestCheckHitsCountsWrongAnswers(t *testing.T) {
	want := []coverage.Fingerprint{"fp-a", "fp-b"}
	answer := func(results ...queryResult) []byte {
		raw, err := json.Marshal(map[string]any{"results": results})
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	good := answer(queryResult{Status: "hit", Fingerprint: "fp-a"}, queryResult{Status: "hit", Fingerprint: "fp-b"})
	if counted(t, checkHits(good, want)) {
		t.Fatalf("correct answer counted as failed: %v", checkHits(good, want))
	}
	for name, raw := range map[string][]byte{
		"wrong fingerprint": answer(queryResult{Status: "hit", Fingerprint: "fp-a"}, queryResult{Status: "hit", Fingerprint: "fp-c"}),
		"not a hit":         answer(queryResult{Status: "hit", Fingerprint: "fp-a"}, queryResult{Status: "scheduled", Fingerprint: "fp-b"}),
		"missing result":    answer(queryResult{Status: "hit", Fingerprint: "fp-a"}),
		"not json":          []byte("<html>"),
	} {
		if !counted(t, checkHits(raw, want)) {
			t.Errorf("%s: answer not counted as failed", name)
		}
	}
}

func TestReplayFlagsAnotherModel(t *testing.T) {
	p, plan := testProblem(t)
	r := &run{}
	rp := &replay{r: r}
	if _, err := rp.problem(p, plan, 0); err != nil {
		t.Fatal(err)
	}
	if len(r.problems) != 0 {
		t.Fatalf("rebuilt model flagged on a plan of its own problem: %v", r.problems)
	}
	if _, err := rp.problem(p, corrupt(plan, func(c *coverage.Plan) { c.Cost *= 1.01 }), 0); err != nil {
		t.Fatal(err)
	}
	if len(r.problems) != 1 {
		t.Fatalf("plan cost the rebuilt model does not give: %d problems, want 1", len(r.problems))
	}
}

func TestIterStatsCountsSkippedIterations(t *testing.T) {
	var st iterStats
	// Restart 0 skips iterations 3 and 4; restart 1 skips its first.
	for _, ev := range []coverage.IterationEvent{
		{Restart: 0, Iteration: 1, Probes: 2, Accepted: true},
		{Restart: 0, Iteration: 2, Probes: 2},
		{Restart: 0, Iteration: 5, Probes: 2, Accepted: true},
		{Restart: 1, Iteration: 2, Probes: 2},
		{Restart: 1, Iteration: 3, Probes: 2, Accepted: true},
	} {
		st.addEvent(ev)
	}
	if st.iters != 8 || st.events != 5 || st.probes != 10 || st.accepted != 3 {
		t.Fatalf("iters %d events %d probes %d accepted %d, want 8 5 10 3", st.iters, st.events, st.probes, st.accepted)
	}
}
