package plans

import (
	"context"
	"strings"
	"testing"

	"repro/coverage"
)

// fakeFleetPlan extends fakePlan with a K-sensor fleet block; sensor 0
// carries the compatibility matrix.
func fakeFleetPlan(n, k int, cost float64) *coverage.Plan {
	p := fakePlan(n, cost)
	stack := make([][][]float64, k)
	for s := range stack {
		stack[s] = fakePlan(n, cost).TransitionMatrix
	}
	p.Fleet = &coverage.FleetPlan{Sensors: k, TransitionMatrices: stack}
	return p
}

// TestFleetPublishLookup: a fleet plan lands under the fleet
// fingerprint — disjoint from the single-sensor key for the same
// scenario — and records its fleet size on the entry.
func TestFleetPublishLookup(t *testing.T) {
	l := newLib(t, Config{})
	scn := lineScn(t, "fleet-pub", []float64{0.4, 0.1, 0.1, 0.4})

	fp, err := l.Publish(scn, testObj, fakeFleetPlan(4, 2, 3.5), Provenance{Source: "manual"})
	if err != nil {
		t.Fatalf("Publish fleet: %v", err)
	}
	wantFP, err := coverage.FleetFingerprint(scn, testObj, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if fp != wantFP {
		t.Errorf("fleet plan keyed as %s, want FleetFingerprint %s", fp, wantFP)
	}

	e, ok := l.Lookup(fp)
	if !ok {
		t.Fatal("fleet entry missed its own fingerprint")
	}
	if e.Sensors != 2 || e.Plan.Fleet == nil || e.Plan.Fleet.Sensors != 2 {
		t.Errorf("fleet entry = sensors %d, fleet %+v", e.Sensors, e.Plan.Fleet)
	}

	// The single-sensor key for the identical scenario stays empty.
	singleFP, err := coverage.ScenarioFingerprint(scn, testObj)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := l.Lookup(singleFP); ok {
		t.Error("fleet publish shadowed the single-sensor key")
	}

	// Both keys coexist.
	if _, err := l.Publish(scn, testObj, fakePlan(4, 2.0), Provenance{Source: "manual"}); err != nil {
		t.Fatalf("Publish single: %v", err)
	}
	if _, ok := l.Lookup(singleFP); !ok {
		t.Error("single-sensor publish missed after fleet publish")
	}
	if _, ok := l.Lookup(fp); !ok {
		t.Error("fleet entry evicted by single-sensor publish")
	}
}

// TestNearestSkipsFleet: fleet entries never answer single-sensor
// neighbor searches and vice versa; fleet candidates must match the
// query's fleet size exactly.
func TestNearestSkipsFleet(t *testing.T) {
	l := newLib(t, Config{})
	near := lineScn(t, "near", []float64{0.4, 0.1, 0.1, 0.4})
	query := lineScn(t, "query", []float64{0.38, 0.12, 0.1, 0.4})

	if _, err := l.Publish(near, testObj, fakeFleetPlan(4, 2, 1.0), Provenance{Source: "manual"}); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := l.Nearest(query, testObj, 1, nil); ok {
		t.Error("single-sensor Nearest returned a fleet entry")
	}
	if _, _, ok := l.Nearest(query, testObj, 3, nil); ok {
		t.Error("Nearest(K=3) returned a K=2 entry")
	}
	e, _, ok := l.Nearest(query, testObj, 2, nil)
	if !ok || e.Sensors != 2 {
		t.Fatalf("Nearest(K=2) = %+v, %v; want the fleet entry", e, ok)
	}

	// With a single-sensor entry alongside, each key space sees only its
	// own kind.
	if _, err := l.Publish(near, testObj, fakePlan(4, 1.0), Provenance{Source: "manual"}); err != nil {
		t.Fatal(err)
	}
	se, _, ok := l.Nearest(query, testObj, 1, nil)
	if !ok || se.Sensors != 0 {
		t.Fatalf("Nearest = %+v, %v; want the single entry", se, ok)
	}

	// WarmStart(K=2): exact fleet hit is distance 0; near fleet query
	// resolves to the neighbor.
	if p, dist, ok := l.WarmStart(near, testObj, 2, nil); !ok || dist != 0 || p.Fleet == nil {
		t.Errorf("WarmStart(K=2) exact = dist %v ok %v", dist, ok)
	}
	if p, dist, ok := l.WarmStart(query, testObj, 2, nil); !ok || dist <= 0 || p.Fleet == nil {
		t.Errorf("WarmStart(K=2) neighbor = dist %v ok %v", dist, ok)
	}
}

// TestFleetQueryLifecycle: miss → scheduled (spec carries the fleet
// shape) → pending → published fleet plan → hit, while the
// single-sensor query for the same scenario stays independent.
func TestFleetQueryLifecycle(t *testing.T) {
	fj := newFakeJobs()
	s := newSvc(t, newLib(t, Config{}), fj)
	ctx := context.Background()
	scn := lineScn(t, "fleet-cycle", []float64{0.4, 0.1, 0.1, 0.4})
	resp := [][]float64{{1, 1, 0.5, 0.5}, {0.5, 0.5, 1, 1}}
	q := Query{Scenario: scn, Objectives: testObj, Sensors: 2, Responsibility: resp}

	r1 := s.Query(ctx, q)
	if r1.Status != StatusScheduled || r1.JobID == "" {
		t.Fatalf("first fleet query = %+v, want scheduled", r1)
	}
	spec := fj.spec(r1.JobID)
	if spec.Sensors != 2 || len(spec.Responsibility) != 2 {
		t.Fatalf("spawned spec sensors=%d resp=%v, want fleet shape", spec.Sensors, spec.Responsibility)
	}
	if r2 := s.Query(ctx, q); r2.Status != StatusPending || r2.JobID != r1.JobID {
		t.Fatalf("second fleet query = %+v, want pending on %s", r2, r1.JobID)
	}

	// The single-sensor query is a distinct miss with its own job.
	sq := Query{Scenario: scn, Objectives: testObj}
	rs := s.Query(ctx, sq)
	if rs.Status != StatusScheduled || rs.JobID == r1.JobID {
		t.Fatalf("single query = %+v, want its own job", rs)
	}
	if rs.Fingerprint == r1.Fingerprint {
		t.Fatal("fleet and single queries share a fingerprint")
	}

	plan := fakeFleetPlan(4, 2, 1.25)
	plan.Fleet.Responsibility = resp
	fj.finish(s, r1.JobID, plan)
	r3 := s.Query(ctx, q)
	if r3.Status != StatusHit || r3.Plan == nil || r3.Plan.Fleet == nil {
		t.Fatalf("post-publish fleet query = %+v, want fleet hit", r3)
	}
}

// TestFleetQueryWarmStart: a fleet miss near a cached same-size fleet
// neighbor spawns a job seeded with the whole matrix stack.
func TestFleetQueryWarmStart(t *testing.T) {
	fj := newFakeJobs()
	lib := newLib(t, Config{})
	s := newSvc(t, lib, fj)
	ctx := context.Background()

	near := lineScn(t, "fleet-near", []float64{0.4, 0.1, 0.1, 0.4})
	if _, err := lib.Publish(near, testObj, fakeFleetPlan(4, 2, 1.0), Provenance{Source: "manual"}); err != nil {
		t.Fatal(err)
	}

	q := Query{
		Scenario:   lineScn(t, "fleet-query", []float64{0.38, 0.12, 0.1, 0.4}),
		Objectives: testObj,
		Sensors:    2,
	}
	r := s.Query(ctx, q)
	if r.Status != StatusScheduled || r.WarmStart == nil {
		t.Fatalf("fleet miss = %+v, want warm-started schedule", r)
	}
	spec := fj.spec(r.JobID)
	if len(spec.Options.InitialMatrices) != 2 {
		t.Fatalf("spawned job has %d initial matrices, want the neighbor's stack of 2",
			len(spec.Options.InitialMatrices))
	}
	if spec.Options.InitialMatrix != nil {
		t.Error("fleet warm start also set the single-sensor InitialMatrix")
	}
}

// TestFleetQueryValidation: malformed fleet queries resolve to errors
// without spawning anything.
func TestFleetQueryValidation(t *testing.T) {
	fj := newFakeJobs()
	s := newSvc(t, newLib(t, Config{}), fj)
	ctx := context.Background()
	scn := lineScn(t, "fleet-bad", []float64{0.5, 0.5})

	cases := []struct {
		name string
		q    Query
		want string
	}{
		{"negative sensors", Query{Scenario: scn, Objectives: testObj, Sensors: -1}, "negative sensors"},
		{"responsibility on single", Query{Scenario: scn, Objectives: testObj,
			Responsibility: [][]float64{{1, 1}}}, "single-sensor"},
		{"short responsibility", Query{Scenario: scn, Objectives: testObj, Sensors: 2,
			Responsibility: [][]float64{{1, 1}}}, "responsibility"},
	}
	for _, tc := range cases {
		r := s.Query(ctx, tc.q)
		if r.Status != StatusError || !strings.Contains(r.Error, tc.want) {
			t.Errorf("%s: %+v, want error containing %q", tc.name, r, tc.want)
		}
	}
	if fj.submissions() != 0 {
		t.Errorf("invalid queries spawned %d jobs", fj.submissions())
	}
}
