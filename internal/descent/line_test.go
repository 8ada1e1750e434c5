package descent

import (
	"hash/fnv"
	"math"
	"strings"
	"testing"

	"repro/internal/cost"
	"repro/internal/fleet"
	"repro/internal/mat"
	"repro/internal/rng"
	"repro/internal/topology"
)

// probeUTol bounds the relative disagreement of a line-search probe's U
// with a direct evaluation of the same stack (see the oracle in
// internal/cost, which pins π and U along the line per fixture).
const probeUTol = 1e-8

// TestProbesMatchEvaluate walks the line search's geometric grid and
// checks that every probe's U — π from the search lines — matches a
// direct State.Evaluate of the same stack in a fresh state, for one
// sensor and for a K = 2 fleet, and that the serial line search's chosen
// cost is one of those probes.
func TestProbesMatchEvaluate(t *testing.T) {
	one, two := searchObjectives(t)
	t.Run("single", func(t *testing.T) { probesMatchEvaluate(t, one) })
	t.Run("fleet-k2", func(t *testing.T) { probesMatchEvaluate(t, two) })
}

func probesMatchEvaluate[S State[E], E any](t *testing.T, obj Objective[S]) {
	opt, err := NewOptimizer(obj, Options{Variant: Adaptive, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	p, dir, curU := searchInputs(t, opt)
	step, u, ok := searchAt(opt, p, dir, curU)
	if !ok || step <= 0 {
		t.Fatalf("line search found no step (%v, %v)", step, ok)
	}
	ref := obj.NewState()
	cand := newStack(opt.k, opt.m)
	check := func(delta, got float64) {
		t.Helper()
		if err := stepTo(cand, p, dir, delta); err != nil {
			t.Fatal(err)
		}
		want, err := ref.Evaluate(cand)
		if err != nil {
			t.Fatalf("δ=%g: direct evaluation: %v", delta, err)
		}
		if d := math.Abs(got-want) / math.Abs(want); d > probeUTol {
			t.Errorf("δ=%g: probe U %v, direct %v (relative %.2g)", delta, got, want, d)
		}
	}
	check(step, u)
	bound := maxFeasibleStep(p, dir, opt.opts.MinProb)
	for k, delta := 0, bound; k < 20; k, delta = k+1, delta/lsShrink {
		check(delta, opt.phi(delta))
	}
}

// TestLineSearchRepeats checks that a line search only reads its lines
// and its inputs: searching again after the state holds the first
// search's last probe returns bit for bit the same step, cost and flag.
func TestLineSearchRepeats(t *testing.T) {
	opt, ps, dir, curU := lineSearchFixture(t)
	s1, u1, ok1 := searchAt(opt, ps, dir, curU)
	s2, u2, ok2 := searchAt(opt, ps, dir, curU)
	if math.Float64bits(s1) != math.Float64bits(s2) ||
		math.Float64bits(u1) != math.Float64bits(u2) || ok1 != ok2 {
		t.Errorf("first search (%v, %v, %v) != repeated search (%v, %v, %v)", s1, u1, ok1, s2, u2, ok2)
	}
}

// TestAdaptiveStopsAtOptimumM64 runs V2+V3 on a 64-PoI field with the
// §VII energy and entropy terms until a line search finds no improving
// step. Every accepted step must lower the directly evaluated U
// strictly, and the run must end on the paper's Δt* = 0 criterion — a
// zero-step record after a search that probed — rather than on the
// stall counter or the iteration cap. The noisy-probe case reads the
// first probe of every search a rounding-sized 1e-12 below the iterate's
// cost when it does not improve, the way a line probe can near a
// stationary point: the search then picks a step no direct evaluation
// confirms, and V3 must stop there instead of taking it.
func TestAdaptiveStopsAtOptimumM64(t *testing.T) {
	model := fieldModel64(t)
	for name, obj := range map[string]Objective[*lowFirstProbeState]{
		"line":        lowFirstProbe{oneSensor(t, model), 0},
		"noisy-probe": lowFirstProbe{oneSensor(t, model), 1e-12},
	} {
		t.Run(name, func(t *testing.T) {
			res := runAdaptive(t, obj)
			if res.Iters < 2 {
				t.Errorf("stopped after %d iterations, want a descent before the stop", res.Iters)
			}
		})
	}
}

// fieldModel64 is the 64-PoI random-geometric field with exposure
// weight 0.01 and testModel16's energy and entropy terms.
func fieldModel64(t *testing.T) *cost.Model {
	t.Helper()
	const m = 64
	top, err := topology.Random(rng.New(m), topology.RandomConfig{
		M: m, Width: 40 * m, Height: 40 * m,
	})
	if err != nil {
		t.Fatal(err)
	}
	w := cost.Uniform(m, 1, 0.01)
	w.EnergyWeight = 0.5
	w.EnergyTarget = 0.3
	w.EntropyWeight = 0.05
	model, err := cost.NewModel(top, w)
	if err != nil {
		t.Fatal(err)
	}
	return model
}

// runAdaptive runs V2+V3 on obj and checks that it stops at Δt* = 0
// with a strictly decreasing U over its accepted steps.
func runAdaptive[S State[*fleet.Evaluation]](t *testing.T, obj Objective[S]) *Result[*fleet.Evaluation] {
	t.Helper()
	const maxIters = 100
	opt, err := NewOptimizer(obj, Options{Variant: Adaptive, MaxIters: maxIters, Seed: 1, RecordTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := opt.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || !res.LocalOptimum || res.Iters >= maxIters {
		t.Fatalf("run did not stop at a local optimum: converged %v, local %v, %d iterations",
			res.Converged, res.LocalOptimum, res.Iters)
	}
	last := res.Trace[len(res.Trace)-1]
	if last.Step != 0 || last.Accepted || last.Probes == 0 {
		t.Errorf("last iteration took step %v (accepted %v) after %d probes, want Δt* = 0 from a search",
			last.Step, last.Accepted, last.Probes)
	}
	prev := math.Inf(1)
	for _, rec := range res.Trace {
		if rec.Accepted && !(rec.U < prev) {
			t.Errorf("iteration %d accepted U %v after %v", rec.Iter, rec.U, prev)
		}
		prev = rec.U
	}
	return res
}

// oneSensor returns model's cost as the K = 1 fleet objective.
func oneSensor(t *testing.T, model *cost.Model) *fleet.Model {
	t.Helper()
	fm, err := fleet.NewModel(model, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	return fm
}

// lowFirstProbe is the K = 1 objective whose states read the first
// probe of every line search bias (relative) below the iterate's cost
// whenever that probe does not read lower already.
type lowFirstProbe struct {
	*fleet.Model
	bias float64
}

func (o lowFirstProbe) NewState() *lowFirstProbeState {
	return &lowFirstProbeState{State: o.Model.NewState(), bias: o.bias}
}

type lowFirstProbeState struct {
	*fleet.State
	bias  float64
	last  float64 // U of the last evaluation or probe, as the state read it
	base  float64 // the iterate's U, read when the lines are built
	fresh bool    // no probe has run on the current lines yet
}

func (s *lowFirstProbeState) Evaluate(ps []*mat.Matrix) (float64, error) {
	u, err := s.State.Evaluate(ps)
	s.last = u
	return u, err
}

func (s *lowFirstProbeState) Line(dir []*mat.Matrix) error {
	s.base, s.fresh = s.last, true
	return s.State.Line(dir)
}

func (s *lowFirstProbeState) Probe(delta float64) (float64, error) {
	u, err := s.State.Probe(delta)
	s.last = u
	if err == nil && s.fresh {
		u = math.Min(u, s.base-s.bias*math.Abs(s.base))
	}
	s.fresh = false
	return u, err
}

// countingObjective is the K = 1 objective whose state logs every call
// the optimizer makes, one letter per call: E evaluate, G gradient,
// L line, P probe.
type countingObjective struct {
	*fleet.Model
	log []byte
}

func (o *countingObjective) NewState() *countingState {
	return &countingState{State: o.Model.NewState(), log: &o.log}
}

type countingState struct {
	*fleet.State
	log *[]byte
}

func (s *countingState) Evaluate(ps []*mat.Matrix) (float64, error) {
	*s.log = append(*s.log, 'E')
	return s.State.Evaluate(ps)
}

func (s *countingState) Gradient(dst []*mat.Matrix) error {
	*s.log = append(*s.log, 'G')
	return s.State.Gradient(dst)
}

func (s *countingState) Line(dir []*mat.Matrix) error {
	*s.log = append(*s.log, 'L')
	return s.State.Line(dir)
}

func (s *countingState) Probe(delta float64) (float64, error) {
	*s.log = append(*s.log, 'P')
	return s.State.Probe(delta)
}

// TestStalledIterationSkipsLine runs V4 on a 16-PoI field with β = 1,
// where 14 of 80 iterations sit on the MinProb face with no feasible
// step. Such an iteration must build no search line, run no probe and
// leave the state at the iterate, so the next iteration's gradient
// needs no re-evaluation: its calls are the gradient alone. A searching
// iteration builds one line, probes, evaluates its candidate and, when
// the candidate is rejected, re-evaluates the iterate before the next
// gradient. The trace and best U are pinned to the bits the run gave
// when every stalled iteration still built a line and re-evaluated.
func TestStalledIterationSkipsLine(t *testing.T) {
	const m = 16
	top, err := topology.Random(rng.New(m), topology.RandomConfig{M: m, Width: 40 * m, Height: 40 * m})
	if err != nil {
		t.Fatal(err)
	}
	model, err := cost.NewModel(top, cost.Uniform(m, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	obj := &countingObjective{Model: oneSensor(t, model)}
	opt, err := NewOptimizer(obj, Options{Variant: Perturbed, MaxIters: 80, Seed: 1, RecordTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := opt.Run()
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write([]byte(traceKey(t, res)))
	if got, want := h.Sum64(), uint64(0xeaf39e4d170db5ec); got != want {
		t.Errorf("trace key hash = %#x, want %#x", got, want)
	}
	if got, want := math.Float64bits(res.Eval.U), uint64(0x40c415a7886eaa04); got != want {
		t.Errorf("bestU bits = %#x, want %#x", got, want)
	}

	log := string(obj.log)
	if !strings.HasPrefix(log, "EG") {
		t.Fatalf("log %q does not start with the initial evaluation", log)
	}
	// One segment per iteration, from its gradient to the next one.
	iters := strings.Split(log[1:], "G")[1:]
	if len(iters) != res.Iters {
		t.Fatalf("%d gradients for %d iterations", len(iters), res.Iters)
	}
	stalled, searched := 0, 0
	for i, seg := range iters {
		if seg == "" {
			stalled++
			continue
		}
		if searched >= len(res.Trace) {
			t.Fatalf("iteration %d searched (%q) beyond the %d recorded iterations", i+1, seg, len(res.Trace))
		}
		rec := res.Trace[searched]
		searched++
		if rec.Iter != i+1 {
			t.Fatalf("iteration %d searched, but the next record is iteration %d", i+1, rec.Iter)
		}
		want := "L" + strings.Repeat("P", rec.Probes) + "E"
		if !rec.Accepted && i+1 < res.Iters {
			want += "E"
		}
		if seg != want {
			t.Errorf("iteration %d (accepted %v): calls %q, want %q", i+1, rec.Accepted, seg, want)
		}
	}
	if stalled == 0 || searched != len(res.Trace) {
		t.Fatalf("%d stalled and %d searching iterations for %d records, want some of each", stalled, searched, len(res.Trace))
	}
}
