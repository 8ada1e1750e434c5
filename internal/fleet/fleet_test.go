package fleet

import (
	"errors"
	"math"
	"testing"

	"repro/internal/cost"
	"repro/internal/descent"
	"repro/internal/markov"
	"repro/internal/mat"
	"repro/internal/par"
	"repro/internal/rng"
	"repro/internal/topology"
)

// randomErgodicP mirrors the cost package's test helper: a random
// strictly positive stochastic matrix.
func randomErgodicP(src *rng.Source, m int) *mat.Matrix {
	p := mat.New(m, m)
	row := make([]float64, m)
	for i := 0; i < m; i++ {
		src.DirichletRow(row, 1)
		for j := range row {
			row[j] = 0.8*row[j] + 0.2/float64(m)
		}
		p.SetRow(i, row)
	}
	return p
}

// zeroRowSumDirection returns a random tangent direction.
func zeroRowSumDirection(src *rng.Source, n int) *mat.Matrix {
	v := mat.New(n, n)
	for i := 0; i < n; i++ {
		var sum float64
		for j := 0; j < n; j++ {
			x := src.Norm(0, 1)
			v.Set(i, j, x)
			sum += x
		}
		for j := 0; j < n; j++ {
			v.Add(i, j, -sum/float64(n))
		}
	}
	return v
}

func newCostModel(t *testing.T, top *topology.Topology) *cost.Model {
	t.Helper()
	cm, err := cost.NewModel(top, cost.Uniform(top.M(), 1, 1))
	if err != nil {
		t.Fatalf("cost.NewModel: %v", err)
	}
	return cm
}

func randomStack(src *rng.Source, k, m int) []*mat.Matrix {
	ps := make([]*mat.Matrix, k)
	for s := range ps {
		ps[s] = randomErgodicP(src, m)
	}
	return ps
}

func TestNewModelValidation(t *testing.T) {
	cm := newCostModel(t, topology.Topology2())
	m := cm.Topology().M()
	cases := []struct {
		name    string
		sensors int
		resp    [][]float64
	}{
		{"zero sensors", 0, nil},
		{"negative sensors", -1, nil},
		{"row count mismatch", 2, UniformResponsibility(3, m)},
		{"row length mismatch", 2, [][]float64{make([]float64, m), make([]float64, m+1)}},
		{"nan share", 2, func() [][]float64 {
			r := UniformResponsibility(2, m)
			r[0][0] = math.NaN()
			return r
		}()},
		{"negative share", 2, func() [][]float64 {
			r := UniformResponsibility(2, m)
			r[1][1] = -0.1
			return r
		}()},
		{"unclaimed poi", 2, func() [][]float64 {
			r := UniformResponsibility(2, m)
			r[0][0], r[1][0] = 0, 0
			return r
		}()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := NewModel(cm, tc.sensors, tc.resp); !errors.Is(err, ErrModel) {
				t.Errorf("err = %v, want ErrModel", err)
			}
		})
	}
}

// TestSingleSensorReduction pins the fleet cost's contract at K=1 with
// full responsibility: every term must agree with the single-sensor
// model. The coverage discrepancy is rebuilt from CoverTime − Φ·TotalTime
// rather than the at-table fold, so the comparison is to reassociation
// accuracy, not bit-exact.
func TestSingleSensorReduction(t *testing.T) {
	for _, top := range []*topology.Topology{topology.Topology2(), topology.Topology3()} {
		cm := newCostModel(t, top)
		fm, err := NewModel(cm, 1, nil)
		if err != nil {
			t.Fatalf("NewModel: %v", err)
		}
		src := rng.New(7)
		for trial := 0; trial < 5; trial++ {
			p := randomErgodicP(src, top.M())
			sev, err := cm.Evaluate(p)
			if err != nil {
				t.Fatalf("cost Evaluate: %v", err)
			}
			fev, err := fm.Evaluate([]*mat.Matrix{p})
			if err != nil {
				t.Fatalf("fleet Evaluate: %v", err)
			}
			rel := func(a, b float64) float64 {
				return math.Abs(a-b) / math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
			}
			if rel(fev.U, sev.U) > 1e-9 {
				t.Fatalf("trial %d: fleet U %v, single U %v", trial, fev.U, sev.U)
			}
			if rel(fev.DeltaC, sev.DeltaC) > 1e-9 {
				t.Fatalf("trial %d: fleet ΔC %v, single ΔC %v", trial, fev.DeltaC, sev.DeltaC)
			}
			// The exposure path shares the exact arithmetic, so it is
			// bit-identical.
			if fev.EBar != sev.EBar {
				t.Fatalf("trial %d: fleet Ē %v, single Ē %v", trial, fev.EBar, sev.EBar)
			}
			for i := 0; i < top.M(); i++ {
				if fev.MinExposure[i] != sev.EBarI[i] {
					t.Fatalf("trial %d: MinExposure[%d] = %v, want %v",
						trial, i, fev.MinExposure[i], sev.EBarI[i])
				}
				if fev.Owner[i] != 0 {
					t.Fatalf("trial %d: Owner[%d] = %d", trial, i, fev.Owner[i])
				}
			}
		}
	}
}

// TestGradientMatchesFiniteDifference validates the stacked joint
// gradient against central differences of the joint cost along random
// tangent directions — per sensor block and for the whole stack.
func TestGradientMatchesFiniteDifference(t *testing.T) {
	tops := map[string]*topology.Topology{
		"topology2": topology.Topology2(),
		"topology3": topology.Topology3(),
	}
	resps := map[string]func(k, m int) [][]float64{
		"uniform": func(k, m int) [][]float64 { return nil },
		"skewed": func(k, m int) [][]float64 {
			r := UniformResponsibility(k, m)
			for i := 0; i < m; i++ {
				r[0][i] = 0.25
				r[k-1][i] = 1.75 - 0.5*float64(k)*0.25 // keep column sums positive
			}
			return r
		},
	}
	for topName, top := range tops {
		for respName, mkResp := range resps {
			for _, k := range []int{2, 3} {
				name := topName + "/" + respName + "/k" + string(rune('0'+k))
				t.Run(name, func(t *testing.T) {
					cm := newCostModel(t, top)
					fm, err := NewModel(cm, k, mkResp(k, top.M()))
					if err != nil {
						t.Fatalf("NewModel: %v", err)
					}
					src := rng.New(uint64(len(topName)*1000 + len(respName)*10 + k))
					const h = 1e-6
					m := top.M()
					for trial := 0; trial < 6; trial++ {
						ps := randomStack(src, k, m)
						ev, grads, err := fm.Gradient(ps)
						if err != nil {
							t.Fatalf("Gradient: %v", err)
						}
						// The min-over-sensors exposure is non-smooth where two
						// sensors tie; random stacks never land exactly on a
						// tie, but a near-tie makes the finite difference cross
						// the kink. Skip those trials.
						if nearTie(fm, ps, 1e-3) {
							continue
						}
						vs := make([]*mat.Matrix, k)
						var analytic float64
						for s := 0; s < k; s++ {
							v := zeroRowSumDirection(src, m)
							mat.ScaleInPlace(0.01/(mat.MaxAbs(v)+1e-12), v)
							vs[s] = v
							d, err := cost.DirectionalDerivative(grads[s], v)
							if err != nil {
								t.Fatalf("DirectionalDerivative: %v", err)
							}
							analytic += d
						}
						up := make([]*mat.Matrix, k)
						dn := make([]*mat.Matrix, k)
						for s := 0; s < k; s++ {
							up[s] = ps[s].Clone()
							dn[s] = ps[s].Clone()
							if err := mat.AddInPlace(up[s], h, vs[s]); err != nil {
								t.Fatal(err)
							}
							if err := mat.AddInPlace(dn[s], -h, vs[s]); err != nil {
								t.Fatal(err)
							}
						}
						evUp, err := fm.Evaluate(up)
						if err != nil {
							t.Fatalf("Evaluate(+h): %v", err)
						}
						evDn, err := fm.Evaluate(dn)
						if err != nil {
							t.Fatalf("Evaluate(-h): %v", err)
						}
						fd := (evUp.U - evDn.U) / (2 * h)
						scale := 1 + math.Abs(fd)
						if math.Abs(analytic-fd) > 2e-4*scale {
							t.Fatalf("trial %d: analytic %v, FD %v (rel err %v, U %v)",
								trial, analytic, fd, math.Abs(analytic-fd)/scale, ev.U)
						}
					}
				})
			}
		}
	}
}

// nearTie reports whether any PoI's two smallest per-sensor exposures
// are within relTol of each other — points where the min's kink breaks
// finite differencing.
func nearTie(fm *Model, ps []*mat.Matrix, relTol float64) bool {
	k := len(ps)
	if k < 2 {
		return false
	}
	ebars := make([][]float64, k)
	for s := 0; s < k; s++ {
		ev, err := fm.Cost().Evaluate(ps[s])
		if err != nil {
			return true
		}
		ebars[s] = append([]float64(nil), ev.EBarI...)
	}
	m := ps[0].Rows()
	for i := 0; i < m; i++ {
		best, second := math.Inf(1), math.Inf(1)
		for s := 0; s < k; s++ {
			e := ebars[s][i]
			if e < best {
				best, second = e, best
			} else if e < second {
				second = e
			}
		}
		if second-best < relTol*math.Max(1, best) {
			return true
		}
	}
	return false
}

// optimize runs the joint perturbed descent over a fleet of cm with
// uniform responsibility.
func optimize(t *testing.T, cm *cost.Model, sensors int, opts descent.Options) *descent.Result[*Evaluation] {
	t.Helper()
	fm, err := NewModel(cm, sensors, nil)
	if err != nil {
		t.Fatalf("NewModel: %v", err)
	}
	return run(t, fm, opts)
}

// run runs the perturbed descent over a fleet objective.
func run(t *testing.T, obj descent.Objective[*State], opts descent.Options) *descent.Result[*Evaluation] {
	t.Helper()
	opts.Variant = descent.Perturbed
	o, err := descent.NewOptimizer(obj, opts)
	if err != nil {
		t.Fatalf("descent.NewOptimizer: %v", err)
	}
	res, err := o.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

// poolSpy is a fleet objective that remembers the iteration pool the
// optimizer hands its states, so tests can see whether it fanned out.
type poolSpy struct {
	*Model
	pool *par.Pool
}

func (s *poolSpy) NewState(solver markov.Method, pool *par.Pool) *State {
	if pool != nil {
		s.pool = pool
	}
	return s.Model.NewState(solver, pool)
}

// sameTrace compares two traces record by record; Probes only when
// withProbes is set, since the batched line search of a pooled
// iteration may evaluate probes past the serial cutoff.
func sameTrace(t *testing.T, a, b []descent.IterRecord, label string, withProbes bool) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: trace lengths %d vs %d", label, len(a), len(b))
	}
	for i := range a {
		ra, rb := a[i], b[i]
		if !withProbes {
			ra.Probes, rb.Probes = 0, 0
		}
		if ra != rb {
			t.Fatalf("%s: trace[%d] differs:\n  %+v\n  %+v", label, i, ra, rb)
		}
	}
}

func sameStack(t *testing.T, a, b []*mat.Matrix, label string) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: stack sizes %d vs %d", label, len(a), len(b))
	}
	for s := range a {
		da, db := a[s].Data(), b[s].Data()
		for i := range da {
			if da[i] != db[i] {
				t.Fatalf("%s: sensor %d entry %d: %v vs %v", label, s, i, da[i], db[i])
			}
		}
	}
}

func TestOptimizeDeterministic(t *testing.T) {
	cm := newCostModel(t, topology.Topology3())
	opts := descent.Options{
		Seed:        42,
		MaxIters:    30,
		StallIters:  1000,
		RecordTrace: true,
		Workers:     1,
	}
	a, b := optimize(t, cm, 2, opts), optimize(t, cm, 2, opts)
	sameTrace(t, a.Trace, b.Trace, "repeat run", true)
	sameStack(t, a.Ps, b.Ps, "repeat run")
	if a.Eval.U != b.Eval.U {
		t.Fatalf("best U %v vs %v", a.Eval.U, b.Eval.U)
	}
}

// TestOptimizeWorkersBitIdentical is the fleet golden-trace discipline:
// the joint descent must produce bit-identical traces and matrices for
// every Workers count, because parallelism only moves line-search probes
// to worker-private states and row-partitions the gradient assembly. The
// field has 24 PoIs, the smallest M at which descent.NewIterationPool
// lets an iteration fan out, so the multi-worker runs really take the
// pooled path.
func TestOptimizeWorkersBitIdentical(t *testing.T) {
	cm := field24(t)
	base := descent.Options{
		Seed:        99,
		MaxIters:    25,
		StallIters:  1000,
		RecordTrace: true,
		Workers:     1,
	}
	ref := optimize(t, cm, 3, base)
	for _, w := range []int{2, 3, 8} {
		opts := base
		opts.Workers = w
		fm, err := NewModel(cm, 3, nil)
		if err != nil {
			t.Fatalf("NewModel: %v", err)
		}
		spy := &poolSpy{Model: fm}
		got := run(t, spy, opts)
		if spy.pool == nil || spy.pool.Forks() == 0 {
			t.Fatalf("workers=%d: the fleet optimizer never fanned out", w)
		}
		label := "workers=" + string(rune('0'+w))
		sameTrace(t, ref.Trace, got.Trace, label, false)
		sameStack(t, ref.Ps, got.Ps, label)
		if ref.Eval.U != got.Eval.U {
			t.Fatalf("workers=%d: best U %v vs %v", w, got.Eval.U, ref.Eval.U)
		}
	}
}

// TestOptimizeSmallFleetStaysSerial checks the other side of the fan-out
// threshold: on a paper-sized topology a multi-worker fleet optimizer
// attaches no pool.
func TestOptimizeSmallFleetStaysSerial(t *testing.T) {
	fm, err := NewModel(newCostModel(t, topology.Topology3()), 3, nil)
	if err != nil {
		t.Fatalf("NewModel: %v", err)
	}
	spy := &poolSpy{Model: fm}
	run(t, spy, descent.Options{MaxIters: 2, Workers: 4})
	if spy.pool != nil {
		t.Fatal("4-PoI fleet optimizer attached a pool below the fan-out threshold")
	}
}

func TestOptimizeImproves(t *testing.T) {
	cm := newCostModel(t, topology.Topology1())
	const sensors = 2
	opts := descent.Options{
		Seed:       5,
		MaxIters:   120,
		StallIters: 1000,
		Workers:    2,
	}
	// Joint cost at the optimizer's own starting stack.
	src := rng.New(opts.Seed)
	init := make([]*mat.Matrix, sensors)
	for s := range init {
		init[s] = descent.RandomInit(src, cm.Topology().M(), descent.DefaultMinProb)
	}
	fm, err := NewModel(cm, sensors, nil)
	if err != nil {
		t.Fatalf("NewModel: %v", err)
	}
	startEv, err := fm.Evaluate(init)
	if err != nil {
		t.Fatalf("Evaluate(init): %v", err)
	}
	res := run(t, fm, opts)
	if res.Eval.U > startEv.U {
		t.Fatalf("best U %v worse than initial %v", res.Eval.U, startEv.U)
	}
	if res.Iters == 0 {
		t.Fatal("no iterations executed")
	}
	// The winning evaluation must reproduce from the winning stack.
	re, err := fm.Evaluate(res.Ps)
	if err != nil {
		t.Fatalf("re-evaluate best stack: %v", err)
	}
	if re.U != res.Eval.U {
		t.Fatalf("re-evaluated U %v != recorded %v", re.U, res.Eval.U)
	}
}

func TestOptimizeWarmStart(t *testing.T) {
	cm := newCostModel(t, topology.Topology2())
	first := optimize(t, cm, 2, descent.Options{Seed: 11, MaxIters: 60, StallIters: 1000, Workers: 1})
	warm := optimize(t, cm, 2, descent.Options{
		Seed: 12, MaxIters: 30, StallIters: 1000, Workers: 1,
		Initial: first.Ps,
	})
	// A warm start from the cold optimum must never end up meaningfully
	// worse: the run keeps the best-so-far, whose first candidate is the
	// (clamp-renormalized) cold optimum itself.
	tol := 1e-6 * math.Max(1, math.Abs(first.Eval.U))
	if warm.Eval.U > first.Eval.U+tol {
		t.Fatalf("warm best %v worse than cold best %v", warm.Eval.U, first.Eval.U)
	}
}

func TestOptionsValidation(t *testing.T) {
	cm := newCostModel(t, topology.Topology2())
	cases := []struct {
		name    string
		sensors int
		opts    descent.Options
	}{
		{"zero sensors", 0, descent.Options{}},
		{"negative iters", 2, descent.Options{MaxIters: -1}},
		{"minprob too large", 2, descent.Options{MinProb: 0.6}},
		{"initial count mismatch", 2, descent.Options{Initial: make([]*mat.Matrix, 3)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fm, err := NewModel(cm, tc.sensors, nil)
			if err == nil {
				tc.opts.Variant = descent.Perturbed
				_, err = descent.NewOptimizer(fm, tc.opts)
			}
			if !errors.Is(err, descent.ErrOptions) && !errors.Is(err, ErrModel) {
				t.Errorf("err = %v, want descent.ErrOptions/ErrModel", err)
			}
		})
	}
}

// TestWarmIterationAllocatesNothing pins the fleet's allocation-free hot
// loop: a run allocates the same at 50 and at 400 iterations, so a
// warmed iteration — evaluations, gradient blocks, line search, and
// keeping a new best stack — allocates nothing.
func TestWarmIterationAllocatesNothing(t *testing.T) {
	fm, err := NewModel(newCostModel(t, topology.Topology3()), 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(iters int) float64 {
		return testing.AllocsPerRun(2, func() {
			o, err := descent.NewOptimizer(fm, descent.Options{
				Variant: descent.Perturbed, MaxIters: iters, Seed: 3, StallIters: 10 * iters, Workers: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := o.Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
	if short, long := allocs(50), allocs(400); short != long {
		t.Errorf("fleet run allocates %v at 50 iterations but %v at 400", short, long)
	}
}
