package main

import (
	"fmt"
	"time"

	"repro/coverage"
	"repro/internal/conformance"
	"repro/internal/rng"
	"repro/internal/topology"
)

// corpusDir is the conformance/v1 corpus, relative to the repository root.
const corpusDir = "coverage/testdata/corpus"

// Field workload shape: the 64-PoI random-geometric field
// BenchmarkGradient/M64 builds (same generator, same seed M), α = 1 with
// a small exposure weight, a Metropolis warm start, and a fixed
// iteration budget per solver. The workload seed drives the optimizer's
// draws. At larger β most warm-started runs stall at the probability
// floor within a few iterations, so the iteration rate would measure the
// seed rather than the code.
const (
	fieldPoIs  = 64
	fieldIters = 30
	fieldBeta  = 0.01
)

// mixSeed derives a per-item seed from the workload seed, so the
// workload seed changes every optimization's draws while the item's
// declared seed keeps items apart.
func mixSeed(itemSeed, workloadSeed uint64) uint64 {
	return rng.New(itemSeed ^ rng.New(workloadSeed).Uint64()).Uint64()
}

func runCorpus(r *run) error {
	var probs []*problem
	if err := r.setup(func() (err error) {
		probs, err = corpusProblems(r.seed)
		return err
	}); err != nil {
		return err
	}
	if err := runOptimize(r, probs); err != nil || !r.trace {
		return err
	}
	// The serving layers are measured by serving the corpus problems.
	return serveLayers(r, r.seconds/2)
}

func runField(r *run) error {
	var probs []*problem
	if err := r.setup(func() (err error) {
		probs, err = fieldProblems(r.seed)
		return err
	}); err != nil {
		return err
	}
	if err := runOptimize(r, probs); err != nil || !r.trace {
		return err
	}
	setServeLayersAbsent(r)
	return nil
}

// corpusProblems turns every optimizing case of the conformance corpus
// into a problem at its declared budget, restarts and fleet shape; the
// workload seed is mixed into each case's declared seed. A replicate
// case runs its single-sensor optimization. Setup also validates every
// problem and evaluates its Metropolis baseline.
func corpusProblems(seed uint64) ([]*problem, error) {
	corpora, err := conformance.LoadDir(corpusDir)
	if err != nil {
		return nil, err
	}
	var probs []*problem
	for _, c := range corpora {
		for _, cs := range c.Cases {
			if cs.Mode == conformance.ModeMetropolis {
				continue
			}
			p := &problem{
				name:     c.Family + "/" + cs.Name,
				scn:      cs.Scenario,
				obj:      cs.Objectives,
				opts:     coverage.Options{MaxIters: cs.Run.MaxIters, Seed: mixSeed(cs.Run.Seed, seed)},
				restarts: max(1, cs.Run.Restarts),
			}
			if cs.Fleet != nil && cs.Mode != conformance.ModeReplicate {
				p.sensors, p.resp = cs.Fleet.Sensors, cs.Fleet.Responsibility
			}
			if err := coverage.Validate(p.scn, p.obj); err != nil {
				return nil, fmt.Errorf("%s: %w", p.name, err)
			}
			if err := p.withBaseline(); err != nil {
				return nil, err
			}
			probs = append(probs, p)
		}
	}
	return probs, nil
}

// fieldProblems builds the field once and poses it to the dense and
// the sparse solver, both with the same seeded draws.
func fieldProblems(seed uint64) ([]*problem, error) {
	top, err := topology.Random(rng.New(fieldPoIs), topology.RandomConfig{
		M: fieldPoIs, Width: 40 * fieldPoIs, Height: 40 * fieldPoIs,
	})
	if err != nil {
		return nil, err
	}
	scn := coverage.Scenario{
		Name:   fmt.Sprintf("field-%d", fieldPoIs),
		Target: top.Target(),
		Range:  top.Range(),
		Speed:  top.Speed(),
	}
	for i := 0; i < top.M(); i++ {
		q := top.PoIAt(i)
		scn.PoIs = append(scn.PoIs, coverage.PoI{X: q.Pos.X, Y: q.Pos.Y, Pause: q.Pause})
	}
	obj := coverage.Objectives{Alpha: 1, Beta: fieldBeta}
	if err := coverage.Validate(scn, obj); err != nil {
		return nil, err
	}
	var probs []*problem
	for _, solver := range []string{"dense", "sparse"} {
		p := &problem{
			name: "field/" + solver,
			scn:  scn,
			obj:  obj,
			opts: coverage.Options{
				MaxIters: fieldIters,
				Seed:     mixSeed(1, seed),
				Solver:   solver,
			},
			restarts: 1,
		}
		if err := p.withBaseline(); err != nil {
			return nil, err
		}
		p.opts.InitialMatrix = p.baseline
		probs = append(probs, p)
	}
	return probs, nil
}

// passResult is one pass over a workload's problems.
type passResult struct {
	iters, events, probes, accepted int
	solveTime                       time.Duration
	digest                          string
	plans                           []*coverage.Plan // nil where the op failed
	stats                           []iterStats
	times                           []time.Duration // optimizer time per problem
	ratios                          []float64
}

func (p passResult) itersPerSec() float64 { return ratio(float64(p.iters), p.solveTime.Seconds()) }

// unrecordedShare is the share of counted iterations that sent no
// OnIteration event (see iterStats).
func (p passResult) unrecordedShare() float64 {
	return ratio(float64(p.iters-p.events), float64(p.iters))
}

// pass solves every problem once, checking each returned plan. Timed
// passes record iteration gaps; spans go to tr (nil records none).
func (r *run) pass(probs []*problem, workers int, timed bool, tr *tracer) passResult {
	res := passResult{
		plans: make([]*coverage.Plan, len(probs)),
		stats: make([]iterStats, len(probs)),
		times: make([]time.Duration, len(probs)),
	}
	dg := newDigest()
	for i, p := range probs {
		id := tr.id()
		t0 := time.Now()
		plan, st, d, err := solve(p, workers, timed, tr, id)
		tr.record(id, 0, "workload.op", p.name, t0, time.Now())
		if err == nil {
			err = checkPlan(p, plan)
		}
		r.op(p.name, err)
		res.iters += st.iters
		res.events += st.events
		res.probes += st.probes
		res.accepted += st.accepted
		res.solveTime += d
		res.stats[i] = st
		res.times[i] = d
		if err != nil {
			dg.mark(p.name + " failed")
			continue
		}
		res.plans[i] = plan
		res.ratios = append(res.ratios, plan.Cost/p.baselineCost)
		dg.add(p.name, plan)
	}
	res.digest = dg.sum()
	return res
}

// sameDigest flags a pass whose plans differ from the reference pass.
func (r *run) sameDigest(ref, got passResult, what string) {
	if got.digest != ref.digest {
		r.problem("%s plans digest %s differs from the first pass's %s", what, got.digest, ref.digest)
	}
}

// runOptimize is the closed-loop optimization workload shared by
// corpus and field: one caller solves the problems in order, pass after
// pass. Every pass repeats the same work bit for bit, so iters_per_s
// divides one pass's iterations by the sum over problems of each
// problem's median optimizer time across the passes: a pass that
// another tenant of the machine slowed does not set the figure. (The
// fastest pass would, but its expected value rises with the number of
// passes, which itself rises with machine speed.)
func runOptimize(r *run, probs []*problem) error {
	if r.trace {
		return traceOptimize(r, probs)
	}
	// Whole passes until the time is up, and at least two so every run
	// checks that repeating a seed repeats its plans bit for bit.
	start := time.Now()
	var (
		first passResult
		times [][]float64 // per problem, seconds in each pass
	)
	for n := 0; n < 2 || time.Since(start) < r.seconds; n++ {
		res := r.pass(probs, 0, false, nil)
		if n == 0 {
			first = res
			r.digests[r.workload] = res.digest
			r.unrecorded = res.unrecordedShare()
		} else {
			r.sameDigest(first, res, fmt.Sprintf("pass %d", n+1))
		}
		if times == nil {
			times = make([][]float64, len(probs))
		}
		for i, d := range res.times {
			times[i] = append(times[i], d.Seconds())
		}
		// More set-ups between passes (see setupBetween). They rebuild
		// the same inputs, which the passes do not take up.
		if err := r.timeSetups(1, setupBetween); err != nil {
			return err
		}
	}
	var total float64
	for _, ts := range times {
		total += median(ts)
	}
	r.setE2E("iters_per_s", "iter/s", ratio(float64(first.iters), total))
	r.setE2E("cost_ratio", "ratio", geomean(first.ratios))
	return nil
}

// traceOptimize is the traced run: an untraced reference pass, then
// the traced layer passes and replays of optimizeLayers.
func traceOptimize(r *run, probs []*problem) error {
	base := r.pass(probs, 0, false, nil)
	r.digests[r.workload] = base.digest
	r.unrecorded = base.unrecordedShare()
	traced, err := optimizeLayers(r, probs, base)
	if err != nil {
		return err
	}
	r.setLayer("trace.overhead", "ratio", ratio(traced.itersPerSec(), base.itersPerSec())-1)
	return nil
}

// optimizeLayers sets the descent, par, fleet and replayed layer
// metrics of probs: a traced pass at the default worker count and a
// serial (Workers=1) one, both checked against the untraced reference
// pass base, then layer replays on every returned plan. It returns the
// traced pass.
func optimizeLayers(r *run, probs []*problem, base passResult) (passResult, error) {
	traced := r.pass(probs, 0, true, r.spans)
	r.sameDigest(base, traced, "traced pass")
	serial := r.pass(probs, 1, true, nil)
	r.sameDigest(base, serial, "serial pass")

	rp := &replay{r: r, tr: r.spans}
	var shareSum, shareWeight float64
	var gaps, serialGaps, fleetGaps []float64
	for i, p := range probs {
		if p.fleet() {
			fleetGaps = append(fleetGaps, traced.stats[i].gaps...)
		} else {
			gaps = append(gaps, traced.stats[i].gaps...)
			serialGaps = append(serialGaps, serial.stats[i].gaps...)
		}
		plan := traced.plans[i]
		if plan == nil {
			continue
		}
		id := r.spans.id()
		t0 := time.Now()
		mc, err := rp.problem(p, plan, id)
		r.spans.record(id, 0, "replay", p.name, t0, time.Now())
		if err != nil {
			return traced, err
		}
		st := serial.stats[i]
		if p.fleet() || st.events == 0 || len(st.gaps) == 0 {
			continue
		}
		// Serial model time per iteration: one gradient assembly plus
		// one evaluation per line-search probe.
		model := mc.gradUs + float64(st.probes)/float64(st.events)*mc.evalUs
		shareSum += float64(st.iters) * model / median(st.gaps)
		shareWeight += float64(st.iters)
	}
	rp.report(r)
	r.setLayer("descent.iter_us_p50", "us", median(gaps))
	r.setLayer("descent.iter_us_p99", "us", quantile(gaps, 0.99))
	r.setLayer("descent.iters", "count", float64(traced.iters))
	r.setLayer("descent.probes_per_iter", "probes", ratio(float64(traced.probes), float64(traced.events)))
	r.setLayer("descent.accept_ratio", "ratio", ratio(float64(traced.accepted), float64(traced.events)))
	r.setLayer("descent.model_share", "ratio", ratio(shareSum, shareWeight))
	r.setLayer("par.speedup", "ratio", ratio(median(serialGaps), median(gaps)))
	r.setLayer("fleet.iter_us_p50", "us", median(fleetGaps))
	return traced, nil
}
