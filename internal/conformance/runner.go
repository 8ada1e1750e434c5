package conformance

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"sort"
	"strings"
	"sync"

	"repro/coverage"
)

// Config filters and tunes a conformance run.
type Config struct {
	// Solvers restricts the run to these backends (nil = each corpus's
	// full matrix). Solvers not in a corpus's matrix are skipped for that
	// corpus, never added.
	Solvers []string
	// Workers restricts the worker counts likewise.
	Workers []int
	// Parallel bounds concurrently executing cases (default: serial).
	// Case execution is deterministic, so parallelism never changes the
	// report, only the wall clock.
	Parallel int
}

// Metrics is one executed case's result summary.
type Metrics struct {
	Cost       float64   `json:"cost"`
	DeltaC     float64   `json:"deltaC"`
	EBar       float64   `json:"eBar"`
	Energy     float64   `json:"energy"`
	EnergyGap  float64   `json:"energyGap"`
	Entropy    float64   `json:"entropy"`
	Iterations int       `json:"iterations"`
	Converged  bool      `json:"converged"`
	Shares     []float64 `json:"shares"`
	// Digest is the bit-level content hash of the produced plan
	// (transition matrices and metrics as IEEE-754 bit patterns).
	Digest string `json:"digest"`
}

// metric addresses a Metrics field by invariant metric name.
func (m Metrics) metric(name string) float64 {
	switch name {
	case "cost":
		return m.Cost
	case "deltaC":
		return m.DeltaC
	case "eBar":
		return m.EBar
	case "energy":
		return m.Energy
	case "energyGap":
		return m.EnergyGap
	case "entropy":
		return m.Entropy
	case "iterations":
		return float64(m.Iterations)
	}
	return math.NaN()
}

// Check is one invariant verdict under one matrix cell.
type Check struct {
	// Invariant identifies the invariant (Invariant.ID()).
	Invariant string `json:"invariant"`
	// Solver and Workers locate the matrix cell; bit-exactness checks
	// spanning worker counts report Workers = 0.
	Solver  string `json:"solver"`
	Workers int    `json:"workers,omitempty"`
	Pass    bool   `json:"pass"`
	// Detail explains a failure (empty on pass).
	Detail string `json:"detail,omitempty"`
}

// FileReport is one corpus family's outcome.
type FileReport struct {
	Family string  `json:"family"`
	Cases  int     `json:"cases"`
	Checks []Check `json:"checks"`
	// Divergent lists invariant IDs whose verdicts differ between
	// solvers — a conformance failure in itself: the sparse path must
	// reach the same qualitative conclusions as the dense reference.
	Divergent []string `json:"divergent,omitempty"`
	// Results holds every executed case's metrics keyed
	// "solver/w<N>/case" (verbose diagnostics).
	Results map[string]Metrics `json:"results,omitempty"`
}

// Pass reports whether every check passed and no solver diverged.
func (f *FileReport) Pass() bool {
	if len(f.Divergent) > 0 {
		return false
	}
	for _, c := range f.Checks {
		if !c.Pass {
			return false
		}
	}
	return true
}

// Report is a whole conformance run's outcome.
type Report struct {
	Files    []FileReport `json:"files"`
	Cases    int          `json:"cases"`
	Checks   int          `json:"checks"`
	Failures int          `json:"failures"`
}

// Pass reports whether the whole run passed.
func (r *Report) Pass() bool { return r.Failures == 0 }

// Summary renders a one-line human summary.
func (r *Report) Summary() string {
	verdict := "PASS"
	if !r.Pass() {
		verdict = "FAIL"
	}
	return fmt.Sprintf("%s: %d families, %d cases, %d checks, %d failures",
		verdict, len(r.Files), r.Cases, r.Checks, r.Failures)
}

// cellKey memoizes case executions within one corpus.
type cellKey struct {
	cs      string
	solver  string
	workers int
	shards  int // 0 = monolithic
}

// runner executes one corpus.
type runner struct {
	mu      sync.Mutex
	results map[cellKey]Metrics
	errs    map[cellKey]error
	sem     chan struct{}
}

// Run executes every corpus under the (filtered) execution matrix and
// evaluates every invariant in every matrix cell. The returned report is
// deterministic: same corpora, same config, same verdicts and digests.
func Run(ctx context.Context, corpora []*Corpus, cfg Config) (*Report, error) {
	rep := &Report{}
	for _, c := range corpora {
		fr, err := runCorpus(ctx, c, cfg)
		if err != nil {
			return nil, fmt.Errorf("family %s: %w", c.Family, err)
		}
		rep.Files = append(rep.Files, *fr)
		rep.Cases += fr.Cases
		rep.Checks += len(fr.Checks)
		for _, ch := range fr.Checks {
			if !ch.Pass {
				rep.Failures++
			}
		}
		rep.Failures += len(fr.Divergent)
	}
	return rep, nil
}

// filterStr intersects matrix values with a config filter (nil keeps all).
func filterStr(matrix, filter []string) []string {
	if filter == nil {
		return matrix
	}
	var out []string
	for _, v := range matrix {
		for _, f := range filter {
			if v == f {
				out = append(out, v)
				break
			}
		}
	}
	return out
}

func filterInt(matrix, filter []int) []int {
	if filter == nil {
		return matrix
	}
	var out []int
	for _, v := range matrix {
		for _, f := range filter {
			if v == f {
				out = append(out, v)
				break
			}
		}
	}
	return out
}

func runCorpus(ctx context.Context, c *Corpus, cfg Config) (*FileReport, error) {
	solvers := filterStr(c.Matrix.Solvers, cfg.Solvers)
	workers := filterInt(c.Matrix.Workers, cfg.Workers)
	if len(solvers) == 0 || len(workers) == 0 {
		return nil, fmt.Errorf("execution matrix empty after filtering (solvers %v, workers %v)", cfg.Solvers, cfg.Workers)
	}
	par := cfg.Parallel
	if par < 1 {
		par = 1
	}
	r := &runner{
		results: make(map[cellKey]Metrics),
		errs:    make(map[cellKey]error),
		sem:     make(chan struct{}, par),
	}

	// Execute the full case × cell grid up front (concurrently when
	// Parallel > 1), then evaluate invariants off the memoized results.
	var wg sync.WaitGroup
	for _, cs := range c.Cases {
		for _, sv := range solvers {
			for _, w := range workers {
				wg.Add(1)
				go func(cs Case, sv string, w int) {
					defer wg.Done()
					r.sem <- struct{}{}
					defer func() { <-r.sem }()
					r.get(ctx, cs, sv, w, 0)
				}(cs, sv, w)
			}
		}
		if needsShards(c, cs.Name) {
			for _, sv := range solvers {
				for _, sh := range c.Matrix.Shards {
					wg.Add(1)
					go func(cs Case, sv string, sh int) {
						defer wg.Done()
						r.sem <- struct{}{}
						defer func() { <-r.sem }()
						r.get(ctx, cs, sv, workers[0], sh)
					}(cs, sv, sh)
				}
			}
		}
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for k, err := range r.errs {
		if err != nil {
			return nil, fmt.Errorf("case %s (%s, %d workers): %w", k.cs, k.solver, k.workers, err)
		}
	}

	fr := &FileReport{Family: c.Family, Cases: len(c.Cases), Results: make(map[string]Metrics)}
	for k, m := range r.results {
		key := fmt.Sprintf("%s/w%d/%s", k.solver, k.workers, k.cs)
		if k.shards > 0 {
			key = fmt.Sprintf("%s/w%d/shards%d/%s", k.solver, k.workers, k.shards, k.cs)
		}
		fr.Results[key] = m
	}

	// Per-cell invariants, then cross-cell bit-exactness groups.
	verdicts := make(map[string]map[string]bool) // solver → invariant ID → pass
	for _, sv := range solvers {
		verdicts[sv] = make(map[string]bool)
		for _, iv := range c.Invariants {
			if iv.Type == InvBitExact {
				continue
			}
			for _, w := range workers {
				ch := r.check(c, iv, sv, w)
				fr.Checks = append(fr.Checks, ch)
				pass, seen := verdicts[sv][iv.ID()]
				if !seen {
					pass = true
				}
				verdicts[sv][iv.ID()] = pass && ch.Pass
			}
		}
		for _, iv := range c.Invariants {
			if iv.Type != InvBitExact {
				continue
			}
			ch := r.checkBitExact(c, iv, sv, workers)
			fr.Checks = append(fr.Checks, ch)
			verdicts[sv][iv.ID()] = ch.Pass
		}
	}

	// Every solver must reach the same verdict on every invariant.
	if len(solvers) > 1 {
		ref := solvers[0]
		for _, iv := range c.Invariants {
			id := iv.ID()
			for _, sv := range solvers[1:] {
				if verdicts[sv][id] != verdicts[ref][id] {
					fr.Divergent = append(fr.Divergent, fmt.Sprintf(
						"%s: %s=%v, %s=%v", id, ref, verdicts[ref][id], sv, verdicts[sv][id]))
				}
			}
		}
		sort.Strings(fr.Divergent)
	}
	sortChecks(fr.Checks)
	return fr, nil
}

// needsShards reports whether any bitexact-over-shards invariant lists
// the case.
func needsShards(c *Corpus, name string) bool {
	for _, iv := range c.Invariants {
		if iv.Type != InvBitExact || iv.Over != OverShards {
			continue
		}
		for _, n := range iv.Cases {
			if n == name {
				return true
			}
		}
	}
	return false
}

// sortChecks orders the report deterministically (goroutine scheduling
// must not leak into the output).
func sortChecks(cs []Check) {
	sort.Slice(cs, func(a, b int) bool {
		if cs[a].Solver != cs[b].Solver {
			return cs[a].Solver < cs[b].Solver
		}
		if cs[a].Workers != cs[b].Workers {
			return cs[a].Workers < cs[b].Workers
		}
		return cs[a].Invariant < cs[b].Invariant
	})
}

// get memoizes one case execution.
func (r *runner) get(ctx context.Context, cs Case, solver string, workers, shards int) (Metrics, error) {
	k := cellKey{cs: cs.Name, solver: solver, workers: workers, shards: shards}
	r.mu.Lock()
	if m, ok := r.results[k]; ok {
		r.mu.Unlock()
		return m, nil
	}
	if err, ok := r.errs[k]; ok {
		r.mu.Unlock()
		return Metrics{}, err
	}
	r.mu.Unlock()

	m, err := executeCase(ctx, cs, solver, workers, shards)

	r.mu.Lock()
	defer r.mu.Unlock()
	if err != nil {
		r.errs[k] = err
		return Metrics{}, err
	}
	r.results[k] = m
	return m, nil
}

// lookup returns a previously executed result (the grid pre-run
// guarantees presence for declared invariants).
func (r *runner) lookup(name, solver string, workers, shards int) (Metrics, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	m, ok := r.results[cellKey{cs: name, solver: solver, workers: workers, shards: shards}]
	return m, ok
}

// executeCase runs one case under one matrix cell. shards > 0 runs the
// sharded-restart execution path: each restart optimized independently
// with its split seed and the winners merged by lexicographic
// (cost, restart) minimum — the in-process equivalent of the distributed
// shard/lease protocol's deterministic merge.
func executeCase(ctx context.Context, cs Case, solver string, workers, shards int) (Metrics, error) {
	opts := coverage.Options{
		MaxIters: cs.Run.MaxIters,
		Seed:     cs.Run.Seed,
		Workers:  workers,
		Solver:   solver,
	}
	restarts := cs.Run.restarts()
	switch cs.mode() {
	case ModeMetropolis:
		p, err := coverage.MetropolisBaseline(cs.Scenario)
		if err != nil {
			return Metrics{}, err
		}
		plan, err := coverage.EvaluateMatrix(cs.Scenario, cs.Objectives, p)
		if err != nil {
			return Metrics{}, err
		}
		return metricsOf(plan, cs.Objectives), nil

	case ModeReplicate:
		single, err := coverage.OptimizeBestContext(ctx, cs.Scenario, cs.Objectives, opts, restarts)
		if err != nil {
			return Metrics{}, err
		}
		stack := make([][][]float64, cs.Fleet.Sensors)
		for s := range stack {
			stack[s] = single.TransitionMatrix
		}
		plan, err := coverage.EvaluateFleetMatrices(cs.Scenario, cs.Objectives, stack, cs.Fleet.Responsibility)
		if err != nil {
			return Metrics{}, err
		}
		return metricsOf(plan, cs.Objectives), nil
	}

	if shards > 0 {
		plan, err := runSharded(ctx, cs, opts, restarts, shards)
		if err != nil {
			return Metrics{}, err
		}
		return metricsOf(plan, cs.Objectives), nil
	}
	var plan *coverage.Plan
	var err error
	if cs.Fleet != nil {
		plan, err = coverage.OptimizeFleetBestContext(ctx, cs.Scenario, cs.Objectives, opts, cs.Fleet.Sensors, cs.Fleet.Responsibility, restarts)
	} else {
		plan, err = coverage.OptimizeBestContext(ctx, cs.Scenario, cs.Objectives, opts, restarts)
	}
	if err != nil {
		return Metrics{}, err
	}
	return metricsOf(plan, cs.Objectives), nil
}

// runSharded reproduces OptimizeBest restart-by-restart: the restarts
// are split into `shards` contiguous ranges, every restart runs as an
// independent single optimization seeded with coverage.SplitSeeds, and
// the per-shard winners merge by lexicographic (cost, restart) minimum.
// The result must be bit-identical to the monolithic multi-start run —
// the contract the distributed sharding layer (DESIGN.md §13) rests on.
func runSharded(ctx context.Context, cs Case, opts coverage.Options, restarts, shards int) (*coverage.Plan, error) {
	seeds := coverage.SplitSeeds(opts.Seed, restarts)
	type winner struct {
		plan    *coverage.Plan
		restart int
	}
	var best *winner
	merge := func(w winner) {
		if best == nil ||
			w.plan.Cost < best.plan.Cost ||
			(w.plan.Cost == best.plan.Cost && w.restart < best.restart) {
			best = &w
		}
	}
	if shards > restarts {
		shards = restarts
	}
	for sh := 0; sh < shards; sh++ {
		// Contiguous ranges, remainder spread over the leading shards —
		// the same split rule the job shard table uses.
		lo := sh * restarts / shards
		hi := (sh + 1) * restarts / shards
		var shardBest *winner
		for r := lo; r < hi; r++ {
			runOpts := opts
			runOpts.Seed = seeds[r]
			var plan *coverage.Plan
			var err error
			if cs.Fleet != nil {
				plan, err = coverage.OptimizeFleetContext(ctx, cs.Scenario, cs.Objectives, runOpts, cs.Fleet.Sensors, cs.Fleet.Responsibility)
			} else {
				plan, err = coverage.OptimizeContext(ctx, cs.Scenario, cs.Objectives, runOpts)
			}
			if err != nil {
				return nil, err
			}
			w := winner{plan: plan, restart: r}
			if shardBest == nil ||
				w.plan.Cost < shardBest.plan.Cost ||
				(w.plan.Cost == shardBest.plan.Cost && w.restart < shardBest.restart) {
				shardBest = &w
			}
		}
		if shardBest != nil {
			merge(*shardBest)
		}
	}
	if best == nil {
		return nil, fmt.Errorf("no restarts executed")
	}
	return best.plan, nil
}

// metricsOf summarizes a plan, including the bit-level digest.
func metricsOf(plan *coverage.Plan, obj coverage.Objectives) Metrics {
	m := Metrics{
		Cost:       plan.Cost,
		DeltaC:     plan.DeltaC,
		EBar:       plan.EBar,
		Energy:     plan.Energy,
		Entropy:    plan.Entropy,
		Iterations: plan.Iterations,
		Converged:  plan.Converged,
		Shares:     append([]float64(nil), plan.CoverageShare...),
	}
	if obj.EnergyWeight > 0 {
		m.EnergyGap = math.Abs(plan.Energy - obj.EnergyTarget)
	}
	m.Digest = planDigest(plan)
	return m
}

// planDigest hashes the plan's solver-produced content at full bit
// precision: every transition matrix (the fleet stack when present) and
// the metric scalars, as IEEE-754 bit patterns. Two runs are
// "bit-exact" exactly when their digests match.
func planDigest(plan *coverage.Plan) string {
	h := sha256.New()
	writeMatrix := func(rows [][]float64) {
		for _, row := range rows {
			hashBits(h, row...)
		}
	}
	if plan.Fleet != nil {
		hashBits(h, float64(plan.Fleet.Sensors))
		for _, p := range plan.Fleet.TransitionMatrices {
			writeMatrix(p)
		}
	} else {
		writeMatrix(plan.TransitionMatrix)
	}
	hashBits(h, plan.Cost, plan.DeltaC, plan.EBar, plan.Energy, plan.Entropy, float64(plan.Iterations))
	return hex.EncodeToString(h.Sum(nil))
}

func hashBits(h hash.Hash, vs ...float64) {
	var buf [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
}

// slack converts a relative tolerance into the additive slack allowed at
// a reference value.
func slack(tol, ref float64) float64 {
	return tol * math.Max(1, math.Abs(ref))
}

// check evaluates one non-bitexact invariant in one matrix cell.
func (r *runner) check(c *Corpus, iv Invariant, solver string, workers int) Check {
	ch := Check{Invariant: iv.ID(), Solver: solver, Workers: workers, Pass: true}
	get := func(name string) Metrics {
		m, ok := r.lookup(name, solver, workers, 0)
		if !ok {
			ch.Pass = false
			ch.Detail = fmt.Sprintf("case %s not executed", name)
		}
		return m
	}
	fail := func(format string, args ...any) {
		ch.Pass = false
		if ch.Detail != "" {
			ch.Detail += "; "
		}
		ch.Detail += fmt.Sprintf(format, args...)
	}

	switch iv.Type {
	case InvCostOrder:
		for i := 0; i+1 < len(iv.Cases) && ch.Pass; i++ {
			a, b := get(iv.Cases[i]), get(iv.Cases[i+1])
			if !ch.Pass {
				break
			}
			if a.Cost > b.Cost+slack(iv.Tolerance, b.Cost) {
				fail("cost(%s)=%.6g > cost(%s)=%.6g (+tol %.3g)",
					iv.Cases[i], a.Cost, iv.Cases[i+1], b.Cost, iv.Tolerance)
			}
		}

	case InvMonotone:
		r.checkTrend(&ch, iv.Cases, solver, workers, iv.Metric, iv.Direction, iv.Tolerance, fail)

	case InvCrossover:
		// Cases are listed by increasing β: exposure must not worsen,
		// coverage fidelity must not improve — the tradeoff's shape.
		r.checkTrend(&ch, iv.Cases, solver, workers, "eBar", DirNonincreasing, iv.Tolerance, fail)
		r.checkTrend(&ch, iv.Cases, solver, workers, "deltaC", DirNondecreasing, iv.Tolerance, fail)

	case InvBound:
		for _, name := range iv.Cases {
			m := get(name)
			if !ch.Pass {
				break
			}
			v := m.metric(iv.Metric)
			if iv.Max != nil && v > *iv.Max {
				fail("%s(%s)=%.6g > max %.6g", iv.Metric, name, v, *iv.Max)
			}
			if iv.Min != nil && v < *iv.Min {
				fail("%s(%s)=%.6g < min %.6g", iv.Metric, name, v, *iv.Min)
			}
		}

	case InvShareOrder:
		for _, name := range iv.Cases {
			m := get(name)
			if !ch.Pass {
				break
			}
			target := caseTarget(c, name)
			for i := range target {
				for j := range target {
					if target[i] < target[j]+iv.MinGap {
						continue
					}
					if m.Shares[i] < m.Shares[j]-slack(iv.Tolerance, m.Shares[j]) {
						fail("%s: share[%d]=%.4g < share[%d]=%.4g despite target %.4g > %.4g",
							name, i, m.Shares[i], j, m.Shares[j], target[i], target[j])
					}
				}
			}
		}
	}
	return ch
}

// checkTrend verifies one monotone trend over the listed cases.
func (r *runner) checkTrend(ch *Check, cases []string, solver string, workers int, metric, dir string, tol float64, fail func(string, ...any)) {
	for i := 0; i+1 < len(cases) && ch.Pass; i++ {
		a, ok1 := r.lookup(cases[i], solver, workers, 0)
		b, ok2 := r.lookup(cases[i+1], solver, workers, 0)
		if !ok1 || !ok2 {
			fail("case %s or %s not executed", cases[i], cases[i+1])
			return
		}
		va, vb := a.metric(metric), b.metric(metric)
		s := slack(tol, va)
		switch dir {
		case DirNonincreasing:
			if vb > va+s {
				fail("%s rose %s→%s: %.6g → %.6g (tol %.3g)", metric, cases[i], cases[i+1], va, vb, tol)
			}
		case DirNondecreasing:
			if vb < va-s {
				fail("%s fell %s→%s: %.6g → %.6g (tol %.3g)", metric, cases[i], cases[i+1], va, vb, tol)
			}
		}
	}
}

// checkBitExact evaluates one bit-exactness group for one solver.
func (r *runner) checkBitExact(c *Corpus, iv Invariant, solver string, workers []int) Check {
	ch := Check{Invariant: iv.ID(), Solver: solver, Pass: true}
	var details []string
	switch iv.Over {
	case OverWorkers:
		for _, name := range iv.Cases {
			ref, ok := r.lookup(name, solver, workers[0], 0)
			if !ok {
				ch.Pass = false
				details = append(details, fmt.Sprintf("%s: not executed", name))
				continue
			}
			for _, w := range workers[1:] {
				m, ok := r.lookup(name, solver, w, 0)
				if !ok || m.Digest != ref.Digest {
					ch.Pass = false
					details = append(details, fmt.Sprintf(
						"%s: %d workers diverged from %d workers", name, w, workers[0]))
				}
			}
		}
	case OverShards:
		for _, name := range iv.Cases {
			ref, ok := r.lookup(name, solver, workers[0], 0)
			if !ok {
				ch.Pass = false
				details = append(details, fmt.Sprintf("%s: not executed", name))
				continue
			}
			for _, sh := range c.Matrix.Shards {
				m, ok := r.lookup(name, solver, workers[0], sh)
				if !ok || m.Digest != ref.Digest {
					ch.Pass = false
					details = append(details, fmt.Sprintf(
						"%s: %d-shard merge diverged from monolithic run", name, sh))
				}
			}
		}
	}
	ch.Detail = strings.Join(details, "; ")
	return ch
}

// caseTarget returns a case's target allocation.
func caseTarget(c *Corpus, name string) []float64 {
	for _, cs := range c.Cases {
		if cs.Name == name {
			return cs.Scenario.Target
		}
	}
	return nil
}
