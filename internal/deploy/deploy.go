// Package deploy is the live deployment runtime: it manages long-lived
// patrol executions as first-class server objects alongside optimization
// jobs, closing the paper's loop from a static offline plan to an online
// service (deploy → observe → detect drift → retrain → hot-swap).
//
// A Deployment owns a plan and its scenario and advances one
// coverage.Executor per sensor in lockstep: K ≥ 1 executors, where a
// single-sensor plan is the K = 1 case and a coverage.FleetPlan carries
// K ≥ 2 (see fleet.go). It moves either self-driven (ticks or POST
// /advance draw the next PoIs from the deployed plan) or, for one
// sensor, externally driven (POST /observations records where the real
// sensor actually went, which may deviate from the plan). Along the way
// it maintains online union statistics — per-PoI coverage fractions
// against the target Φ, open and completed exposure segments, and
// Poisson incident-detection delays when rates are configured — and
// every Drift.CheckEvery steps fits markov.Estimate over each sensor's
// sliding trajectory window and scores the estimate against that
// sensor's plan (occupancy-weighted row total variation, a mean
// log-likelihood ratio, and the empirical coverage deviation ΔC).
//
// When the worst sensor's drift score crosses Drift.Threshold, the
// runtime first asks the plan library for a cheaper exact plan, then
// submits a re-optimization job through the jobs.Manager, warm-started
// from the estimated chains (coverage.Options.InitialMatrix, or
// InitialMatrices for K ≥ 2), and hot-swaps the plan atomically when
// the job completes, recording a swap history. On
// a sharding manager (jobs.ShardConfig) those re-optimizations split
// across the cluster like any other job; the runtime only sees the
// done notification from whichever node merges the result. All
// deployment state — including the executor's exact random-stream
// position — checkpoints to disk, so a restarted server resumes
// deployments bit-for-bit, exactly like jobs.
package deploy

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"sync"
	"time"

	"repro/coverage"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/rng"
)

// Service errors, mapped onto HTTP statuses by the API layer.
var (
	// ErrNotFound reports an unknown deployment ID.
	ErrNotFound = errors.New("deploy: deployment not found")
	// ErrSpec reports an invalid deployment specification.
	ErrSpec = errors.New("deploy: invalid spec")
	// ErrStopped reports an operation on a stopped deployment.
	ErrStopped = errors.New("deploy: deployment stopped")
	// ErrShuttingDown reports a request during runtime shutdown.
	ErrShuttingDown = errors.New("deploy: runtime shutting down")
	// ErrLimit reports that the deployment table is full.
	ErrLimit = errors.New("deploy: too many deployments")
)

// State is a deployment lifecycle state.
type State string

// The deployment lifecycle states. Unlike jobs, a deployment has no
// natural completion: it runs until stopped.
const (
	StateActive  State = "active"
	StateStopped State = "stopped"
)

// valid reports whether s is a known state (used when loading
// checkpoints).
func (s State) valid() bool {
	return s == StateActive || s == StateStopped
}

// Defaults for DriftConfig. Chosen so the window holds enough transitions
// to estimate an M ≲ 16 chain, checks amortize to ~1% of step cost, and
// the threshold sits well above the sampling noise of a faithful
// executor at these window sizes (see DESIGN.md §9).
const (
	DefaultWindow     = 1024
	DefaultCheckEvery = 128
	DefaultMinSamples = 256
	DefaultSmoothing  = 0.5
	DefaultThreshold  = 0.15
)

// DriftConfig tunes drift detection. Zero values select the defaults
// above; Threshold < 0 disables automatic re-optimization (drift is
// still scored and reported).
type DriftConfig struct {
	// Window is the sliding trajectory window length, in steps.
	Window int `json:"window,omitempty"`
	// CheckEvery is the cadence of drift checks, in steps.
	CheckEvery int `json:"checkEvery,omitempty"`
	// MinSamples is the minimum window occupancy before scoring.
	MinSamples int `json:"minSamples,omitempty"`
	// Smoothing is the additive smoothing of the window estimate; it must
	// be positive so the estimate stays ergodic (and warm-startable).
	Smoothing float64 `json:"smoothing,omitempty"`
	// Threshold triggers re-optimization when the occupancy-weighted row
	// total-variation score reaches it. Negative disables triggering.
	Threshold float64 `json:"threshold,omitempty"`
	// Cooldown is the minimum number of steps between triggers (default:
	// Window, so the post-swap window refills before re-scoring can
	// trigger again).
	Cooldown int `json:"cooldown,omitempty"`
}

// ReoptConfig tunes the automatic re-optimization jobs a drifting
// deployment submits.
type ReoptConfig struct {
	// Options tunes each restart. InitialMatrix is owned by the runtime
	// (it is replaced with the drift estimate) and ignored if set.
	Options coverage.Options `json:"options"`
	// Restarts is the multi-start count (default 1).
	Restarts int `json:"restarts,omitempty"`
}

// Spec is everything needed to run one deployment.
type Spec struct {
	// Scenario is the coverage problem the plan was optimized for.
	Scenario coverage.Scenario `json:"scenario"`
	// Plan is the schedule to deploy.
	Plan *coverage.Plan `json:"plan"`
	// Objectives weights re-optimization (and documents what the plan was
	// optimized for).
	Objectives coverage.Objectives `json:"objectives"`
	// Start is the PoI the sensor starts at.
	Start int `json:"start"`
	// Seed drives the executor's draws (and, split, the incident
	// process), making a deployment reproducible end to end.
	Seed uint64 `json:"seed"`
	// TickMillis, when positive, self-advances the deployment one step
	// every TickMillis milliseconds. Zero means the deployment only moves
	// on POST /advance or /observations.
	TickMillis int `json:"tickMillis,omitempty"`
	// Drift tunes drift detection.
	Drift DriftConfig `json:"drift"`
	// Reopt tunes the automatic re-optimization jobs.
	Reopt ReoptConfig `json:"reopt"`
	// IncidentRates, when set, simulates Poisson incidents at each PoI
	// (events per step) and tracks detection delays. A single rate may be
	// given as a one-element slice.
	IncidentRates []float64 `json:"incidentRates,omitempty"`
}

// SwapRecord is one completed hot-swap in a deployment's history.
type SwapRecord struct {
	// Step is the deployment step at which the swap landed.
	Step int `json:"step"`
	// JobID is the re-optimization job whose plan was installed.
	JobID string `json:"jobId"`
	// At is the wall-clock swap time.
	At time.Time `json:"at"`
	// OldCost and NewCost are the analytic costs of the outgoing and
	// incoming plans.
	OldCost float64 `json:"oldCost"`
	NewCost float64 `json:"newCost"`
	// DriftScore and EmpiricalDeltaC snapshot the drift report that
	// triggered the job.
	DriftScore      float64 `json:"driftScore"`
	EmpiricalDeltaC float64 `json:"empiricalDeltaC"`
}

// IncidentStats summarizes the online incident-detection simulation.
type IncidentStats struct {
	// Detected counts detected incidents per PoI.
	Detected []int64 `json:"detected"`
	// Open counts incidents still awaiting detection per PoI.
	Open []int64 `json:"open"`
	// MeanDelay is the mean detection delay per PoI, in steps.
	MeanDelay []float64 `json:"meanDelay"`
	// MaxDelay is the worst observed delay per PoI, in steps.
	MaxDelay []int64 `json:"maxDelay"`
}

// View is an immutable snapshot of a deployment, safe to hold and
// serialize while the deployment keeps running.
type View struct {
	ID       string     `json:"id"`
	State    State      `json:"state"`
	Scenario string     `json:"scenario"`
	Created  time.Time  `json:"created"`
	Stopped  *time.Time `json:"stopped,omitempty"`
	// Step counts recorded positions, including the start.
	Step int `json:"step"`
	// Current is the PoI the sensor is at (sensor 0 for fleets).
	Current int `json:"current"`
	// Sensors is the fleet size for fleet deployments; 0 for
	// single-sensor deployments.
	Sensors int `json:"sensors,omitempty"`
	// Positions is every sensor's current PoI (fleet deployments only).
	Positions []int `json:"positions,omitempty"`
	// Faults is the executors' degenerate-row counter (summed for fleets).
	Faults uint64 `json:"faults,omitempty"`
	// PlanCost is the deployed plan's analytic cost.
	PlanCost float64 `json:"planCost"`
	// Coverage is the all-time empirical coverage fraction per PoI.
	Coverage []float64 `json:"coverage"`
	// Target is the scenario's prescribed allocation Φ.
	Target []float64 `json:"target"`
	// EmpiricalDeltaC is Σ_i (coverage_i − Φ_i)² over the whole run.
	EmpiricalDeltaC float64 `json:"empiricalDeltaC"`
	// OpenExposure is each PoI's current unwatched-interval length.
	OpenExposure []int64 `json:"openExposure"`
	// MeanExposure and MaxExposure summarize completed exposure segments.
	MeanExposure []float64 `json:"meanExposure"`
	MaxExposure  []int64   `json:"maxExposure"`
	// Drift is the latest drift report, if a check has run.
	Drift *DriftReport `json:"drift,omitempty"`
	// DriftChecks and DriftTriggers count checks and threshold crossings.
	DriftChecks   int64 `json:"driftChecks"`
	DriftTriggers int64 `json:"driftTriggers"`
	// ReoptJob is the in-flight re-optimization job, if any.
	ReoptJob string `json:"reoptJob,omitempty"`
	// Swaps is the hot-swap history.
	Swaps []SwapRecord `json:"swaps,omitempty"`
	// Incidents is present when IncidentRates were configured.
	Incidents *IncidentStats `json:"incidents,omitempty"`
	// LastError surfaces the most recent non-fatal runtime error (e.g. a
	// rejected re-optimization submission).
	LastError string `json:"lastError,omitempty"`
}

// Event is one entry of a deployment's event stream.
type Event struct {
	// Type is one of "drift", "trigger", "reopt-progress", "swap",
	// "stopped", "error".
	Type string `json:"type"`
	// Deployment is the originating deployment ID.
	Deployment string `json:"deployment"`
	// Step is the deployment step at emission.
	Step int `json:"step"`
	// Data carries the type-specific payload (a DriftReport for "drift"
	// and "trigger", a SwapRecord for "swap", a string for "error").
	Data any `json:"data,omitempty"`
}

// Jobs is the slice of the job manager the runtime needs to close the
// loop; *jobs.Manager satisfies it. Submissions carry a context so the
// deployment ID travels onto the job's log trail.
type Jobs interface {
	SubmitCtx(ctx context.Context, spec jobs.Spec) (jobs.View, error)
	Get(id string) (jobs.View, error)
	Plan(id string) (*coverage.Plan, error)
}

// PlanLibrary is the slice of the plan library the runtime uses:
// consulted when drift fires (a cached exact solution that beats the
// deployed plan's cost is swapped in directly, skipping the
// re-optimization job entirely), and fed every plan the runtime swaps
// in, so one deployment's re-optimization becomes every later
// deployment's cache hit. *plans.Library satisfies it.
type PlanLibrary interface {
	// WarmStart returns the best cached plan for a sensors-sensor
	// problem over the given responsibility split (nil = uniform): an
	// exact hit at distance 0, or the nearest same-topology neighbor of
	// the same fleet size. One sensor is the single-sensor key space.
	WarmStart(scn coverage.Scenario, obj coverage.Objectives, sensors int, responsibility [][]float64) (*coverage.Plan, float64, bool)
	// PublishPlan records a plan the runtime adopted; jobID is the
	// producing job for provenance ("" when the plan came from the
	// library itself).
	PublishPlan(scn coverage.Scenario, obj coverage.Objectives, plan *coverage.Plan, jobID string)
}

// incidents is the online Poisson incident simulation: arrivals per PoI
// per step, detection when some sensor's walk next visits the PoI.
type incidents struct {
	rates []float64
	src   *rng.Source
	// open holds each pending incident's arrival step, per PoI.
	open     [][]int
	detected []int64
	delaySum []int64
	delayMax []int64
}

func newIncidents(rates []float64, seed uint64) *incidents {
	m := len(rates)
	inc := &incidents{
		rates:    rates,
		src:      rng.New(seed),
		open:     make([][]int, m),
		detected: make([]int64, m),
		delaySum: make([]int64, m),
		delayMax: make([]int64, m),
	}
	return inc
}

func (inc *incidents) stats() *IncidentStats {
	m := len(inc.rates)
	st := &IncidentStats{
		Detected:  append([]int64(nil), inc.detected...),
		Open:      make([]int64, m),
		MeanDelay: make([]float64, m),
		MaxDelay:  append([]int64(nil), inc.delayMax...),
	}
	for i := 0; i < m; i++ {
		st.Open[i] = int64(len(inc.open[i]))
		if inc.detected[i] > 0 {
			st.MeanDelay[i] = float64(inc.delaySum[i]) / float64(inc.detected[i])
		}
	}
	return st
}

// deployment is the mutable record; every field is guarded by Runtime.mu
// except id and spec, which are immutable after Create.
type deployment struct {
	id   string
	spec Spec // normalized: defaults applied, rates expanded

	state   State
	created time.Time
	stopped time.Time

	plan  *coverage.Plan       // currently deployed plan (hot-swapped)
	execs []*coverage.Executor // one per sensor, K ≥ 1, in lockstep

	step   int     // recorded positions, including the start
	visits []int64 // all-time per-PoI union visit counts

	// wins holds one ring buffer per sensor of its last Drift.Window
	// positions; the rings share winStart/winLen since all sensors
	// advance in lockstep.
	wins     [][]int
	winStart int
	winLen   int

	// Exposure bookkeeping, in step time: a segment for PoI i is the gap
	// between consecutive visits.
	lastVisit []int // step of most recent visit; -1 = never
	segCount  []int64
	segSum    []int64
	segMax    []int64

	driftChecks   int64
	driftTriggers int64
	lastDrift     *DriftReport
	lastTrigger   int // step of the last trigger; -Cooldown-1 initially

	reoptJob string
	swaps    []SwapRecord

	inc *incidents

	lastError string

	subs   map[int]chan Event
	subSeq int

	tickStop chan struct{} // non-nil while a ticker goroutine runs
}

// Config tunes a Runtime. The zero value is usable: no job manager (drift
// is reported but never acted on), no persistence, up to 64 deployments.
type Config struct {
	// Jobs submits and resolves re-optimization jobs; nil disables
	// automatic re-optimization.
	Jobs Jobs
	// Plans is the plan library drifting deployments consult before
	// paying for a re-optimization, and into which swapped-in plans are
	// published. Nil disables library integration.
	Plans PlanLibrary
	// Dir is the checkpoint directory; empty disables persistence.
	Dir string
	// MaxDeployments bounds the deployment table (default 64).
	MaxDeployments int
	// MaxAdvance caps the steps of a single Advance or Observe call
	// (default 1e6).
	MaxAdvance int
	// Logger receives structured deployment-lifecycle logs (create,
	// drift, trigger, swap, stop), each carrying the deployment ID — and
	// the re-optimization job ID where one is involved. Nil disables
	// logging.
	Logger *slog.Logger
	// Metrics is the registry the runtime's instruments (drift-score
	// distribution, checkpoint write latency) register into. Nil disables
	// metrics.
	Metrics *obs.Registry
}

// deployMetrics bundles the runtime's instruments; all obs instruments
// are nil-safe, so the zero value records nothing.
type deployMetrics struct {
	driftScore  *obs.Histogram
	ckptSeconds *obs.Histogram
	fleetDeps   *obs.Counter
}

func newDeployMetrics(r *obs.Registry) deployMetrics {
	return deployMetrics{
		driftScore: r.Histogram("coverage_deployment_drift_score",
			"Drift scores observed by deployment drift checks.",
			[]float64{0.01, 0.02, 0.05, 0.1, 0.15, 0.2, 0.3, 0.5, 0.75, 1}),
		ckptSeconds: r.Histogram("coverage_deployment_checkpoint_write_seconds",
			"Deployment checkpoint write latency.", obs.DefBuckets),
		fleetDeps: r.Counter("fleet_deployments_total",
			"Fleet (multi-sensor) deployments created."),
	}
}

// Runtime owns the deployment table.
type Runtime struct {
	cfg Config
	log *slog.Logger
	met deployMetrics

	mu     sync.Mutex
	deps   map[string]*deployment
	order  []string
	seq    int
	closed bool
	wg     sync.WaitGroup // ticker goroutines
}

// New builds a Runtime, resumes any checkpointed deployments found in
// cfg.Dir, and restarts their tickers.
func New(cfg Config) (*Runtime, error) {
	if cfg.MaxDeployments <= 0 {
		cfg.MaxDeployments = 64
	}
	if cfg.MaxAdvance <= 0 {
		cfg.MaxAdvance = 1_000_000
	}
	rt := &Runtime{
		cfg:  cfg,
		log:  obs.Component(cfg.Logger, "deploy"),
		deps: make(map[string]*deployment),
	}
	if cfg.Metrics != nil {
		rt.met = newDeployMetrics(cfg.Metrics)
	}
	if cfg.Dir != "" {
		if err := rt.loadCheckpoints(); err != nil {
			return nil, err
		}
	}
	rt.mu.Lock()
	for _, id := range rt.order {
		rt.startTicker(rt.deps[id])
	}
	rt.mu.Unlock()
	return rt, nil
}

// normalize applies defaults and validates the spec, returning the
// normalized copy.
func normalize(spec Spec) (Spec, error) {
	if err := coverage.Validate(spec.Scenario, spec.Objectives); err != nil {
		return Spec{}, fmt.Errorf("%w: %v", ErrSpec, err)
	}
	m := len(spec.Scenario.PoIs)
	if spec.Plan == nil {
		return Spec{}, fmt.Errorf("%w: nil plan", ErrSpec)
	}
	if len(spec.Plan.TransitionMatrix) != m {
		return Spec{}, fmt.Errorf("%w: plan has %d rows for %d PoIs",
			ErrSpec, len(spec.Plan.TransitionMatrix), m)
	}
	if fp := spec.Plan.Fleet; fp != nil {
		if fp.Sensors < 2 {
			return Spec{}, fmt.Errorf("%w: fleet plan with %d sensors", ErrSpec, fp.Sensors)
		}
		if len(fp.TransitionMatrices) != fp.Sensors {
			return Spec{}, fmt.Errorf("%w: fleet plan has %d matrices for %d sensors",
				ErrSpec, len(fp.TransitionMatrices), fp.Sensors)
		}
		for s, rows := range fp.TransitionMatrices {
			if len(rows) != m {
				return Spec{}, fmt.Errorf("%w: fleet matrix %d has %d rows for %d PoIs",
					ErrSpec, s, len(rows), m)
			}
		}
		if err := coverage.ValidateFleet(spec.Scenario, spec.Objectives, fp.Sensors, fp.Responsibility); err != nil {
			return Spec{}, fmt.Errorf("%w: %v", ErrSpec, err)
		}
	}
	if spec.Start < 0 || spec.Start >= m {
		return Spec{}, fmt.Errorf("%w: start %d outside [0, %d)", ErrSpec, spec.Start, m)
	}
	if spec.TickMillis < 0 {
		return Spec{}, fmt.Errorf("%w: negative tickMillis %d", ErrSpec, spec.TickMillis)
	}
	d := &spec.Drift
	if d.Window == 0 {
		d.Window = DefaultWindow
	}
	if d.CheckEvery == 0 {
		d.CheckEvery = DefaultCheckEvery
	}
	if d.MinSamples == 0 {
		d.MinSamples = DefaultMinSamples
	}
	if d.Smoothing == 0 {
		d.Smoothing = DefaultSmoothing
	}
	if d.Threshold == 0 {
		d.Threshold = DefaultThreshold
	}
	if d.Cooldown == 0 {
		d.Cooldown = d.Window
	}
	if d.Window < 2 || d.CheckEvery < 1 || d.Cooldown < 0 {
		return Spec{}, fmt.Errorf("%w: drift window %d / checkEvery %d / cooldown %d",
			ErrSpec, d.Window, d.CheckEvery, d.Cooldown)
	}
	if d.MinSamples < 2 {
		d.MinSamples = 2
	}
	if d.MinSamples > d.Window {
		return Spec{}, fmt.Errorf("%w: minSamples %d exceeds window %d", ErrSpec, d.MinSamples, d.Window)
	}
	if d.Smoothing < 0 || math.IsNaN(d.Smoothing) || math.IsInf(d.Smoothing, 0) {
		return Spec{}, fmt.Errorf("%w: smoothing %v", ErrSpec, d.Smoothing)
	}
	if math.IsNaN(d.Threshold) {
		return Spec{}, fmt.Errorf("%w: NaN threshold", ErrSpec)
	}
	if spec.Reopt.Restarts == 0 {
		spec.Reopt.Restarts = 1
	}
	if spec.Reopt.Restarts < 0 || spec.Reopt.Options.Workers < 0 {
		return Spec{}, fmt.Errorf("%w: reopt restarts %d / workers %d",
			ErrSpec, spec.Reopt.Restarts, spec.Reopt.Options.Workers)
	}
	// The warm start is owned by the runtime; drop anything smuggled in.
	spec.Reopt.Options.InitialMatrix = nil
	spec.Reopt.Options.InitialMatrices = nil
	spec.Reopt.Options.OnProgress = nil
	spec.Reopt.Options.OnIteration = nil
	if len(spec.IncidentRates) == 1 && m > 1 {
		uniform := make([]float64, m)
		for i := range uniform {
			uniform[i] = spec.IncidentRates[0]
		}
		spec.IncidentRates = uniform
	}
	if n := len(spec.IncidentRates); n != 0 && n != m {
		return Spec{}, fmt.Errorf("%w: %d incident rates for %d PoIs", ErrSpec, n, m)
	}
	for i, r := range spec.IncidentRates {
		if r < 0 || math.IsNaN(r) || math.IsInf(r, 0) {
			return Spec{}, fmt.Errorf("%w: incident rate[%d] = %v", ErrSpec, i, r)
		}
	}
	return spec, nil
}

// newDeployment builds the in-memory record for a normalized spec:
// one executor per sensor on the streams streamSeeds lays out, with the
// staggered start positions recorded as step 0.
func newDeployment(id string, spec Spec) (*deployment, error) {
	m := len(spec.Scenario.PoIs)
	ps, err := sensorPlans(spec.Plan)
	if err != nil {
		return nil, err
	}
	seeds, incSeed := streamSeeds(spec.Seed, len(ps))
	d := &deployment{
		id:          id,
		spec:        spec,
		state:       StateActive,
		created:     time.Now().UTC(),
		plan:        spec.Plan,
		execs:       make([]*coverage.Executor, len(ps)),
		wins:        make([][]int, len(ps)),
		visits:      make([]int64, m),
		lastVisit:   make([]int, m),
		segCount:    make([]int64, m),
		segSum:      make([]int64, m),
		segMax:      make([]int64, m),
		lastTrigger: -spec.Drift.Cooldown - 1,
		subs:        make(map[int]chan Event),
	}
	for i := range d.lastVisit {
		d.lastVisit[i] = -1
	}
	starts := make([]int, len(ps))
	for s := range ps {
		starts[s] = sensorStart(spec.Start, s, m)
		if d.execs[s], err = coverage.NewExecutor(ps[s], starts[s], seeds[s]); err != nil {
			return nil, fmt.Errorf("%w: sensor %d: %v", ErrSpec, s, err)
		}
		d.wins[s] = make([]int, spec.Drift.Window)
	}
	if len(spec.IncidentRates) > 0 {
		d.inc = newIncidents(spec.IncidentRates, incSeed)
	}
	d.recordPositions(starts)
	return d, nil
}

// Create validates the spec and starts a new deployment.
func (rt *Runtime) Create(spec Spec) (View, error) {
	spec, err := normalize(spec)
	if err != nil {
		return View{}, err
	}
	rt.mu.Lock()
	if rt.closed {
		rt.mu.Unlock()
		return View{}, ErrShuttingDown
	}
	if len(rt.deps) >= rt.cfg.MaxDeployments {
		rt.mu.Unlock()
		return View{}, ErrLimit
	}
	rt.seq++
	id := fmt.Sprintf("dep-%06d", rt.seq)
	d, err := newDeployment(id, spec)
	if err != nil {
		rt.seq--
		rt.mu.Unlock()
		return View{}, err
	}
	rt.deps[id] = d
	rt.order = append(rt.order, id)
	rt.startTicker(d)
	v := d.view()
	rt.mu.Unlock()

	rt.log.InfoContext(obs.WithDeploymentID(context.Background(), id), "deployment created",
		slog.String("scenario", spec.Scenario.Name),
		slog.Float64("planCost", spec.Plan.Cost),
		slog.Int("sensors", sensorCount(spec.Plan)),
		slog.Int("tickMillis", spec.TickMillis))
	if spec.Plan.Fleet != nil {
		rt.met.fleetDeps.Inc()
	}
	rt.persist(d, true)
	return v, nil
}

// Get returns a snapshot of one deployment.
func (rt *Runtime) Get(id string) (View, error) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	d, ok := rt.deps[id]
	if !ok {
		return View{}, ErrNotFound
	}
	return d.view(), nil
}

// List returns snapshots of every deployment in creation order.
func (rt *Runtime) List() []View {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	out := make([]View, 0, len(rt.order))
	for _, id := range rt.order {
		out = append(out, rt.deps[id].view())
	}
	return out
}

// Advance draws `steps` transitions from the deployed plan and applies
// them. A pending re-optimization job is resolved (and the plan swapped)
// before the first draw.
func (rt *Runtime) Advance(id string, steps int) (View, error) {
	if steps < 1 || steps > rt.cfg.MaxAdvance {
		return View{}, fmt.Errorf("%w: advance of %d steps (max %d)", ErrSpec, steps, rt.cfg.MaxAdvance)
	}
	rt.mu.Lock()
	d, ok := rt.deps[id]
	if !ok {
		rt.mu.Unlock()
		return View{}, ErrNotFound
	}
	if d.state != StateActive {
		rt.mu.Unlock()
		return View{}, ErrStopped
	}
	rt.resolveReopt(d)
	pois := make([]int, len(d.execs))
	for i := 0; i < steps; i++ {
		for s, e := range d.execs {
			pois[s] = e.Next()
		}
		rt.applyStep(d, pois)
	}
	v := d.view()
	rt.mu.Unlock()

	rt.persist(d, false)
	return v, nil
}

// Observe applies an externally observed position sequence: the deployed
// sensor was seen at pois[0], then pois[1], … . Observations reposition
// the executor without consuming randomness, so self-driven and
// externally-driven segments can interleave freely. Only single-sensor
// deployments accept observations.
func (rt *Runtime) Observe(id string, pois []int) (View, error) {
	if len(pois) == 0 || len(pois) > rt.cfg.MaxAdvance {
		return View{}, fmt.Errorf("%w: %d observations (max %d)", ErrSpec, len(pois), rt.cfg.MaxAdvance)
	}
	rt.mu.Lock()
	d, ok := rt.deps[id]
	if !ok {
		rt.mu.Unlock()
		return View{}, ErrNotFound
	}
	if d.state != StateActive {
		rt.mu.Unlock()
		return View{}, ErrStopped
	}
	if len(d.execs) > 1 {
		// Observations carry one position per step; a K-sensor fleet would
		// need K-tuples, and partially observed fleets raise attribution
		// questions (which sensor moved?) this runtime does not answer.
		rt.mu.Unlock()
		return View{}, fmt.Errorf("%w: observations are not supported for fleet deployments", ErrSpec)
	}
	m := len(d.visits)
	for i, p := range pois {
		if p < 0 || p >= m {
			rt.mu.Unlock()
			return View{}, fmt.Errorf("%w: observation %d = %d outside [0, %d)", ErrSpec, i, p, m)
		}
	}
	rt.resolveReopt(d)
	for i, p := range pois {
		// Jump cannot fail: the range was checked above.
		_ = d.execs[0].Jump(p)
		rt.applyStep(d, pois[i:i+1])
	}
	v := d.view()
	rt.mu.Unlock()

	rt.persist(d, false)
	return v, nil
}

// Stop terminates a deployment. Its statistics and history remain
// queryable; its ticker and event streams shut down.
func (rt *Runtime) Stop(id string) (View, error) {
	rt.mu.Lock()
	d, ok := rt.deps[id]
	if !ok {
		rt.mu.Unlock()
		return View{}, ErrNotFound
	}
	if d.state != StateActive {
		v := d.view()
		rt.mu.Unlock()
		return v, ErrStopped
	}
	rt.stopLocked(d)
	v := d.view()
	rt.mu.Unlock()

	rt.persist(d, false)
	return v, nil
}

// stopLocked marks the deployment stopped, halts its ticker, emits the
// terminal event, and closes every subscriber. Callers hold rt.mu.
func (rt *Runtime) stopLocked(d *deployment) {
	d.state = StateStopped
	d.stopped = time.Now().UTC()
	if d.tickStop != nil {
		close(d.tickStop)
		d.tickStop = nil
	}
	rt.log.InfoContext(obs.WithDeploymentID(context.Background(), d.id), "deployment stopped",
		slog.Int("step", d.step))
	d.emit(Event{Type: "stopped", Deployment: d.id, Step: d.step})
	for _, ch := range d.subs {
		close(ch)
	}
	d.subs = make(map[int]chan Event)
}

// Subscribe attaches an event stream to a deployment. The returned cancel
// function detaches it; the channel closes when the deployment stops or
// the runtime shuts down.
func (rt *Runtime) Subscribe(id string) (<-chan Event, func(), error) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	d, ok := rt.deps[id]
	if !ok {
		return nil, nil, ErrNotFound
	}
	if d.state != StateActive {
		return nil, nil, ErrStopped
	}
	d.subSeq++
	key := d.subSeq
	ch := make(chan Event, 64)
	d.subs[key] = ch
	cancel := func() {
		rt.mu.Lock()
		defer rt.mu.Unlock()
		if _, live := d.subs[key]; live {
			delete(d.subs, key)
			close(ch)
		}
	}
	return ch, cancel, nil
}

// Stats summarizes the runtime for health checks and /metrics.
type Stats struct {
	Active        int   `json:"active"`
	Stopped       int   `json:"stopped"`
	StepsTotal    int64 `json:"stepsTotal"`
	DriftChecks   int64 `json:"driftChecks"`
	DriftTriggers int64 `json:"driftTriggers"`
	Swaps         int64 `json:"swaps"`
	PendingReopts int   `json:"pendingReopts"`
}

// Stat returns aggregate counters across all deployments.
func (rt *Runtime) Stat() Stats {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	var s Stats
	for _, d := range rt.deps {
		if d.state == StateActive {
			s.Active++
		} else {
			s.Stopped++
		}
		s.StepsTotal += int64(d.step)
		s.DriftChecks += d.driftChecks
		s.DriftTriggers += d.driftTriggers
		s.Swaps += int64(len(d.swaps))
		if d.reoptJob != "" {
			s.PendingReopts++
		}
	}
	return s
}

// Shutdown stops tickers and event streams, checkpoints every
// deployment, and leaves active deployments active on disk so a restart
// resumes them. It does not stop the job manager.
func (rt *Runtime) Shutdown() {
	rt.mu.Lock()
	rt.closed = true
	var all []*deployment
	for _, d := range rt.deps {
		all = append(all, d)
		if d.tickStop != nil {
			close(d.tickStop)
			d.tickStop = nil
		}
		for _, ch := range d.subs {
			close(ch)
		}
		d.subs = make(map[int]chan Event)
	}
	rt.mu.Unlock()
	rt.wg.Wait()
	for _, d := range all {
		rt.persist(d, false)
	}
}

// startTicker launches the self-advancing goroutine for deployments with
// TickMillis set. Callers hold rt.mu; only active deployments tick.
func (rt *Runtime) startTicker(d *deployment) {
	if d.spec.TickMillis <= 0 || d.state != StateActive || rt.closed {
		return
	}
	stop := make(chan struct{})
	d.tickStop = stop
	rt.wg.Add(1)
	go func() {
		defer rt.wg.Done()
		t := time.NewTicker(time.Duration(d.spec.TickMillis) * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				// Advance re-checks liveness under the lock; an error here
				// means the deployment stopped between the tick and the call.
				_, _ = rt.Advance(d.id, 1)
			}
		}
	}()
}

// applyStep records one lockstep position vector (drawn or observed)
// and runs the drift check at its cadence. Callers hold rt.mu.
func (rt *Runtime) applyStep(d *deployment, pois []int) {
	d.recordPositions(pois)
	if d.step%d.spec.Drift.CheckEvery == 0 {
		rt.checkDrift(d)
	}
}

// checkDrift fits the window estimates, scores them against the
// deployed plan, and swaps in a cached plan or submits a warm-started
// re-optimization when warranted. Callers hold rt.mu.
func (rt *Runtime) checkDrift(d *deployment) {
	if d.winLen < d.spec.Drift.MinSamples {
		return
	}
	rep, estimates, err := d.driftReport()
	if err != nil {
		d.lastError = fmt.Sprintf("drift check: %v", err)
		d.emit(Event{Type: "error", Deployment: d.id, Step: d.step, Data: d.lastError})
		return
	}
	rep.Step = d.step
	d.driftChecks++
	rt.met.driftScore.Observe(rep.Score)
	lctx := obs.WithDeploymentID(context.Background(), d.id)

	thr := d.spec.Drift.Threshold
	canTrigger := (rt.cfg.Jobs != nil || rt.cfg.Plans != nil) && thr >= 0 && rep.Score >= thr &&
		d.reoptJob == "" && d.step-d.lastTrigger > d.spec.Drift.Cooldown
	if canTrigger && rt.cfg.Plans != nil {
		// Before paying for a search: the library may already hold this
		// exact problem at a cost below the deployed plan's (published by
		// another deployment, a direct query, or an earlier job). An exact
		// hit that improves on what is running swaps in immediately. The
		// lookup is keyed by fleet size and responsibility split.
		cached, dist, ok := rt.cfg.Plans.WarmStart(d.spec.Scenario, d.spec.Objectives,
			len(d.execs), responsibility(d.plan))
		if ok && dist == 0 && cached.Cost < d.plan.Cost {
			rep.Triggered = true
			d.driftTriggers++
			d.lastTrigger = d.step
			d.lastError = ""
			d.lastDrift = rep
			rt.log.InfoContext(lctx, "drift resolved from plan library",
				slog.Float64("score", rep.Score),
				slog.Int("step", d.step),
				slog.Float64("cachedCost", cached.Cost))
			d.emit(Event{Type: "trigger", Deployment: d.id, Step: d.step, Data: rep})
			rt.swapTo(d, cached, "")
			return
		}
	}
	if canTrigger && rt.cfg.Jobs != nil {
		v, err := rt.cfg.Jobs.SubmitCtx(lctx, d.reoptSpec(estimates))
		if err != nil {
			// Queue full or shutting down: report and retry at the next
			// check rather than dropping the trigger permanently.
			d.lastError = fmt.Sprintf("reopt submit: %v", err)
			rt.log.WarnContext(lctx, "re-optimization submit failed",
				slog.String("error", err.Error()))
			d.emit(Event{Type: "error", Deployment: d.id, Step: d.step, Data: d.lastError})
		} else {
			rep.Triggered = true
			d.reoptJob = v.ID
			d.driftTriggers++
			d.lastTrigger = d.step
			d.lastError = ""
			rt.log.InfoContext(obs.WithJobID(lctx, v.ID), "drift triggered re-optimization",
				slog.Float64("score", rep.Score),
				slog.Int("step", d.step))
		}
	}
	d.lastDrift = rep
	if rep.Triggered {
		d.emit(Event{Type: "trigger", Deployment: d.id, Step: d.step, Data: rep})
	} else {
		rt.log.DebugContext(lctx, "drift check",
			slog.Float64("score", rep.Score),
			slog.Int("step", d.step))
		d.emit(Event{Type: "drift", Deployment: d.id, Step: d.step, Data: rep})
	}
}

// NoteJobProgress forwards a job progress sample onto the event stream
// of the deployment waiting on that job (if any) as a "reopt-progress"
// event. Wire it to jobs.Manager.SetProgressListener so subscribers
// watching a drifting deployment see its re-optimization converge live.
func (rt *Runtime) NoteJobProgress(jobID string, p coverage.Progress) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	for _, d := range rt.deps {
		if d.reoptJob == jobID {
			d.emit(Event{Type: "reopt-progress", Deployment: d.id, Step: d.step, Data: p})
			return
		}
	}
}

// resolveReopt settles a pending re-optimization job: done → hot-swap,
// failed/cancelled → clear. Callers hold rt.mu.
func (rt *Runtime) resolveReopt(d *deployment) {
	if d.reoptJob == "" || rt.cfg.Jobs == nil {
		return
	}
	v, err := rt.cfg.Jobs.Get(d.reoptJob)
	if err != nil {
		// The job vanished (e.g. jobs run without persistence across a
		// restart); clear so drift can re-trigger.
		d.lastError = fmt.Sprintf("reopt job %s: %v", d.reoptJob, err)
		d.reoptJob = ""
		return
	}
	if !v.State.Terminal() {
		return
	}
	jobID := d.reoptJob
	d.reoptJob = ""
	if v.State != jobs.StateDone {
		d.lastError = fmt.Sprintf("reopt job %s ended %s", jobID, v.State)
		d.emit(Event{Type: "error", Deployment: d.id, Step: d.step, Data: d.lastError})
		return
	}
	plan, err := rt.cfg.Jobs.Plan(jobID)
	if err != nil {
		d.lastError = fmt.Sprintf("reopt job %s plan: %v", jobID, err)
		d.emit(Event{Type: "error", Deployment: d.id, Step: d.step, Data: d.lastError})
		return
	}
	rt.swapTo(d, plan, jobID)
}

// swapTo installs a new plan atomically: the executors keep their
// positions and random streams, the drift windows reset so the next
// score reflects only post-swap behavior, and the swap is recorded.
// Callers hold rt.mu.
func (rt *Runtime) swapTo(d *deployment, plan *coverage.Plan, jobID string) {
	if err := d.swapPlans(plan); err != nil {
		d.lastError = fmt.Sprintf("swap: %v", err)
		d.emit(Event{Type: "error", Deployment: d.id, Step: d.step, Data: d.lastError})
		return
	}
	rec := SwapRecord{
		Step:    d.step,
		JobID:   jobID,
		At:      time.Now().UTC(),
		OldCost: d.plan.Cost,
		NewCost: plan.Cost,
	}
	if d.lastDrift != nil {
		rec.DriftScore = d.lastDrift.Score
		rec.EmpiricalDeltaC = d.lastDrift.EmpiricalDeltaC
	}
	d.plan = plan
	d.swaps = append(d.swaps, rec)
	d.winStart, d.winLen = 0, 0
	d.lastDrift = nil
	d.lastError = ""
	lctx := obs.WithJobID(obs.WithDeploymentID(context.Background(), d.id), jobID)
	rt.log.InfoContext(lctx, "plan hot-swapped",
		slog.Int("step", d.step),
		slog.Float64("oldCost", rec.OldCost),
		slog.Float64("newCost", rec.NewCost))
	d.emit(Event{Type: "swap", Deployment: d.id, Step: d.step, Data: rec})
	if rt.cfg.Plans != nil && jobID != "" {
		// Feed the adopted plan back into the library (best-cost wins
		// there, so a worse duplicate is a no-op). Library-sourced swaps
		// (jobID == "") are already cached.
		rt.cfg.Plans.PublishPlan(d.spec.Scenario, d.spec.Objectives, plan, jobID)
	}
}

// emit fans an event out to subscribers, dropping it for any subscriber
// whose buffer is full (a slow SSE client must not stall the walk).
// Callers hold rt.mu.
func (d *deployment) emit(ev Event) {
	for _, ch := range d.subs {
		select {
		case ch <- ev:
		default:
		}
	}
}

// view snapshots the deployment; callers hold rt.mu.
func (d *deployment) view() View {
	m := len(d.visits)
	v := View{
		ID:            d.id,
		State:         d.state,
		Scenario:      d.spec.Scenario.Name,
		Created:       d.created,
		Step:          d.step,
		Current:       d.execs[0].Current(),
		PlanCost:      d.plan.Cost,
		Coverage:      make([]float64, m),
		Target:        append([]float64(nil), d.spec.Scenario.Target...),
		OpenExposure:  make([]int64, m),
		MeanExposure:  make([]float64, m),
		MaxExposure:   append([]int64(nil), d.segMax...),
		DriftChecks:   d.driftChecks,
		DriftTriggers: d.driftTriggers,
		ReoptJob:      d.reoptJob,
		Swaps:         append([]SwapRecord(nil), d.swaps...),
		LastError:     d.lastError,
	}
	for _, e := range d.execs {
		v.Faults += e.Faults()
	}
	// Single-sensor views omit the fleet fields, so their JSON stays what
	// single-sensor clients already parse.
	if len(d.execs) > 1 {
		v.Sensors = len(d.execs)
		v.Positions = make([]int, len(d.execs))
		for s, e := range d.execs {
			v.Positions[s] = e.Current()
		}
	}
	if !d.stopped.IsZero() {
		t := d.stopped
		v.Stopped = &t
	}
	for i := 0; i < m; i++ {
		v.Coverage[i] = float64(d.visits[i]) / float64(d.step)
		g := v.Coverage[i] - v.Target[i]
		v.EmpiricalDeltaC += g * g
		if d.lastVisit[i] >= 0 {
			v.OpenExposure[i] = int64(d.step - 1 - d.lastVisit[i])
		} else {
			v.OpenExposure[i] = int64(d.step)
		}
		if d.segCount[i] > 0 {
			v.MeanExposure[i] = float64(d.segSum[i]) / float64(d.segCount[i])
		}
	}
	if d.lastDrift != nil {
		rep := *d.lastDrift
		v.Drift = &rep
	}
	if d.inc != nil {
		v.Incidents = d.inc.stats()
	}
	return v
}
