package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/coverage"
	"repro/internal/deploy"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/plans"
	"repro/internal/rng"
)

// Serving-layer load shape. The server is wired as cmd/serve wires it
// with its default flags; the load is one open-loop generator on a
// seeded schedule over at most nproc connections.
const (
	serveWorkers       = 2  // -workers
	serveQueue         = 16 // -queue
	serveMaxJobWorkers = 1  // -max-job-workers
	serveConns         = 2  // client connections (nproc on the reference box)

	seededEntries = plans.DefaultCapacity * 3 / 2 // more than the LRU holds
	queryBatch    = 8
	queryEvery    = 10 * time.Millisecond // exact-hit batches
	jobEvery      = 2 * time.Second       // direct job submissions
	fleetEvery    = 4                     // one direct job in fleetEvery is the fleet job
	fillEvery     = 4 * time.Second       // perturbed-target queries (fill jobs)
	// The job streams are phased so their jobs (each well under
	// 0.5 s here) seldom overlap: overlap depends on timing, and two
	// jobs on two cores would set the read latencies by chance.
	jobOffset     = 100 * time.Millisecond
	fillOffset    = 700 * time.Millisecond
	driftOffset   = 2700 * time.Millisecond
	advanceEvery  = 100 * time.Millisecond
	advanceSteps  = 256
	driftEvery    = 4 * time.Second
	obsBatch      = 64
	maxObsPosts   = 64
	drainTimeout  = 60 * time.Second
	advanceReplay = 20
	queryReplay   = 200
)

// Problems the serve streams draw from, by corpus name.
var (
	jobPool = []string{
		"paper-topologies/topology-3",
		"ring-sweep/ring-6",
		"energy-budget/energy-w0.5",
		"incident-arrivals/incidents-s1",
	}
	fleetProblem  = "fleet/fleet-joint"
	deployProblem = "line-sweep/line-4"
)

// serveDrift is the deployment's drift detector: a window long enough
// that the deployed plan's own walk stays below the threshold.
var serveDrift = deploy.DriftConfig{Window: 512, CheckEvery: 64, MinSamples: 256, Threshold: 0.2}

// entry is one seeded plan-library entry with its exact-hit query.
type entry struct {
	query plans.Query
	fp    coverage.Fingerprint
	plan  *coverage.Plan
}

// serveEnv is one running server and the benchmark's hooks into it.
type serveEnv struct {
	dir    string
	reg    *obs.Registry
	store  *timedStore
	mgr    *jobs.Manager
	svc    *plans.Service
	rt     *deploy.Runtime
	srv    *http.Server
	served chan error
	base   string
	client *http.Client
	reqs   atomic.Int64

	probs   map[string]*problem
	entries []entry
	depID   string

	mu       sync.Mutex
	doneAt   map[string]time.Time
	badFleet map[string]error
	waiters  map[string]chan struct{}
}

// startServe builds the problems, wires the server, seeds the plan
// library and creates the deployment: everything before load starts.
func startServe(seed uint64) (*serveEnv, error) {
	probs, err := corpusProblems(seed)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Join(buildDir, "tmp"), 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(filepath.Join(buildDir, "tmp"), "serve-")
	if err != nil {
		return nil, err
	}
	e := &serveEnv{
		dir:      dir,
		probs:    make(map[string]*problem),
		doneAt:   make(map[string]time.Time),
		badFleet: make(map[string]error),
		waiters:  make(map[string]chan struct{}),
	}
	for _, p := range probs {
		e.probs[p.name] = p
	}
	for _, name := range append([]string{fleetProblem, deployProblem}, jobPool...) {
		if e.probs[name] == nil {
			os.RemoveAll(dir)
			return nil, fmt.Errorf("corpus has no problem %q", name)
		}
	}
	if err := e.start(); err != nil {
		e.close()
		return nil, err
	}
	if e.entries, err = seedEntries(probs, seed); err != nil {
		e.close()
		return nil, err
	}
	for _, en := range e.entries {
		if _, err := e.svc.Library().Publish(en.query.Scenario, en.query.Objectives, en.plan, plans.Provenance{Source: "seed"}); err != nil {
			e.close()
			return nil, err
		}
	}
	if err := e.createDeployment(seed); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// start wires jobs, plans, deploy and HTTP the way cmd/serve does, with
// the benchmark's timing store and done listener spliced in.
func (e *serveEnv) start() error {
	logger, err := obs.NewLogger(io.Discard, "info", "text")
	if err != nil {
		return err
	}
	fs, err := jobs.NewFSStore(e.dir)
	if err != nil {
		return err
	}
	e.store = &timedStore{fs: fs}
	e.reg = obs.NewRegistry()
	httpHist := e.reg.HistogramVec("http_request_duration_seconds",
		"HTTP request latency by route pattern and status code.",
		obs.DefBuckets, "route", "status")
	e.mgr, err = jobs.New(jobs.Config{
		Workers:       serveWorkers,
		QueueDepth:    serveQueue,
		MaxJobWorkers: serveMaxJobWorkers,
		Store:         e.store,
		Logger:        logger,
		Metrics:       e.reg,
	})
	if err != nil {
		return err
	}
	lib, err := plans.New(plans.Config{Store: e.store, Capacity: plans.DefaultCapacity, Logger: logger, Metrics: e.reg})
	if err != nil {
		return err
	}
	e.svc, err = plans.NewService(plans.ServiceConfig{Library: lib, Jobs: e.mgr, Logger: logger, Metrics: e.reg})
	if err != nil {
		return err
	}
	e.mgr.SetDoneListener(e.onDone)
	e.rt, err = deploy.New(deploy.Config{Jobs: e.mgr, Plans: lib, Dir: e.dir, Logger: logger, Metrics: e.reg})
	if err != nil {
		return err
	}
	e.mgr.SetProgressListener(e.rt.NoteJobProgress)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	mux := http.NewServeMux()
	mux.Handle("/", e.mgr.Handler())
	mux.Handle("/deployments", e.rt.Handler())
	mux.Handle("/deployments/", e.rt.Handler())
	planAPI := e.svc.Handler()
	mux.Handle("POST /plans:query", planAPI)
	mux.Handle("/plans", planAPI)
	mux.Handle("/plans/", planAPI)
	mux.Handle("GET /metrics", e.reg.Handler())
	e.srv = &http.Server{Handler: obs.Middleware(mux, obs.Component(logger, "http"), httpHist)}
	e.served = make(chan error, 1)
	go func() { e.served <- e.srv.Serve(ln) }()
	e.base = "http://" + ln.Addr().String()
	e.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     serveConns,
		MaxIdleConnsPerHost: serveConns,
	}}
	return nil
}

// close stops the server, the deployments and the job pool, waits for
// them, and removes the scratch store.
func (e *serveEnv) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	var errs []error
	if e.srv != nil {
		errs = append(errs, e.srv.Shutdown(ctx))
		if err := <-e.served; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
		e.client.CloseIdleConnections()
	}
	if e.rt != nil {
		e.rt.Shutdown()
	}
	if e.mgr != nil {
		errs = append(errs, e.mgr.Shutdown(ctx))
	}
	errs = append(errs, os.RemoveAll(e.dir))
	return errors.Join(errs...)
}

// onDone runs in front of the plan service's listener: it timestamps
// the completion, checks fleet plans, and wakes a waiting deploy cycle.
func (e *serveEnv) onDone(id string, spec jobs.Spec, plan *coverage.Plan) {
	now := time.Now()
	e.mu.Lock()
	e.doneAt[id] = now
	if spec.Sensors >= 2 && (plan == nil || plan.Fleet == nil || len(plan.Fleet.TransitionMatrices) != spec.Sensors) {
		e.badFleet[id] = fmt.Errorf("fleet job %s: plan without %d matrices", id, spec.Sensors)
	}
	if ch, ok := e.waiters[id]; ok {
		close(ch)
		delete(e.waiters, id)
	}
	e.mu.Unlock()
	e.svc.OnJobDone(id, spec, plan)
}

// doneChan returns a channel closed once job id is done.
func (e *serveEnv) doneChan(id string) <-chan struct{} {
	e.mu.Lock()
	defer e.mu.Unlock()
	ch := make(chan struct{})
	if _, done := e.doneAt[id]; done {
		close(ch)
		return ch
	}
	if old, ok := e.waiters[id]; ok {
		return old
	}
	e.waiters[id] = ch
	return ch
}

// seedEntries builds the seeded library: every distinct single-sensor
// corpus problem, then seeded target perturbations of them until there
// are seededEntries, each with its floored Metropolis baseline
// evaluated as the cached plan.
func seedEntries(probs []*problem, seed uint64) ([]entry, error) {
	var singles []*problem
	for _, p := range probs {
		if !p.fleet() {
			singles = append(singles, p)
		}
	}
	src := rng.New(mixSeed(0x5eed, seed))
	seen := make(map[coverage.Fingerprint]bool)
	var out []entry
	for i := 0; len(out) < seededEntries; i++ {
		p := singles[i%len(singles)]
		scn := p.scn
		if i >= len(singles) {
			scn.Name = fmt.Sprintf("%s~%d", p.name, i)
			scn.Target = perturbTarget(p.scn.Target, src)
		}
		fp, err := coverage.ScenarioFingerprint(scn, p.obj)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", scn.Name, err)
		}
		if seen[fp] {
			continue
		}
		seen[fp] = true
		base, err := flooredBaseline(scn)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", scn.Name, err)
		}
		plan, err := coverage.EvaluateMatrix(scn, p.obj, base)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", scn.Name, err)
		}
		out = append(out, entry{
			query: plans.Query{Scenario: scn, Objectives: p.obj, NoSpawn: true},
			fp:    fp,
			plan:  plan,
		})
	}
	return out, nil
}

// perturbTarget scales each target share by a seeded log-normal factor
// and renormalizes.
func perturbTarget(target []float64, src *rng.Source) []float64 {
	out := make([]float64, len(target))
	var sum float64
	for i, t := range target {
		out[i] = t * math.Exp(src.Norm(0, 0.2))
		sum += out[i]
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}

// createDeployment deploys the deploy problem's seeded baseline plan
// over HTTP.
func (e *serveEnv) createDeployment(seed uint64) error {
	p := e.probs[deployProblem]
	fp, err := coverage.ScenarioFingerprint(p.scn, p.obj)
	if err != nil {
		return err
	}
	var plan *coverage.Plan
	for _, en := range e.entries {
		if en.fp == fp {
			plan = en.plan
			break
		}
	}
	if plan == nil {
		return fmt.Errorf("no seeded plan for %s", deployProblem)
	}
	body, err := json.Marshal(deploy.Spec{
		Scenario:   p.scn,
		Objectives: p.obj,
		Plan:       plan,
		Seed:       seed,
		Drift:      serveDrift,
		Reopt:      deploy.ReoptConfig{Options: coverage.Options{MaxIters: p.opts.MaxIters, Seed: p.opts.Seed}},
	})
	if err != nil {
		return err
	}
	var v deploy.View
	if err := e.call(http.MethodPost, "/deployments", body, http.StatusCreated, &v); err != nil {
		return err
	}
	e.depID = v.ID
	return nil
}

// call sends one request and decodes the JSON answer into out (when
// non-nil). A status other than want is an error.
func (e *serveEnv) call(method, path string, body []byte, want int, out any) error {
	raw, err := e.send(method, path, body, want)
	if err != nil || out == nil {
		return err
	}
	if err := json.Unmarshal(raw, out); err != nil {
		return fmt.Errorf("%s %s: decode: %w", method, path, err)
	}
	return nil
}

// send sends one request with a fresh request ID and returns the body.
func (e *serveEnv) send(method, path string, body []byte, want int) ([]byte, error) {
	req, err := http.NewRequest(method, e.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-ID", "bench-"+strconv.FormatInt(e.reqs.Add(1), 10))
	resp, err := e.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, strings.TrimSpace(string(raw)))
	}
	return raw, nil
}

// timedStore wraps the filesystem store the job manager and the plan
// library share. It forwards CompareAndSwap, so the manager takes the
// same CAS code path it takes on a bare FSStore. While a tracer is set
// it times every write and attributes it to a job by blob name.
type timedStore struct {
	fs     *jobs.FSStore
	tracer atomic.Pointer[tracer] // nil: not recording

	mu   sync.Mutex
	puts []storeOp
}

type storeOp struct {
	owner string // job ID, or "" for plan-library entries
	us    float64
	bytes int
}

// blobOwner maps a blob name ("job-000001.plan.json") to its job ID.
func blobOwner(name string) string {
	if id, _, ok := strings.Cut(name, "."); ok && strings.HasPrefix(id, "job-") {
		return id
	}
	return ""
}

func (s *timedStore) note(op, name string, start time.Time, n int) {
	tr := s.tracer.Load()
	if tr == nil {
		return
	}
	end := time.Now()
	owner := blobOwner(name)
	tr.add(0, op, owner, start, end)
	s.mu.Lock()
	s.puts = append(s.puts, storeOp{owner: owner, us: float64(end.Sub(start).Nanoseconds()) / 1e3, bytes: n})
	s.mu.Unlock()
}

func (s *timedStore) Get(name string) ([]byte, error) { return s.fs.Get(name) }
func (s *timedStore) List() ([]string, error)         { return s.fs.List() }
func (s *timedStore) Delete(name string) error        { return s.fs.Delete(name) }

func (s *timedStore) Put(name string, blob []byte) error {
	t0 := time.Now()
	err := s.fs.Put(name, blob)
	s.note("store.put", name, t0, len(blob))
	return err
}

func (s *timedStore) CompareAndSwap(name string, old, new []byte) error {
	t0 := time.Now()
	err := s.fs.CompareAndSwap(name, old, new)
	s.note("store.cas", name, t0, len(new))
	return err
}

// Event kinds of the load schedule.
const (
	evQuery = iota
	evFill
	evJob
	evAdvance
	evDrift
)

type event struct {
	at   time.Duration // offset from the phase start
	kind int
	body []byte                 // request body (queries and jobs)
	want []coverage.Fingerprint // exact-hit queries
}

// schedule builds one phase's seeded open-loop schedule.
func (e *serveEnv) schedule(seed uint64, dur time.Duration) ([]event, error) {
	src := rng.New(seed)
	var evs []event
	periodic := func(kind int, every, offset time.Duration, build func(n int) (event, error)) error {
		for n, at := 0, offset; at < dur; n, at = n+1, at+every {
			ev, err := build(n)
			if err != nil {
				return err
			}
			ev.at, ev.kind = at, kind
			evs = append(evs, ev)
		}
		return nil
	}
	err := errors.Join(
		periodic(evQuery, queryEvery, 0, func(int) (event, error) {
			var ev event
			qs := make([]plans.Query, queryBatch)
			for i := range qs {
				en := e.entries[src.IntN(len(e.entries))]
				qs[i] = en.query
				ev.want = append(ev.want, en.fp)
			}
			var err error
			ev.body, err = json.Marshal(plans.QueryRequest{Queries: qs})
			return ev, err
		}),
		periodic(evFill, fillEvery, fillOffset, func(n int) (event, error) {
			p := e.probs[jobPool[n%len(jobPool)]]
			scn := p.scn
			scn.Name = fmt.Sprintf("%s~fill%d", p.name, n)
			scn.Target = perturbTarget(p.scn.Target, src)
			body, err := json.Marshal(plans.QueryRequest{Queries: []plans.Query{{
				Scenario: scn, Objectives: p.obj,
				Options:  coverage.Options{MaxIters: p.opts.MaxIters, Seed: p.opts.Seed},
				Restarts: p.restarts,
			}}})
			return event{body: body}, err
		}),
		periodic(evJob, jobEvery, jobOffset, func(n int) (event, error) {
			name := jobPool[n%len(jobPool)]
			if n%fleetEvery == fleetEvery-1 {
				name = fleetProblem
			}
			p := e.probs[name]
			body, err := json.Marshal(jobs.Spec{
				Scenario: p.scn, Objectives: p.obj,
				Options:  coverage.Options{MaxIters: p.opts.MaxIters, Seed: p.opts.Seed},
				Restarts: p.restarts, Sensors: p.sensors, Responsibility: p.resp,
			})
			return event{body: body}, err
		}),
		periodic(evAdvance, advanceEvery, advanceEvery/2, func(int) (event, error) { return event{}, nil }),
		periodic(evDrift, driftEvery, driftOffset, func(int) (event, error) { return event{}, nil }),
	)
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].at < evs[j].at })
	return evs, err
}

// submitted is one job the load created.
type submitted struct {
	id  string
	err error // submission failure
}

// phase is what one load phase measured.
type phase struct {
	queryMs, lagMs []float64
	jobs           []submitted // direct jobs, in schedule order
	fills          []submitted
	reopts         []string
	backlogMax     int
}

// tracedLoad runs one traced load phase and sets the serving-layer
// metrics from it: jobs, store, plans, HTTP, deploy and the generator's
// lag, plus direct QueryBatch and Advance replays.
func (e *serveEnv) tracedLoad(r *run, seed uint64, dur time.Duration) error {
	before := scrape(e.reg)
	depBefore := e.rt.Stat()
	e.store.tracer.Store(r.spans)
	traced, err := e.load(r, seed, dur)
	e.store.tracer.Store(nil)
	if err != nil {
		return err
	}
	after := scrape(e.reg)
	depAfter := e.rt.Stat()

	// jobs: every job the traced phase created.
	var waits, runs []float64
	ids := append(append([]string(nil), traced.reopts...), submittedIDs(traced.jobs)...)
	ids = append(ids, submittedIDs(traced.fills)...)
	for _, id := range ids {
		v, err := e.mgr.Get(id)
		if err != nil || v.Started == nil || v.Finished == nil {
			continue
		}
		waits = append(waits, ms(v.Started.Sub(v.Created)))
		runs = append(runs, ms(v.Finished.Sub(*v.Started)))
	}
	r.setLayer("jobs.queue_wait_ms_p50", "ms", median(waits))
	r.setLayer("jobs.run_ms_p50", "ms", median(runs))
	r.setLayer("jobs.backlog_max", "count", float64(traced.backlogMax))

	// store: writes during the traced phase, attributed to jobs.
	var putUs []float64
	var jobPuts, jobBytes int
	owners := make(map[string]bool)
	e.store.mu.Lock()
	puts := append([]storeOp(nil), e.store.puts...)
	e.store.puts = nil
	e.store.mu.Unlock()
	for _, op := range puts {
		putUs = append(putUs, op.us)
		if op.owner != "" {
			jobPuts++
			jobBytes += op.bytes
			owners[op.owner] = true
		}
	}
	r.setLayer("store.put_ms_p50", "ms", median(putUs)/1e3)
	r.setLayer("store.put_ms_p99", "ms", quantile(putUs, 0.99)/1e3)
	r.setLayer("store.puts_per_job", "count", ratio(float64(jobPuts), float64(len(owners))))
	r.setLayer("store.put_bytes_per_job", "bytes", ratio(float64(jobBytes), float64(len(owners))))

	// plans: registry deltas over the traced phase, then direct batches.
	delta := func(prefix string) float64 { return after.sum(prefix) - before.sum(prefix) }
	r.setLayer("plans.hit_ratio", "ratio", ratio(delta(`plans_queries_total{status="hit"}`), delta("plans_queries_total")))
	r.setLayer("plans.memory_hit_share", "ratio", ratio(delta(`plans_lookup_hits_total{tier="memory"}`), delta("plans_lookup_hits_total")))
	r.setLayer("plans.warm_start_ratio", "ratio", ratio(delta("plans_warm_starts_total"), delta("plans_jobs_spawned_total")))
	r.setLayer("plans.evictions", "count", delta("plans_evictions_total"))
	queryUs, err := e.replayQueries(r)
	if err != nil {
		return err
	}
	r.setLayer("plans.query_us_p50", "us", median(queryUs))
	r.setLayer("http.overhead_us", "us", median(traced.queryMs)*1e3-median(queryUs))

	// deploy: drift-check density over the traced phase, then direct
	// advances.
	steps := float64(depAfter.StepsTotal - depBefore.StepsTotal)
	r.setLayer("deploy.drift_checks_per_kstep", "count", ratio(float64(depAfter.DriftChecks-depBefore.DriftChecks), steps/1e3))
	var advUs []float64
	for i := 0; i < advanceReplay; i++ {
		t0 := time.Now()
		if _, err := e.rt.Advance(e.depID, advanceSteps); err != nil {
			return fmt.Errorf("replay advance: %w", err)
		}
		r.spans.add(0, "deploy.advance", e.depID, t0, time.Now())
		advUs = append(advUs, float64(time.Since(t0).Nanoseconds())/1e3/advanceSteps)
	}
	r.setLayer("deploy.advance_us_per_step", "us", median(advUs))

	r.setLayer("gen.lag_ms_p99", "ms", quantile(traced.lagMs, 0.99))
	return nil
}

// serveLayers measures the serving layers for a workload that does not
// serve (the corpus traced run): a fresh server over the corpus
// problems and one traced load phase of dur.
func serveLayers(r *run, dur time.Duration) error {
	e, err := startServe(r.seed)
	if err != nil {
		return err
	}
	return errors.Join(e.tracedLoad(r, mixSeed(2, r.seed), dur), e.close())
}

// replayQueries times direct Service.QueryBatch calls on exact-hit
// batches and returns their µs.
func (e *serveEnv) replayQueries(r *run) ([]float64, error) {
	src := rng.New(mixSeed(3, r.seed))
	var us []float64
	for i := 0; i < queryReplay; i++ {
		qs := make([]plans.Query, queryBatch)
		want := make([]coverage.Fingerprint, queryBatch)
		for k := range qs {
			en := e.entries[src.IntN(len(e.entries))]
			qs[k], want[k] = en.query, en.fp
		}
		id := r.spans.id()
		t0 := time.Now()
		res := e.svc.QueryBatch(context.Background(), qs)
		end := time.Now()
		r.spans.record(id, 0, "plans.query_batch", "", t0, end)
		us = append(us, float64(end.Sub(t0).Nanoseconds())/1e3)
		for k, q := range res {
			if err := checkHit(queryResult{Status: q.Status, Fingerprint: q.Fingerprint, Error: q.Error}, want[k]); err != nil {
				return nil, err
			}
		}
	}
	return us, nil
}

// load runs one traced phase of the open-loop schedule and waits for
// the jobs it created.
func (e *serveEnv) load(r *run, seed uint64, dur time.Duration) (*phase, error) {
	sched, err := e.schedule(seed, dur)
	if err != nil {
		return nil, err
	}
	ph := &phase{}
	var mu sync.Mutex // guards ph
	tr := r.spans

	stopSampler := make(chan struct{})
	var samplerWG sync.WaitGroup
	samplerWG.Add(1)
	go func() {
		defer samplerWG.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				n := e.mgr.Stat().QueueLen
				mu.Lock()
				ph.backlogMax = max(ph.backlogMax, n)
				mu.Unlock()
			case <-stopSampler:
				return
			}
		}
	}()

	deployCh := make(chan event, len(sched))
	deployDone := make(chan struct{})
	start := time.Now()
	go func() {
		defer close(deployDone)
		e.deployStream(r, ph, &mu, deployCh, seed, tr)
	}()

	var wg sync.WaitGroup
	for _, ev := range sched {
		due := start.Add(ev.at)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		lag := ms(time.Since(due))
		mu.Lock()
		ph.lagMs = append(ph.lagMs, lag)
		mu.Unlock()
		switch ev.kind {
		case evAdvance, evDrift:
			deployCh <- ev
		default:
			wg.Add(1)
			go func(ev event) {
				defer wg.Done()
				e.dispatch(r, ph, &mu, ev, due, tr)
			}(ev)
		}
	}
	close(deployCh)
	wg.Wait()
	<-deployDone
	close(stopSampler)
	samplerWG.Wait()

	// Every job the phase created must reach done.
	deadline := time.Now().Add(drainTimeout)
	for _, s := range append(append([]submitted(nil), ph.jobs...), ph.fills...) {
		if s.err != nil {
			r.op("job", s.err)
			continue
		}
		select {
		case <-e.doneChan(s.id):
		case <-time.After(time.Until(deadline)):
		}
		e.mu.Lock()
		_, done := e.doneAt[s.id]
		bad := e.badFleet[s.id]
		e.mu.Unlock()
		switch {
		case !done:
			v, _ := e.mgr.Get(s.id)
			r.op("job", fmt.Errorf("job %s ended %q, not done", s.id, v.State))
		default:
			r.op("job", bad)
		}
	}
	return ph, nil
}

// dispatch sends one query, fill query or job submission.
func (e *serveEnv) dispatch(r *run, ph *phase, mu *sync.Mutex, ev event, due time.Time, tr *tracer) {
	t0 := time.Now()
	var path string
	want := http.StatusOK
	switch ev.kind {
	case evQuery, evFill:
		path = "/plans:query"
	case evJob:
		path, want = "/jobs", http.StatusAccepted
	}
	raw, err := e.send(http.MethodPost, path, ev.body, want)
	end := time.Now()
	switch ev.kind {
	case evQuery:
		tr.add(0, "http.plans_query", "", t0, end)
		if err == nil {
			err = checkHits(raw, ev.want)
		}
		r.op("exact-hit query", err)
		mu.Lock()
		ph.queryMs = append(ph.queryMs, ms(end.Sub(due)))
		mu.Unlock()
	case evFill:
		var s submitted
		var resp struct{ Results []queryResult }
		if err == nil {
			err = json.Unmarshal(raw, &resp)
		}
		if err == nil && (len(resp.Results) != 1 || resp.Results[0].JobID == "") {
			err = fmt.Errorf("perturbed query answered %+v, want a scheduled job", resp.Results)
		}
		if err == nil {
			s.id = resp.Results[0].JobID
		}
		s.err = err
		tr.add(0, "http.plans_query_fill", s.id, t0, end)
		mu.Lock()
		ph.fills = append(ph.fills, s)
		mu.Unlock()
	case evJob:
		var s submitted
		var v jobs.View
		if err == nil {
			err = json.Unmarshal(raw, &v)
		}
		s.id, s.err = v.ID, err
		tr.add(0, "http.jobs_submit", s.id, t0, end)
		mu.Lock()
		ph.jobs = append(ph.jobs, s)
		mu.Unlock()
	}
}

// checkHits decodes a /plans:query answer and checks every result.
func checkHits(raw []byte, want []coverage.Fingerprint) error {
	var resp struct{ Results []queryResult }
	if err := json.Unmarshal(raw, &resp); err != nil {
		return err
	}
	if len(resp.Results) != len(want) {
		return fmt.Errorf("%d results for %d queries", len(resp.Results), len(want))
	}
	for i, res := range resp.Results {
		if err := checkHit(res, want[i]); err != nil {
			return err
		}
	}
	return nil
}

// cycle is one drift cycle waiting for its swap.
type cycle struct {
	job         string
	swapsBefore int
	done        <-chan struct{}  // the job's done listener fired
	expired     <-chan time.Time // drainTimeout after the trigger
}

// deployStream runs the deployment's advances and drift cycles in
// order. A drift cycle posts biased observations until the detector
// triggers; the swap is seen by the first advance after the
// re-optimization job is done, which the stream issues as soon as the
// done listener fires.
func (e *serveEnv) deployStream(r *run, ph *phase, mu *sync.Mutex, evs <-chan event, seed uint64, tr *tracer) {
	var (
		pending *cycle
		cycles  int
	)
	m := len(e.probs[deployProblem].scn.PoIs)
	sawSwap := func(v deploy.View) {
		if pending != nil && len(v.Swaps) > pending.swapsBefore {
			r.op("drift cycle", nil)
			pending = nil
		}
	}
	advance := func(steps int) {
		body, _ := json.Marshal(map[string]int{"steps": steps})
		t0 := time.Now()
		var v deploy.View
		err := e.call(http.MethodPost, "/deployments/"+e.depID+"/advance", body, http.StatusOK, &v)
		tr.add(0, "http.deploy_advance", e.depID, t0, time.Now())
		r.op("advance", err)
		if err == nil {
			sawSwap(v)
		}
	}
	drift := func() {
		cycles++
		// The sensor is seen glued to one PoI, a different one each cycle.
		glue := (cycles - 1) % m
		biased := make([][]float64, m)
		for i := range biased {
			row := make([]float64, m)
			for j := range row {
				row[j] = 0.1 / float64(m-1)
			}
			row[glue] = 0.9
			biased[i] = row
		}
		src, err := coverage.NewExecutor(&coverage.Plan{TransitionMatrix: biased}, glue, mixSeed(uint64(cycles), seed))
		if err != nil {
			r.op("drift cycle", err)
			return
		}
		var before deploy.View
		if err := e.call(http.MethodGet, "/deployments/"+e.depID, nil, http.StatusOK, &before); err != nil {
			r.op("drift cycle", err)
			return
		}
		for post := 0; post < maxObsPosts; post++ {
			body, _ := json.Marshal(map[string][]int{"pois": src.Walk(obsBatch)})
			t0 := time.Now()
			var v deploy.View
			if err := e.call(http.MethodPost, "/deployments/"+e.depID+"/observations", body, http.StatusOK, &v); err != nil {
				r.op("drift cycle", err)
				return
			}
			tr.add(0, "http.deploy_observe", e.depID, t0, time.Now())
			if v.DriftTriggers > before.DriftTriggers {
				pending = &cycle{
					job: v.ReoptJob, swapsBefore: len(before.Swaps),
					expired: time.After(drainTimeout),
				}
				if v.ReoptJob != "" {
					pending.done = e.doneChan(v.ReoptJob)
					mu.Lock()
					ph.reopts = append(ph.reopts, v.ReoptJob)
					mu.Unlock()
				}
				// A cached lower-cost plan swaps in without a job.
				sawSwap(v)
				if pending != nil && v.ReoptJob == "" {
					r.op("drift cycle", fmt.Errorf("drift triggered neither a swap nor a job: %s", v.LastError))
					pending = nil
				}
				return
			}
		}
		r.op("drift cycle", fmt.Errorf("no drift trigger after %d observation posts", maxObsPosts))
	}

	for evs != nil || pending != nil {
		var (
			done    <-chan struct{}
			expired <-chan time.Time
		)
		if pending != nil {
			done, expired = pending.done, pending.expired
		}
		select {
		case ev, ok := <-evs:
			if !ok {
				evs = nil
				continue
			}
			switch {
			case ev.kind == evAdvance:
				advance(advanceSteps)
			case pending == nil:
				drift()
			}
		case <-done:
			// The job is done, so this advance resolves it.
			advance(1)
			if pending != nil {
				r.op("drift cycle", fmt.Errorf("re-optimization job %s finished without a swap", pending.job))
				pending = nil
			}
		case <-expired:
			r.op("drift cycle", fmt.Errorf("no swap for re-optimization job %q within %v", pending.job, drainTimeout))
			pending = nil
		}
	}
}

func submittedIDs(ss []submitted) []string {
	var ids []string
	for _, s := range ss {
		if s.err == nil {
			ids = append(ids, s.id)
		}
	}
	return ids
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// samples are scraped registry values keyed "name{labels}".
type samples map[string]float64

// scrape reads the registry's exposition text.
func scrape(reg *obs.Registry) samples {
	var buf bytes.Buffer
	out := make(samples)
	if err := reg.WriteText(&buf); err != nil {
		return out
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if v, err := strconv.ParseFloat(line[i+1:], 64); i > 0 && err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

// sum adds every sample whose key starts with prefix.
func (s samples) sum(prefix string) float64 {
	var total float64
	for k, v := range s {
		if strings.HasPrefix(k, prefix) {
			total += v
		}
	}
	return total
}

// setServeLayersAbsent reports the serving layers, and the open-loop
// generator's lag, on a workload that never calls them: 0, by
// definition of "not exercised".
func setServeLayersAbsent(r *run) {
	for _, l := range []struct{ name, unit string }{
		{"gen.lag_ms_p99", "ms"},
		{"jobs.queue_wait_ms_p50", "ms"}, {"jobs.run_ms_p50", "ms"}, {"jobs.backlog_max", "count"},
		{"store.put_ms_p50", "ms"}, {"store.put_ms_p99", "ms"},
		{"store.puts_per_job", "count"}, {"store.put_bytes_per_job", "bytes"},
		{"plans.query_us_p50", "us"}, {"plans.hit_ratio", "ratio"}, {"plans.memory_hit_share", "ratio"},
		{"plans.warm_start_ratio", "ratio"}, {"plans.evictions", "count"},
		{"http.overhead_us", "us"},
		{"deploy.advance_us_per_step", "us"}, {"deploy.drift_checks_per_kstep", "count"},
	} {
		r.setLayer(l.name, l.unit, 0)
	}
}
