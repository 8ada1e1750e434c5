// Package plans is the precomputed plan library: the read path that
// lets millions of consumers fetch already-solved coverage scenarios
// instead of each paying a full optimization.
//
// The library is a two-tier, content-addressed cache. The key is the
// canonical fingerprint of a K-sensor problem, chosen in one place
// (key): for one sensor coverage.ScenarioFingerprint, the hash of the
// solver-relevant normal form of (Scenario, Objectives); for K ≥ 2
// coverage.FleetFingerprint, which adds the fleet size and
// responsibility split. Two requests for the same problem — however
// they spell it — address the same entry. The hot tier is an in-memory
// LRU of full entries; the durable tier is a pluggable jobs.Store (the
// same blob interface the job checkpoints use), holding one JSON
// envelope per fingerprint. A lightweight feature index over every
// durable entry stays resident, so nearest-neighbor lookups never touch
// the store until a candidate is chosen.
//
// When an exact fingerprint misses, the library ranks cached plans by
// scenario distance — topology keys must match exactly (same PoI
// layout, range, speed, obstacles, hence the same matrix dimensions and
// support), then ‖ΔΦ‖₁ plus a weighted objective-weight distance — and
// the nearest entry either warm-starts a fast re-optimization
// (coverage.Options.InitialMatrix, validated bit-exactly since the
// deploy runtime landed) or, within a caller-chosen staleness bound, is
// served directly.
package plans

import (
	"bytes"
	"container/list"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/coverage"
	"repro/internal/jobs"
	"repro/internal/obs"
)

// Library errors.
var (
	// ErrNotFound reports a fingerprint with no entry in either tier.
	ErrNotFound = errors.New("plans: entry not found")
	// ErrEntry reports a malformed entry (bad publish input or a corrupt
	// stored blob).
	ErrEntry = errors.New("plans: invalid entry")
)

// entryVersion is the on-disk entry format version.
const entryVersion = 1

// entrySuffix is the blob-name suffix of persisted entries. Entries are
// stored as <fingerprint>.entry.json, mirroring the job checkpoint
// triple's <id>.<kind>.json layout so both can share one Store.
const entrySuffix = ".entry.json"

// Provenance records where a cached plan came from — enough to
// reproduce it (seed, restarts, solver backend) and to audit what
// produced it (job ID, source subsystem, publication time).
type Provenance struct {
	// JobID is the optimization job that produced the plan, if any.
	JobID string `json:"jobId,omitempty"`
	// Source names the publishing subsystem: "job", "deploy", or
	// "manual".
	Source string `json:"source"`
	// Seed is the master seed of the producing search.
	Seed uint64 `json:"seed"`
	// Restarts is the multi-start budget the search used.
	Restarts int `json:"restarts,omitempty"`
	// Iterations is the winning restart's optimizer iteration count.
	Iterations int `json:"iterations,omitempty"`
	// Solver is the linear-algebra backend that produced the plan. A job
	// records "dense", the one backend there is, also when its spec asked
	// for the "sparse" alias; records written while a separate sparse
	// backend existed may still read "sparse".
	Solver string `json:"solver,omitempty"`
	// Created is the publication time (UTC).
	Created time.Time `json:"created"`
}

// Entry is one cached plan: the canonical problem, its solution, and
// where the solution came from.
type Entry struct {
	// Fingerprint content-addresses the canonical (Scenario, Objectives).
	Fingerprint string `json:"fingerprint"`
	// TopologyKey content-addresses the Φ-independent scenario part;
	// nearest-neighbor candidates must share it.
	TopologyKey string `json:"topologyKey"`
	// Scenario is the canonical scenario (name dropped, defaults
	// explicit).
	Scenario coverage.Scenario `json:"scenario"`
	// Objectives is the canonical objective form (per-PoI vectors).
	Objectives coverage.Objectives `json:"objectives"`
	// Plan is the cached solution, including its achieved cost vector
	// (DeltaC, EBar, Cost, Energy, Entropy).
	Plan *coverage.Plan `json:"plan"`
	// Sensors is the fleet size for jointly-optimized entries (Plan.Fleet
	// set); 0 for single-sensor plans. Entries of different fleet sizes
	// live in different key spaces and never answer each other's lookups.
	Sensors int `json:"sensors,omitempty"`
	// Provenance records the producing search.
	Provenance Provenance `json:"provenance"`
}

// entryEnvelope is the on-disk representation.
type entryEnvelope struct {
	Version int    `json:"version"`
	Kind    string `json:"kind"`
	Entry   *Entry `json:"entry"`
}

// indexEntry is the always-resident slice of an entry: everything the
// distance metric and admission decisions need, without the plan
// matrix.
type indexEntry struct {
	fp       string
	topoKey  string
	phi      []float64
	alpha    []float64
	beta     []float64
	objScals [4]float64 // energyWeight, energyTarget, entropyWeight, epsilon
	cost     float64
	sensors  int // key-space fleet size; 0 for single-sensor entries
}

// Config tunes a Library.
type Config struct {
	// Store is the durable tier; nil keeps the library memory-only (an
	// eviction then drops the entry for good).
	Store jobs.Store
	// Capacity bounds the in-memory LRU entry count (default 128).
	Capacity int
	// Logger receives structured library logs. Nil disables logging.
	Logger *slog.Logger
	// Metrics is the registry the plans_* instruments register into.
	// Nil disables metrics.
	Metrics *obs.Registry
}

// DefaultCapacity is the in-memory LRU size when Config.Capacity is 0.
const DefaultCapacity = 128

// libMetrics bundles the library instruments; all obs instruments are
// nil-safe, so the zero value records nothing.
type libMetrics struct {
	hits       *obs.CounterVec // by tier: memory | store
	misses     *obs.Counter
	staleHits  *obs.Counter
	warmStarts *obs.Counter
	evictions  *obs.Counter
	lookup     *obs.Histogram
}

// LookupBuckets is the bucket ladder of the lookup-latency histogram:
// exact-hit lookups are hash-plus-map work with a p99 SLO of 10ms, so
// the ladder concentrates resolution between 10µs and 25ms.
var LookupBuckets = []float64{
	0.00001, 0.000025, 0.00005, 0.0001, 0.00025, 0.0005,
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
}

func newLibMetrics(r *obs.Registry) libMetrics {
	return libMetrics{
		hits: r.CounterVec("plans_lookup_hits_total",
			"Exact-fingerprint library hits by serving tier.", "tier"),
		misses: r.Counter("plans_lookup_misses_total",
			"Lookups that found no exact-fingerprint entry."),
		staleHits: r.Counter("plans_stale_serves_total",
			"Neighbor plans served directly under a caller staleness bound."),
		warmStarts: r.Counter("plans_warm_starts_total",
			"Optimization jobs warm-started from a neighbor's cached plan."),
		evictions: r.Counter("plans_evictions_total",
			"Entries evicted from the in-memory LRU tier."),
		lookup: r.Histogram("plans_lookup_seconds",
			"Library lookup latency (fingerprint + tier probes).", LookupBuckets),
	}
}

// Library is the two-tier plan cache. All methods are safe for
// concurrent use.
type Library struct {
	cfg Config
	log *slog.Logger
	met libMetrics

	// pubMu serializes publishers, so a publish's check of the current
	// entry, its durable write and its index update act as one step
	// against other publishers, while mu is held only around the
	// in-memory reads and writes: lookups never wait on a Store.Put.
	pubMu sync.Mutex
	mu    sync.Mutex
	lru   *list.List               // *Entry, front = most recently used
	inMem map[string]*list.Element // fingerprint -> LRU node
	index map[string]*indexEntry   // fingerprint -> resident features
}

// New builds a Library and, when a Store is configured, loads the
// feature index of every persisted entry (skipping and logging torn
// blobs, exactly like the job checkpoint loader).
func New(cfg Config) (*Library, error) {
	if cfg.Capacity <= 0 {
		cfg.Capacity = DefaultCapacity
	}
	l := &Library{
		cfg:   cfg,
		log:   obs.Component(cfg.Logger, "plans"),
		lru:   list.New(),
		inMem: make(map[string]*list.Element),
		index: make(map[string]*indexEntry),
	}
	if cfg.Metrics != nil {
		l.met = newLibMetrics(cfg.Metrics)
		cfg.Metrics.GaugeFunc("plans_memory_entries",
			"Entries resident in the in-memory LRU tier.",
			func() float64 { l.mu.Lock(); defer l.mu.Unlock(); return float64(l.lru.Len()) })
		cfg.Metrics.GaugeFunc("plans_index_entries",
			"Entries known to the library across both tiers.",
			func() float64 { l.mu.Lock(); defer l.mu.Unlock(); return float64(len(l.index)) })
	}
	if cfg.Store != nil {
		if err := l.loadIndex(); err != nil {
			return nil, err
		}
	}
	return l, nil
}

// loadIndex scans the durable tier and rebuilds the feature index.
func (l *Library) loadIndex() error {
	names, err := l.cfg.Store.List()
	if err != nil {
		return fmt.Errorf("plans: store list: %w", err)
	}
	loaded := 0
	for _, name := range names {
		if !strings.HasSuffix(name, entrySuffix) {
			continue
		}
		e, err := l.readEntry(strings.TrimSuffix(name, entrySuffix))
		if err != nil {
			// Same posture as job checkpoints: a torn blob must not take
			// the library down; skip it, keep it for inspection.
			l.log.Error("skipping unreadable plan entry",
				slog.String("file", name),
				slog.String("error", err.Error()))
			continue
		}
		l.index[e.Fingerprint] = indexOf(e)
		loaded++
	}
	l.log.Info("plan library loaded", slog.Int("entries", loaded))
	return nil
}

// readEntry fetches and validates one durable entry.
func (l *Library) readEntry(fp string) (*Entry, error) {
	blob, err := l.cfg.Store.Get(fp + entrySuffix)
	if err != nil {
		return nil, err
	}
	var env entryEnvelope
	if err := json.Unmarshal(blob, &env); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrEntry, err)
	}
	if env.Version != entryVersion || env.Kind != "plan-entry" || env.Entry == nil {
		return nil, fmt.Errorf("%w: not a version-%d plan entry", ErrEntry, entryVersion)
	}
	e := env.Entry
	if e.Fingerprint != fp || e.Plan == nil || len(e.Plan.TransitionMatrix) == 0 {
		return nil, fmt.Errorf("%w: fingerprint/plan mismatch in %s", ErrEntry, fp)
	}
	return e, nil
}

// indexOf projects an entry onto its resident features.
func indexOf(e *Entry) *indexEntry {
	ie := &indexEntry{
		fp:      e.Fingerprint,
		topoKey: e.TopologyKey,
		phi:     append([]float64(nil), e.Scenario.Target...),
		alpha:   append([]float64(nil), e.Objectives.PerPoIAlpha...),
		beta:    append([]float64(nil), e.Objectives.PerPoIBeta...),
		cost:    e.Plan.Cost,
		sensors: e.Sensors,
	}
	ie.objScals = [4]float64{
		e.Objectives.EnergyWeight, e.Objectives.EnergyTarget,
		e.Objectives.EntropyWeight, e.Objectives.Epsilon,
	}
	return ie
}

// key resolves the key space of a sensors-sensor problem: its
// fingerprint and the fleet size its entries are indexed under. One
// sensor (sensors 0 or 1) is the single-sensor space of
// coverage.ScenarioFingerprint, indexed as 0, where a responsibility
// split means nothing. K ≥ 2 sensors address the fleet space of
// coverage.FleetFingerprint, so a joint plan can never be confused with
// (or shadow) the single-sensor plan for the same scenario.
func key(scn coverage.Scenario, obj coverage.Objectives, sensors int, responsibility [][]float64) (coverage.Fingerprint, int, error) {
	switch {
	case sensors < 0:
		return "", 0, fmt.Errorf("plans: negative sensors %d", sensors)
	case sensors <= 1 && responsibility != nil:
		return "", 0, errors.New("plans: responsibility set on a single-sensor query")
	case sensors <= 1:
		fp, err := coverage.ScenarioFingerprint(scn, obj)
		return fp, 0, err
	}
	fp, err := coverage.FleetFingerprint(scn, obj, sensors, responsibility)
	return fp, sensors, err
}

// Publish inserts a solved scenario into the library under its
// canonical fingerprint and returns that fingerprint. When an entry for
// the fingerprint already exists, the better (lower-cost) plan wins —
// re-publishing a worse re-optimization never degrades the cache. The
// entry lands in the durable tier (when configured) and at the front of
// the LRU. Publishers run one at a time, but the durable write happens
// outside the lock lookups take: reads of existing entries never wait on
// a slow or fsync'd Store.Put.
func (l *Library) Publish(scn coverage.Scenario, obj coverage.Objectives, plan *coverage.Plan, prov Provenance) (coverage.Fingerprint, error) {
	if plan == nil || len(plan.TransitionMatrix) == 0 {
		return "", fmt.Errorf("%w: nil or empty plan", ErrEntry)
	}
	var sensors int
	var resp [][]float64
	if plan.Fleet != nil {
		sensors, resp = plan.Fleet.Sensors, plan.Fleet.Responsibility
	}
	fp, sensors, err := key(scn, obj, sensors, resp)
	if err != nil {
		return "", err
	}
	topo, err := coverage.TopologyKey(scn)
	if err != nil {
		return "", err
	}
	if len(plan.TransitionMatrix) != len(scn.PoIs) {
		return "", fmt.Errorf("%w: %d-row plan for %d PoIs", ErrEntry, len(plan.TransitionMatrix), len(scn.PoIs))
	}
	if prov.Created.IsZero() {
		prov.Created = time.Now().UTC()
	}
	e := &Entry{
		Fingerprint: string(fp),
		TopologyKey: string(topo),
		Scenario:    coverage.CanonicalScenario(scn),
		Objectives:  coverage.CanonicalObjectives(obj, len(scn.PoIs)),
		Plan:        plan,
		Sensors:     sensors,
		Provenance:  prov,
	}

	l.pubMu.Lock()
	defer l.pubMu.Unlock()
	l.mu.Lock()
	prev, ok := l.index[e.Fingerprint]
	l.mu.Unlock()
	if ok && prev.cost <= plan.Cost {
		// The cache already holds an at-least-as-good plan for this exact
		// problem; keep it (and refresh nothing — the entry is untouched).
		l.log.Debug("publish kept existing entry",
			slog.String("fingerprint", e.Fingerprint),
			slog.Float64("existingCost", prev.cost),
			slog.Float64("newCost", plan.Cost))
		return fp, nil
	}
	if l.cfg.Store != nil {
		blob, err := json.MarshalIndent(entryEnvelope{
			Version: entryVersion, Kind: "plan-entry", Entry: e,
		}, "", "  ")
		if err != nil {
			return "", fmt.Errorf("%w: %v", ErrEntry, err)
		}
		if err := l.cfg.Store.Put(e.Fingerprint+entrySuffix, append(blob, '\n')); err != nil {
			return "", fmt.Errorf("plans: store put: %w", err)
		}
	}
	l.mu.Lock()
	l.index[e.Fingerprint] = indexOf(e)
	l.touch(e)
	l.mu.Unlock()
	l.log.Info("plan published",
		slog.String("fingerprint", e.Fingerprint),
		slog.String("source", prov.Source),
		slog.String("job", prov.JobID),
		slog.Float64("cost", plan.Cost))
	return fp, nil
}

// touch installs (or refreshes) an entry at the LRU front and evicts
// past capacity. Callers hold l.mu.
func (l *Library) touch(e *Entry) {
	if el, ok := l.inMem[e.Fingerprint]; ok {
		el.Value = e
		l.lru.MoveToFront(el)
		return
	}
	l.inMem[e.Fingerprint] = l.lru.PushFront(e)
	for l.lru.Len() > l.cfg.Capacity {
		back := l.lru.Back()
		old := back.Value.(*Entry)
		l.lru.Remove(back)
		delete(l.inMem, old.Fingerprint)
		if l.cfg.Store == nil {
			// Memory-only: the evicted plan is gone; forget its features
			// so Nearest never points at an unloadable entry.
			delete(l.index, old.Fingerprint)
		}
		l.met.evictions.Inc()
	}
}

// Lookup returns the entry for an exact fingerprint, promoting a
// durable-tier hit into the LRU. The boolean reports whether the lookup
// hit; metrics record the tier.
func (l *Library) Lookup(fp coverage.Fingerprint) (*Entry, bool) {
	start := time.Now()
	defer func() { l.met.lookup.Observe(time.Since(start).Seconds()) }()
	l.mu.Lock()
	defer l.mu.Unlock()
	e, ok := l.lookupLocked(string(fp))
	return e, ok
}

// lookupLocked is Lookup under a held l.mu.
func (l *Library) lookupLocked(fp string) (*Entry, bool) {
	if el, ok := l.inMem[fp]; ok {
		l.lru.MoveToFront(el)
		l.met.hits.With("memory").Inc()
		return el.Value.(*Entry), true
	}
	if _, ok := l.index[fp]; ok && l.cfg.Store != nil {
		e, err := l.readEntry(fp)
		if err != nil {
			// The blob vanished or rotted since indexing; drop it and
			// treat as a miss.
			l.log.Error("indexed plan entry unreadable",
				slog.String("fingerprint", fp),
				slog.String("error", err.Error()))
			delete(l.index, fp)
			l.met.misses.Inc()
			return nil, false
		}
		l.touch(e)
		l.met.hits.With("store").Inc()
		return e, true
	}
	l.met.misses.Inc()
	return nil, false
}

// Neighbor is a ranked nearest-neighbor candidate.
type Neighbor struct {
	// Fingerprint identifies the cached entry.
	Fingerprint string `json:"fingerprint"`
	// Distance is the scenario distance to the query (see Distance).
	Distance float64 `json:"distance"`
}

// Nearest finds the closest cached plan for a sensors-sensor query
// (responsibility nil = uniform) that missed exactly. Candidates must
// share the query's topology key and its key space: entries of the same
// fleet size, whose matrix stacks have the right shape to warm-start the
// query's descent (a K-matrix stack is not a drop-in answer for a
// one-sensor problem, nor the other way round). Fleet entries with a
// different responsibility split remain candidates — responsibility
// shifts coverage credit, not matrix shape. Candidates are ranked by
// Distance; Nearest returns the winning entry (promoted into the LRU)
// and its distance. The exact fingerprint, if somehow present, is
// excluded — callers resolve exact hits with Lookup first.
func (l *Library) Nearest(scn coverage.Scenario, obj coverage.Objectives, sensors int, responsibility [][]float64) (*Entry, float64, bool) {
	fp, sensors, err := key(scn, obj, sensors, responsibility)
	if err != nil {
		return nil, 0, false
	}
	topo, err := coverage.TopologyKey(scn)
	if err != nil {
		return nil, 0, false
	}
	c := coverage.CanonicalScenario(scn)
	co := coverage.CanonicalObjectives(obj, len(c.PoIs))
	q := &indexEntry{
		topoKey: string(topo),
		phi:     c.Target,
		alpha:   co.PerPoIAlpha,
		beta:    co.PerPoIBeta,
		objScals: [4]float64{
			co.EnergyWeight, co.EnergyTarget, co.EntropyWeight, co.Epsilon,
		},
	}

	l.mu.Lock()
	defer l.mu.Unlock()
	type cand struct {
		fp   string
		dist float64
	}
	var cands []cand
	for _, ie := range l.index {
		if ie.topoKey != q.topoKey || ie.fp == string(fp) || ie.sensors != sensors {
			continue
		}
		cands = append(cands, cand{fp: ie.fp, dist: distance(q, ie)})
	}
	if len(cands) == 0 {
		return nil, 0, false
	}
	// Deterministic ranking: distance, then fingerprint.
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].dist != cands[b].dist {
			return cands[a].dist < cands[b].dist
		}
		return cands[a].fp < cands[b].fp
	})
	for _, cd := range cands {
		if e, ok := l.lookupLocked(cd.fp); ok {
			return e, cd.dist, true
		}
	}
	return nil, 0, false
}

// WarmStart resolves the best available starting point for a
// sensors-sensor problem (responsibility nil = uniform): an
// exact-fingerprint hit (distance 0) or the nearest same-topology
// neighbor of the same fleet size. It is the library's face toward the
// deploy runtime's re-optimization path.
func (l *Library) WarmStart(scn coverage.Scenario, obj coverage.Objectives, sensors int, responsibility [][]float64) (*coverage.Plan, float64, bool) {
	fp, _, err := key(scn, obj, sensors, responsibility)
	if err != nil {
		return nil, 0, false
	}
	if e, ok := l.Lookup(fp); ok {
		return e.Plan, 0, true
	}
	if e, dist, ok := l.Nearest(scn, obj, sensors, responsibility); ok {
		return e.Plan, dist, true
	}
	return nil, 0, false
}

// PublishPlan is the deploy-runtime publish hook: it stores a freshly
// swapped-in plan under the deployment's scenario with "deploy"
// provenance. Errors are logged, not returned — publishing is advisory
// from the runtime's perspective.
func (l *Library) PublishPlan(scn coverage.Scenario, obj coverage.Objectives, plan *coverage.Plan, jobID string) {
	_, err := l.Publish(scn, obj, plan, Provenance{
		JobID:      jobID,
		Source:     "deploy",
		Iterations: plan.Iterations,
	})
	if err != nil {
		l.log.Error("deploy publish failed", slog.String("error", err.Error()))
	}
}

// Stats summarizes the library tiers.
type Stats struct {
	// MemoryEntries counts LRU-resident entries.
	MemoryEntries int `json:"memoryEntries"`
	// IndexedEntries counts entries across both tiers.
	IndexedEntries int `json:"indexedEntries"`
	// Capacity is the LRU bound.
	Capacity int `json:"capacity"`
	// Persistent reports whether a durable tier is configured.
	Persistent bool `json:"persistent"`
}

// Stat returns current tier occupancy.
func (l *Library) Stat() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Stats{
		MemoryEntries:  l.lru.Len(),
		IndexedEntries: len(l.index),
		Capacity:       l.cfg.Capacity,
		Persistent:     l.cfg.Store != nil,
	}
}

// Get returns the entry for a fingerprint or ErrNotFound.
func (l *Library) Get(fp string) (*Entry, error) {
	if e, ok := l.Lookup(coverage.Fingerprint(fp)); ok {
		return e, nil
	}
	return nil, fmt.Errorf("%w: %s", ErrNotFound, fp)
}

// decodeEntry is a test hook: it round-trips an envelope blob the way
// the durable tier does.
func decodeEntry(blob []byte) (*Entry, error) {
	var env entryEnvelope
	dec := json.NewDecoder(bytes.NewReader(blob))
	if err := dec.Decode(&env); err != nil {
		return nil, err
	}
	return env.Entry, nil
}
